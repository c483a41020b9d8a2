// Execution metrics reported by the mediator for one strategy run.

#ifndef DQSCHED_CORE_METRICS_H_
#define DQSCHED_CORE_METRICS_H_

#include <cstdint>
#include <string>

#include "common/ids.h"
#include "common/sim_time.h"
#include "sim/disk.h"
#include "sim/network.h"
#include "storage/temp_store.h"

namespace dqsched::comm {
class CommManager;
}

namespace dqsched::core {

/// Terminal lifecycle status of one query (DESIGN.md §13). Every query
/// ends in exactly one of these; "completes or wedges" is not a state.
enum class QueryStatus {
  /// Full result delivered and verified.
  kOk,
  /// Finished after abandoning one or more dead/broken sources — the
  /// PR 4 partial-result policy, now a first-class terminal status.
  kPartial,
  /// The virtual-time deadline expired mid-flight; the query was
  /// cancelled cooperatively and its resources released.
  kDeadlineCancelled,
  /// Killed by source death or deadline on every attempt; the retry
  /// budget ran out before the sources recovered.
  kRetriesExhausted,
  /// Never ran: admission shed it because its queue wait already
  /// exceeded the deadline (or its admission target was hopeless).
  kShed,
};

/// Short stable name ("ok", "partial", "deadline", "retries", "shed").
const char* QueryStatusName(QueryStatus status);

/// Count of terminal statuses, in enum order.
inline constexpr int kNumQueryStatuses = 5;

/// Fault-layer activity of one execution: what was injected into the
/// wrappers, what the CM's failure detector concluded, and how the
/// strategy resolved it. All-zero (any() == false) for fault-free runs.
struct FaultStats {
  // Injection side (from the wrappers' fault models).
  int64_t stalls_injected = 0;
  int64_t disconnects_injected = 0;
  int64_t reconnects = 0;
  int64_t sources_killed = 0;  // wrappers hit by a kDeath fault

  // Detection side (from the CM).
  int64_t sources_suspected = 0;  // healthy->suspected transitions
  int64_t sources_dead = 0;       // suspected->dead declarations
  int64_t recoveries = 0;         // suspected/dead->healthy transitions
  int64_t replays_discarded = 0;  // duplicate tuples dropped on pop

  // Resolution side (from the strategy).
  int64_t source_down_events = 0;
  int64_t source_recovered_events = 0;
  int64_t sources_abandoned = 0;
  /// The result was produced without every source's full stream.
  bool partial_result = false;
  /// The run ended because the query deadline expired.
  bool deadline_hit = false;

  /// Aggregates fault activity across executions (multi-query / fleet
  /// accounting): counters sum, the two terminal flags OR. The merge is
  /// commutative, but aggregators apply it in a documented stable order
  /// (ascending query / shard index) so intermediate snapshots are
  /// reproducible too.
  FaultStats& operator+=(const FaultStats& other) {
    stalls_injected += other.stalls_injected;
    disconnects_injected += other.disconnects_injected;
    reconnects += other.reconnects;
    sources_killed += other.sources_killed;
    sources_suspected += other.sources_suspected;
    sources_dead += other.sources_dead;
    recoveries += other.recoveries;
    replays_discarded += other.replays_discarded;
    source_down_events += other.source_down_events;
    source_recovered_events += other.source_recovered_events;
    sources_abandoned += other.sources_abandoned;
    partial_result = partial_result || other.partial_result;
    deadline_hit = deadline_hit || other.deadline_hit;
    return *this;
  }

  bool any() const {
    return stalls_injected != 0 || disconnects_injected != 0 ||
           reconnects != 0 || sources_killed != 0 || sources_suspected != 0 ||
           sources_dead != 0 || recoveries != 0 || replays_discarded != 0 ||
           source_down_events != 0 || source_recovered_events != 0 ||
           sources_abandoned != 0 || partial_result || deadline_hit;
  }

  /// Adds the wrapper-side counters of sources [lo, hi) of `comm` in
  /// ascending id: each fault model's injections and the CM's replay
  /// discards.
  void AddInjected(const comm::CommManager& comm, SourceId lo, SourceId hi);
};

/// Result-cache activity of one execution (or one shard/run aggregate).
/// Like planning_host_seconds, the cache counters sit OUTSIDE the
/// byte-identity contract between cache-off and cold-cache runs — a cold
/// run records misses and admissions where an off run records nothing —
/// but they are deterministic across `--jobs` like every other field.
/// All-zero (any() == false) whenever caching is off.
struct CacheStats {
  int64_t segment_hits = 0;
  int64_t segment_misses = 0;
  int64_t result_hits = 0;
  int64_t result_misses = 0;
  int64_t admitted_segments = 0;
  int64_t admitted_results = 0;
  /// Lookups that found their fingerprint under a stale version (the
  /// entry was lazily evicted; the lookup also counts as a miss).
  int64_t stale_invalidations = 0;
  /// Entries removed by LRU budget pressure, accountant reclaim, or a
  /// broker trim directive.
  int64_t evictions = 0;

  /// Aggregates across queries/shards in ascending index order (same
  /// discipline as FaultStats).
  CacheStats& operator+=(const CacheStats& other) {
    segment_hits += other.segment_hits;
    segment_misses += other.segment_misses;
    result_hits += other.result_hits;
    result_misses += other.result_misses;
    admitted_segments += other.admitted_segments;
    admitted_results += other.admitted_results;
    stale_invalidations += other.stale_invalidations;
    evictions += other.evictions;
    return *this;
  }

  bool any() const {
    return segment_hits != 0 || segment_misses != 0 || result_hits != 0 ||
           result_misses != 0 || admitted_segments != 0 ||
           admitted_results != 0 || stale_invalidations != 0 ||
           evictions != 0;
  }
};

/// Everything measured during one execution. Response time is virtual
/// (simulated) time from query start to the last result tuple.
struct ExecutionMetrics {
  SimDuration response_time = 0;
  /// Virtual time the engine did useful work (CPU + synchronous I/O).
  SimDuration busy_time = 0;
  /// Virtual time the engine starved waiting for data.
  SimDuration stalled_time = 0;

  int64_t result_count = 0;
  uint64_t result_checksum = 0;

  // Dynamic-engine activity.
  int64_t planning_phases = 0;
  int64_t execution_phases = 0;
  int64_t degradations = 0;     // MF(p) creations (paper Section 4.4)
  int64_t cf_activations = 0;   // degraded chains resumed as CF(p)
  int64_t dqo_splits = 0;       // memory-overflow plan revisions (4.2)
  int64_t operand_spills = 0;   // DQO operand evictions under pressure
  int64_t timeouts = 0;
  int64_t rate_change_events = 0;

  int64_t peak_memory_bytes = 0;

  sim::DiskStats disk;
  sim::NetworkStats network;
  storage::TempStoreStats temps;
  FaultStats fault;
  /// Result-cache activity attributed to this query: hits it consumed,
  /// misses it probed, segments/results it contributed. Outside the
  /// off-vs-cold byte-identity contract (see CacheStats).
  CacheStats cache;

  /// Host (wall-clock) seconds spent inside the DQS planning — the
  /// scheduling overhead the paper argues must be small (Section 3.3).
  double planning_host_seconds = 0.0;

  /// Multi-line human-readable summary.
  std::string ToString() const;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_METRICS_H_
