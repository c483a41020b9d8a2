#include "core/metrics.h"

#include <cstdio>

#include "comm/comm_manager.h"

namespace dqsched::core {

const char* QueryStatusName(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kPartial:
      return "partial";
    case QueryStatus::kDeadlineCancelled:
      return "deadline";
    case QueryStatus::kRetriesExhausted:
      return "retries";
    case QueryStatus::kShed:
      return "shed";
  }
  return "unknown";
}

void FaultStats::AddInjected(const comm::CommManager& comm, SourceId lo,
                             SourceId hi) {
  for (SourceId s = lo; s < hi; ++s) {
    const wrapper::FaultInjectionStats* fs = comm.wrapper(s).fault_stats();
    if (fs != nullptr) {
      stalls_injected += fs->stalls;
      disconnects_injected += fs->disconnects;
      reconnects += fs->reconnects;
      if (fs->died) ++sources_killed;
    }
    replays_discarded += comm.ReplayDiscarded(s);
  }
}

std::string ExecutionMetrics::ToString() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "response %s (busy %s, stalled %s)\n"
      "result: %lld tuples, checksum %016llx\n"
      "planning: %lld phases (%.3f ms host), execution: %lld phases\n"
      "dynamics: %lld degradations, %lld CF activations, %lld DQO splits, "
      "%lld timeouts, %lld rate changes\n"
      "memory peak: %.1f MB | disk: %lld pages written, %lld read, "
      "%lld positionings | net: %lld msgs",
      FormatDuration(response_time).c_str(),
      FormatDuration(busy_time).c_str(),
      FormatDuration(stalled_time).c_str(),
      static_cast<long long>(result_count),
      static_cast<unsigned long long>(result_checksum),
      static_cast<long long>(planning_phases), planning_host_seconds * 1e3,
      static_cast<long long>(execution_phases),
      static_cast<long long>(degradations),
      static_cast<long long>(cf_activations),
      static_cast<long long>(dqo_splits), static_cast<long long>(timeouts),
      static_cast<long long>(rate_change_events),
      static_cast<double>(peak_memory_bytes) / (1024.0 * 1024.0),
      static_cast<long long>(disk.pages_written),
      static_cast<long long>(disk.pages_read),
      static_cast<long long>(disk.positionings),
      static_cast<long long>(network.messages_received));
  std::string out = buf;
  if (fault.any()) {
    std::snprintf(
        buf, sizeof(buf),
        "\nfaults: %lld stalls, %lld disconnects (%lld reconnects), "
        "%lld killed | detector: %lld suspected, %lld dead, %lld recovered, "
        "%lld replays discarded | %lld abandoned%s%s",
        static_cast<long long>(fault.stalls_injected),
        static_cast<long long>(fault.disconnects_injected),
        static_cast<long long>(fault.reconnects),
        static_cast<long long>(fault.sources_killed),
        static_cast<long long>(fault.sources_suspected),
        static_cast<long long>(fault.sources_dead),
        static_cast<long long>(fault.recoveries),
        static_cast<long long>(fault.replays_discarded),
        static_cast<long long>(fault.sources_abandoned),
        fault.partial_result ? ", PARTIAL RESULT" : "",
        fault.deadline_hit ? ", DEADLINE HIT" : "");
    out += buf;
  }
  if (cache.any()) {
    std::snprintf(buf, sizeof(buf),
                  "\ncache: %lld/%lld segment hits, %lld/%lld result hits, "
                  "%lld+%lld admitted, %lld stale, %lld evicted",
                  static_cast<long long>(cache.segment_hits),
                  static_cast<long long>(cache.segment_hits +
                                         cache.segment_misses),
                  static_cast<long long>(cache.result_hits),
                  static_cast<long long>(cache.result_hits +
                                         cache.result_misses),
                  static_cast<long long>(cache.admitted_segments),
                  static_cast<long long>(cache.admitted_results),
                  static_cast<long long>(cache.stale_invalidations),
                  static_cast<long long>(cache.evictions));
    out += buf;
  }
  return out;
}

}  // namespace dqsched::core
