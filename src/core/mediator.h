// The public entry point of dqsched: the mediator of the paper's
// data-integration architecture (Section 2.1). Construct one from a
// catalog + plan + configuration, then Execute() any strategy; repeated
// executions reuse identical generated data and identical per-tuple delay
// draws, so strategies are compared on exactly the same workload.
//
// This header also holds the engine path all three drivers share:
// EngineConfig, PrepareQuery (compile -> annotate -> generate ->
// reference) and RunQuery (one query on a fresh context). The
// multi-query and fleet drivers build on it.

#ifndef DQSCHED_CORE_MEDIATOR_H_
#define DQSCHED_CORE_MEDIATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "comm/comm_manager.h"
#include "common/status.h"
#include "core/cache_manager.h"
#include "core/lwb.h"
#include "core/trace.h"
#include "core/metrics.h"
#include "core/strategy.h"
#include "exec/kernel_config.h"
#include "plan/compiled_plan.h"
#include "plan/plan_node.h"
#include "plan/reference_executor.h"
#include "sim/cost_model.h"
#include "storage/relation.h"
#include "storage/tuple.h"
#include "wrapper/catalog.h"

namespace dqsched::core {

/// The fields every driver shares: Mediator, MultiQueryMediator and
/// FleetExecutor configs derive from this and add only their own knobs.
struct EngineConfig {
  /// Simulation cost parameters (paper Table 1 defaults).
  sim::CostModel cost;
  /// Total memory available for query execution, bytes (the fleet: the
  /// broker's global admission budget and each shard's execution budget).
  int64_t memory_budget_bytes = 256LL * 1024 * 1024;
  /// Communication layer (queue capacity, rate-change detection).
  comm::CommConfig comm;
  /// Scheduler (bmt) and processor (batch size, stall timeout) tunables.
  StrategyConfig strategy;
  /// Seed for data generation and delay draws; one seed = one workload.
  uint64_t seed = 42;
  /// Verify every execution's result against the reference executor.
  /// (Partial results under FaultPolicy::partial_results are exempt.)
  bool verify_results = true;
  /// Operator kernels (vectorized by default; scalar for A/B runs).
  exec::KernelConfig kernels;
  /// Result cache (DESIGN.md §14). The single-query mediator wires a
  /// fresh per-run CacheManager, so every Execute is a cold run. The
  /// multi-query and fleet drivers persist theirs: entries admitted in
  /// one Execute become visible to the next (epoch gating), so a single
  /// run is byte-identical to cache=off on every non-wall metric except
  /// the CacheStats counters themselves.
  CacheConfig cache;

  /// Cost model valid, budget > 0, batch size > 0.
  Status Validate() const;
};

/// Everything configurable about one mediator.
struct MediatorConfig : EngineConfig {
  /// Virtual-time budget for each execution (0 = unlimited). Expiry
  /// raises kDeadlineExceeded, resolved per StrategyConfig::fault.
  SimDuration query_deadline = 0;
};

/// Seed of stream (a, b) under `base`: the multi-query and fleet drivers
/// derive their data, delay, placement and retry seeds with it.
inline uint64_t MixSeed(uint64_t base, uint64_t a, uint64_t b) {
  return storage::Mix64(base ^ (a + 1) * 0x9e3779b97f4a7c15ULL ^
                        (b + 1) * 0xc2b2ae3d27d4eb4fULL);
}

/// Salt of every driver's fault-model draws: their own stream, so arming
/// a fault schedule or a storm never shifts a single data or delay draw.
inline constexpr uint64_t kFaultSalt = 0xa0761d6478bd642fULL;

/// One query, ready to run: its catalog, the compiled and annotated plan
/// (chain sources at local ids 0..n-1), the generated data and the exact
/// reference answer.
struct PreparedQuery {
  wrapper::Catalog catalog;
  plan::CompiledPlan compiled;
  std::vector<storage::Relation> data;
  plan::ReferenceResult reference;

  /// kInternal unless (count, checksum) is the reference answer; `label`
  /// names the run in the message.
  Status Verify(int64_t count, uint64_t checksum,
                const std::string& label) const;
};

/// The one prepare path of every driver: compile, annotate, generate
/// each source's relation from `data_seeds[s]` with rowids tagged by
/// source id `rowid_base + s`, and compute the reference answer. The
/// oracle run is memoized process-wide: it is host-side verification with
/// no simulated cost, so a memo hit changes no metric.
Result<PreparedQuery> PrepareQuery(wrapper::Catalog catalog,
                                   const plan::Plan& plan,
                                   const sim::CostModel& cost,
                                   const std::vector<uint64_t>& data_seeds,
                                   SourceId rowid_base);

/// Per-source seeds of one query's wrappers: delay draws, and fault-model
/// draws (read only for sources whose catalog entry has a schedule).
struct WrapperSeeds {
  std::vector<uint64_t> delay;
  std::vector<uint64_t> fault;
};

/// Registers `query`'s wrappers in `ctx` after the sources it already
/// holds, so source s gets id ctx.comm.num_sources() + s. `held` wrappers
/// deliver nothing until CommManager::StartSource releases them.
void AddWrappers(const PreparedQuery& query, const WrapperSeeds& seeds,
                 bool held, exec::ExecContext& ctx);

/// One single-query run's outcome, with its trace when asked for (paper
/// Section 5.3's diagnostic tool): scheduler decisions, interruption
/// events, per-fragment batch activity, plus fragment display names.
struct TracedExecution {
  ExecutionMetrics metrics;
  ExecutionTrace trace;
  std::vector<std::string> fragment_names;
};

/// The one single-query run: a fresh context with `query`'s wrappers at
/// local ids, the strategy, the reference check and — with `cache` — the
/// cache's accountant attachment and the run's admission. The cache's
/// BeginRun and any whole-query lookup stay with the caller.
Result<TracedExecution> RunQuery(const EngineConfig& config,
                                 const StrategyConfig& strategy,
                                 const PreparedQuery& query,
                                 const WrapperSeeds& seeds, StrategyKind kind,
                                 CacheManager* cache, bool trace);

/// An integration query ready to execute.
class Mediator {
 public:
  /// Validates everything, compiles + annotates the plan, generates the
  /// data, and computes the exact reference answer.
  static Result<Mediator> Create(wrapper::Catalog catalog, plan::Plan plan,
                                 MediatorConfig config);

  Mediator(Mediator&&) = default;
  Mediator& operator=(Mediator&&) = default;

  /// Executes the query under `kind` on a fresh context. Deterministic:
  /// the same mediator + strategy always yields the same metrics.
  Result<ExecutionMetrics> Execute(StrategyKind kind) const;

  /// Like Execute, but records and returns the execution trace.
  using TracedExecution = core::TracedExecution;
  Result<TracedExecution> ExecuteTraced(StrategyKind kind) const;

  /// Executes with query scrambling, phase 1 (core/scrambling.h) — the
  /// paper's main prior art, for measurable comparison. `timeout` is the
  /// scrambling trigger the paper calls hard to tune.
  Result<ExecutionMetrics> ExecuteScrambling(
      SimDuration timeout = Milliseconds(100)) const;

  /// Executes with double-pipelined (symmetric) hash joins — the
  /// operator-level adaptation of paper Section 1.1 (core/dphj.h) — for
  /// comparison against the scheduling-level DSE. Verified against the
  /// reference like every other strategy.
  Result<ExecutionMetrics> ExecuteDphj() const;

  /// The analytic lower bound LWB (paper Section 5.1.2).
  LwbBreakdown LowerBound() const;

  const wrapper::Catalog& catalog() const { return query_.catalog; }
  const plan::CompiledPlan& compiled() const { return query_.compiled; }
  const plan::ReferenceResult& reference() const { return query_.reference; }
  const std::vector<storage::Relation>& data() const { return query_.data; }
  const MediatorConfig& config() const { return config_; }

 private:
  Result<TracedExecution> ExecuteWithOptions(StrategyKind kind,
                                             bool trace) const;
  /// The reference check of the SCR and DPHJ runs.
  Status Verify(const ExecutionMetrics& metrics, const char* label) const {
    if (!config_.verify_results) return Status::Ok();
    return query_.Verify(metrics.result_count, metrics.result_checksum, label);
  }

  Mediator(PreparedQuery query, MediatorConfig config, WrapperSeeds seeds,
           std::vector<double> realized_retrieval_ns)
      : query_(std::move(query)),
        config_(std::move(config)),
        seeds_(std::move(seeds)),
        realized_retrieval_ns_(std::move(realized_retrieval_ns)) {}

  PreparedQuery query_;
  MediatorConfig config_;
  WrapperSeeds seeds_;
  /// Per-source realized total delivery time (sum of this seed's actual
  /// delay draws), nanoseconds — makes the LWB tight per workload.
  std::vector<double> realized_retrieval_ns_;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_MEDIATOR_H_
