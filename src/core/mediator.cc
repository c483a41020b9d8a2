#include "core/mediator.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/macros.h"
#include "core/dphj.h"
#include "core/scrambling.h"
#include "core/execution_state.h"
#include "exec/exec_context.h"
#include "wrapper/wrapper.h"

namespace dqsched::core {

namespace {

/// Stable per-source seed derivation of the single-query mediator: data
/// and delay draws must be identical across strategies and across hosts.
uint64_t SourceSeed(uint64_t base, SourceId source, uint64_t salt) {
  return storage::Mix64(base ^ (static_cast<uint64_t>(source) + 1) * salt);
}

constexpr uint64_t kDataSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kDelaySalt = 0xc2b2ae3d27d4eb4fULL;

/// Serializes everything the oracle's answer depends on: the data
/// generator inputs (relation specs, per-source seeds and rowid source
/// ids) and the compiled chain structure. Annotations are excluded — the
/// reference executor never reads estimates. Valid only because
/// PrepareQuery derives the data from exactly these inputs.
std::string ReferenceKey(const plan::CompiledPlan& compiled,
                         const wrapper::Catalog& catalog,
                         const std::vector<uint64_t>& data_seeds,
                         SourceId rowid_base) {
  std::string key;
  key.reserve(512);
  auto raw = [&key](const void* p, size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  auto i64 = [&raw](int64_t v) { raw(&v, sizeof v); };
  auto f64 = [&raw](double v) { raw(&v, sizeof v); };
  i64(catalog.num_sources());
  for (SourceId s = 0; s < catalog.num_sources(); ++s) {
    const storage::RelationSpec& r = catalog.source(s).relation;
    i64(static_cast<int64_t>(data_seeds[static_cast<size_t>(s)]));
    i64(rowid_base + s);
    i64(r.cardinality);
    for (int64_t d : r.key_domain) i64(d);
  }
  i64(compiled.result_chain);
  i64(compiled.num_joins);
  for (ChainId c : compiled.operand_of_join) i64(c);
  for (int f : compiled.join_build_field) i64(f);
  for (const plan::ChainInfo& c : compiled.chains) {
    i64(c.source);
    i64(c.is_result ? 1 : 0);
    i64(c.sink_join);
    i64(c.build_key_field);
    i64(static_cast<int64_t>(c.ops.size()));
    for (const plan::ChainOp& op : c.ops) {
      i64(static_cast<int64_t>(op.kind));
      i64(op.node);
      f64(op.selectivity);
      i64(op.join);
      i64(op.probe_key_field);
    }
  }
  return key;
}

}  // namespace

Status PreparedQuery::Verify(int64_t count, uint64_t checksum,
                             const std::string& label) const {
  if (count == reference.result_card &&
      checksum == reference.checksum.value()) {
    return Status::Ok();
  }
  return Status::Internal("result mismatch under " + label + ": got " +
                          std::to_string(count) + " tuples, expected " +
                          std::to_string(reference.result_card));
}

Status EngineConfig::Validate() const {
  DQS_RETURN_IF_ERROR(cost.Validate());
  if (memory_budget_bytes <= 0) {
    return Status::InvalidArgument("memory budget must be > 0");
  }
  if (strategy.dqp.batch_size <= 0) {
    return Status::InvalidArgument("batch size must be > 0");
  }
  return Status::Ok();
}

Result<PreparedQuery> PrepareQuery(wrapper::Catalog catalog,
                                   const plan::Plan& plan,
                                   const sim::CostModel& cost,
                                   const std::vector<uint64_t>& data_seeds,
                                   SourceId rowid_base) {
  DQS_RETURN_IF_ERROR(catalog.Validate());
  DQS_CHECK(static_cast<int>(data_seeds.size()) == catalog.num_sources());
  PreparedQuery q;
  Result<plan::CompiledPlan> compiled = plan::Compile(plan, catalog);
  if (!compiled.ok()) return compiled.status();
  q.compiled = std::move(compiled.value());
  DQS_RETURN_IF_ERROR(plan::Annotate(&q.compiled, catalog, cost));

  q.data.reserve(static_cast<size_t>(catalog.num_sources()));
  for (SourceId s = 0; s < catalog.num_sources(); ++s) {
    q.data.push_back(storage::GenerateRelation(
        catalog.source(s).relation, rowid_base + s,
        Rng(data_seeds[static_cast<size_t>(s)])));
  }

  // Bench grids build many queries whose cells differ only in delay or
  // strategy configuration; the oracle run (and its exact result) is
  // identical across all of them. Memoize it process-wide. The miss path
  // runs outside the lock; a losing racer simply discards its duplicate.
  // Sorted keys (std::map), not a hash map: lookup cost is irrelevant for
  // a per-grid memo, and no unordered container sits anywhere near result
  // state (dqs-analyze rule unordered-iter keeps it that way).
  static std::mutex mu;
  static std::map<std::string, plan::ReferenceResult> memo;
  std::string key = ReferenceKey(q.compiled, catalog, data_seeds, rowid_base);
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    if (it != memo.end()) {
      q.reference = it->second;
      hit = true;
    }
  }
  if (!hit) {
    q.reference = plan::ExecuteReference(q.compiled, q.data);
    std::lock_guard<std::mutex> lock(mu);
    memo.emplace(std::move(key), q.reference);
  }
  q.catalog = std::move(catalog);
  return q;
}

void AddWrappers(const PreparedQuery& query, const WrapperSeeds& seeds,
                 bool held, exec::ExecContext& ctx) {
  const SourceId base = ctx.comm.num_sources();
  for (SourceId s = 0; s < query.catalog.num_sources(); ++s) {
    const wrapper::SourceSpec& spec = query.catalog.source(s);
    auto w = std::make_unique<wrapper::SimWrapper>(
        base + s, &query.data[static_cast<size_t>(s)], spec.delay,
        seeds.delay[static_cast<size_t>(s)]);
    if (!spec.faults.empty()) {
      w->SetFaultSchedule(spec.faults, seeds.fault[static_cast<size_t>(s)]);
    }
    if (held) w->Hold();
    // The pre-observation prior a static optimizer would assume: delivery
    // at full speed (the paper's w_min).
    ctx.comm.AddSource(std::move(w),
                       static_cast<double>(ctx.cost->MinWaitingTime()));
  }
}

Result<TracedExecution> RunQuery(const EngineConfig& config,
                                 const StrategyConfig& strategy,
                                 const PreparedQuery& query,
                                 const WrapperSeeds& seeds, StrategyKind kind,
                                 CacheManager* cache, bool trace) {
  exec::ExecContext ctx(&config.cost, config.comm,
                        config.memory_budget_bytes);
  AddWrappers(query, seeds, /*held=*/false, ctx);
  // Declared after ctx: the reclaimable grant leaves the accountant while
  // it still exists.
  CacheAttachment attachment = AttachCache(cache, &ctx.memory);

  ExecutionOptions options = OptionsFor(kind);
  options.trace = trace;
  options.kernels = config.kernels;
  options.cache = cache;
  ExecutionState state(&query.compiled, &ctx, options);
  Result<ExecutionMetrics> metrics = RunStrategy(kind, state, ctx, strategy);
  if (!metrics.ok()) return metrics.status();
  const bool complete = !metrics->fault.partial_result;
  if (config.verify_results && complete) {
    DQS_RETURN_IF_ERROR(query.Verify(metrics->result_count,
                                     metrics->result_checksum,
                                     StrategyName(kind)));
  }
  if (cache != nullptr) {
    cache->AdmitQuery(state, ctx, complete);
    metrics->cache = cache->stats();
  }
  TracedExecution out;
  out.metrics = std::move(metrics.value());
  out.trace = std::move(state.trace());
  out.fragment_names = state.FragmentNames();
  return out;
}

Result<Mediator> Mediator::Create(wrapper::Catalog catalog, plan::Plan plan,
                                  MediatorConfig config) {
  DQS_RETURN_IF_ERROR(config.Validate());
  if (config.query_deadline < 0) {
    return Status::InvalidArgument("query deadline must be >= 0");
  }
  // Arm the failure detector exactly when a source can misbehave: with no
  // schedule anywhere, every fault code path stays dormant and the run is
  // bit-identical to a build without the fault layer.
  if (catalog.has_faults()) config.comm.failure_detection = true;

  std::vector<uint64_t> data_seeds;
  WrapperSeeds seeds;
  for (SourceId s = 0; s < catalog.num_sources(); ++s) {
    data_seeds.push_back(SourceSeed(config.seed, s, kDataSalt));
    seeds.delay.push_back(SourceSeed(config.seed, s, kDelaySalt));
    seeds.fault.push_back(SourceSeed(config.seed, s, kFaultSalt));
  }
  Result<PreparedQuery> query = PrepareQuery(
      std::move(catalog), plan, config.cost, data_seeds, /*rowid_base=*/0);
  if (!query.ok()) return query.status();

  // Replay each wrapper's delay draws: the realized retrieval totals make
  // the lower bound tight for this exact workload instance.
  const wrapper::Catalog& cat = query->catalog;
  std::vector<double> realized;
  realized.reserve(static_cast<size_t>(cat.num_sources()));
  for (SourceId s = 0; s < cat.num_sources(); ++s) {
    Rng rng(seeds.delay[static_cast<size_t>(s)]);
    auto model = wrapper::MakeDelayModel(cat.source(s).delay);
    double total = 0.0;
    const int64_t n = cat.source(s).relation.cardinality;
    for (int64_t i = 0; i < n; ++i) {
      total += static_cast<double>(model->NextDelay(i, rng));
    }
    realized.push_back(total);
  }

  return Mediator(std::move(query.value()), std::move(config),
                  std::move(seeds), std::move(realized));
}

Result<Mediator::TracedExecution> Mediator::ExecuteWithOptions(
    StrategyKind kind, bool trace) const {
  // Per-run cache (see EngineConfig::cache): fresh, so the run is always
  // cold — epoch gating keeps its own admissions invisible — and
  // Execute's determinism contract holds with caching on or off.
  CacheManager run_cache(config_.cache);
  CacheManager* cache = nullptr;
  if (config_.cache.enabled) {
    run_cache.BeginRun();
    cache = &run_cache;
  }
  StrategyConfig strategy = config_.strategy;
  if (config_.query_deadline > 0) {
    strategy.dqp.deadline = config_.query_deadline;
  }
  return RunQuery(config_, strategy, query_, seeds_, kind, cache, trace);
}

Result<ExecutionMetrics> Mediator::Execute(StrategyKind kind) const {
  Result<TracedExecution> run = ExecuteWithOptions(kind, /*trace=*/false);
  if (!run.ok()) return run.status();
  return std::move(run->metrics);
}

Result<Mediator::TracedExecution> Mediator::ExecuteTraced(
    StrategyKind kind) const {
  return ExecuteWithOptions(kind, /*trace=*/true);
}

Result<ExecutionMetrics> Mediator::ExecuteScrambling(
    SimDuration timeout) const {
  exec::ExecContext ctx(&config_.cost, config_.comm,
                        config_.memory_budget_bytes);
  AddWrappers(query_, seeds_, /*held=*/false, ctx);
  // Scrambling shares DSE's asynchronous-I/O fragments (it also
  // materializes to overlap), but not its rate-driven planning.
  ExecutionOptions options = OptionsFor(StrategyKind::kDse);
  options.kernels = config_.kernels;
  ExecutionState state(&query_.compiled, &ctx, options);
  ScramblingConfig scr;
  scr.timeout = timeout;
  scr.batch_size = config_.strategy.dqp.batch_size;
  scr.deadline = config_.query_deadline;
  Result<ExecutionMetrics> metrics = RunScrambling(state, ctx, scr);
  if (!metrics.ok()) return metrics;
  if (!metrics->fault.partial_result) {
    DQS_RETURN_IF_ERROR(Verify(*metrics, "SCR"));
  }
  return metrics;
}

Result<ExecutionMetrics> Mediator::ExecuteDphj() const {
  exec::ExecContext ctx(&config_.cost, config_.comm,
                        config_.memory_budget_bytes);
  AddWrappers(query_, seeds_, /*held=*/false, ctx);
  DphjConfig dphj;
  dphj.batch_size = config_.strategy.dqp.batch_size;
  Result<ExecutionMetrics> metrics = RunDphj(query_.compiled, ctx, dphj);
  if (!metrics.ok()) return metrics;
  DQS_RETURN_IF_ERROR(Verify(*metrics, "DPHJ"));
  return metrics;
}

LwbBreakdown Mediator::LowerBound() const {
  return ComputeLwb(query_.compiled, query_.reference, query_.catalog,
                    config_.cost, realized_retrieval_ns_);
}

}  // namespace dqsched::core
