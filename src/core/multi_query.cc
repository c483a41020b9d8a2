#include "core/multi_query.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/macros.h"
#include "core/shared_loop.h"
#include "exec/exec_context.h"

namespace dqsched::core {

const char* MultiModeName(MultiMode mode) {
  switch (mode) {
    case MultiMode::kSerial:
      return "serial";
    case MultiMode::kShared:
      return "shared";
  }
  return "unknown";
}

Result<MultiQueryMediator> MultiQueryMediator::Create(
    std::vector<plan::QuerySetup> setups, MultiQueryConfig config) {
  DQS_RETURN_IF_ERROR(config.Validate());
  if (setups.empty()) {
    return Status::InvalidArgument("no queries in the mix");
  }
  if (config.slice_batches <= 0) {
    return Status::InvalidArgument("slice must be > 0");
  }

  std::vector<Query> queries;
  SourceId offset = 0;
  for (size_t qi = 0; qi < setups.size(); ++qi) {
    plan::QuerySetup& setup = setups[qi];
    if (setup.catalog.has_faults()) {
      return Status::InvalidArgument(
          "multi-query sources take no fault schedules");
    }
    Query q;
    std::vector<uint64_t> data_seeds;
    for (SourceId s = 0; s < setup.catalog.num_sources(); ++s) {
      const uint64_t su = static_cast<uint64_t>(s);
      data_seeds.push_back(MixSeed(config.seed, qi, su));
      q.seeds.delay.push_back(MixSeed(config.seed, qi, su + 977));
    }
    Result<PreparedQuery> prepared =
        PrepareQuery(std::move(setup.catalog), setup.plan, config.cost,
                     data_seeds, /*rowid_base=*/offset);
    if (!prepared.ok()) return prepared.status();
    q.prepared = std::move(prepared.value());
    q.shared_plan = q.prepared.compiled;
    for (plan::ChainInfo& chain : q.shared_plan.chains) {
      chain.source += offset;
    }
    q.source_offset = offset;
    offset += q.prepared.catalog.num_sources();
    queries.push_back(std::move(q));
  }
  return MultiQueryMediator(std::move(queries), std::move(config));
}

Result<MultiQueryMetrics> MultiQueryMediator::Execute(StrategyKind strategy,
                                                      MultiMode mode) const {
  if (strategy == StrategyKind::kMa) {
    return Status::InvalidArgument(
        "multi-query execution supports SEQ and DSE per-query strategies");
  }
  CacheManager* cache = nullptr;
  if (config_.cache.enabled) {
    if (cache_ == nullptr) {
      cache_ = std::make_unique<CacheManager>(config_.cache);
    }
    cache = cache_.get();
    cache->BeginRun();
  }
  return mode == MultiMode::kShared ? ExecuteShared(strategy, cache)
                                    : ExecuteSerial(strategy, cache);
}

Result<MultiQueryMetrics> MultiQueryMediator::ExecuteSerial(
    StrategyKind strategy, CacheManager* cache) const {
  MultiQueryMetrics out;
  SimDuration offset = 0;
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const Query& q = queries_[qi];
    if (cache != nullptr) {
      // The run sees its sources at local ids; the cache keys them by the
      // global ids the shared mode uses, so both modes share entries.
      for (SourceId s = 0; s < q.prepared.catalog.num_sources(); ++s) {
        cache->MapSource(s, q.source_offset + s);
      }
      // Whole-query result hit: the answer is served instantly, no
      // context is even built — the query's user waits zero virtual time
      // beyond the mix's current offset.
      int64_t hit_count = 0;
      uint64_t hit_checksum = 0;
      if (cache->LookupResult(q.prepared.compiled, &hit_count,
                              &hit_checksum)) {
        cache->ClearSourceMap();
        if (config_.verify_results) {
          DQS_RETURN_IF_ERROR(q.prepared.Verify(
              hit_count, hit_checksum,
              "cached serial query " + std::to_string(qi)));
        }
        out.response_times.push_back(offset);
        out.statuses.push_back(QueryStatus::kOk);
        out.total_result_tuples += hit_count;
        continue;
      }
    }
    Result<TracedExecution> run =
        RunQuery(config_, config_.strategy, q.prepared, q.seeds, strategy,
                 cache, /*trace=*/false);
    if (cache != nullptr) cache->ClearSourceMap();
    if (!run.ok()) return run.status();
    const ExecutionMetrics& m = run->metrics;
    offset += m.response_time;
    out.response_times.push_back(offset);
    out.statuses.push_back(m.fault.partial_result ? QueryStatus::kPartial
                                                  : QueryStatus::kOk);
    out.total_degradations += m.degradations;
    out.total_result_tuples += m.result_count;
    out.peak_memory_bytes =
        std::max(out.peak_memory_bytes, m.peak_memory_bytes);
    // Stable merge order: ascending query index (this loop).
    out.disk += m.disk;
    out.network += m.network;
    out.temps += m.temps;
    out.fault += m.fault;
  }
  out.makespan = offset;
  SimDuration sum = 0;
  for (SimDuration r : out.response_times) sum += r;
  out.mean_response = sum / static_cast<SimDuration>(queries_.size());
  if (cache != nullptr) out.cache = cache->stats();
  return out;
}

Result<MultiQueryMetrics> MultiQueryMediator::ExecuteShared(
    StrategyKind strategy, CacheManager* cache) const {
  const int nq = num_queries();
  exec::ExecContext ctx(&config_.cost, config_.comm,
                        config_.memory_budget_bytes);
  CacheAttachment attachment = AttachCache(cache, &ctx.memory);
  for (const Query& q : queries_) {
    AddWrappers(q.prepared, q.seeds, /*held=*/false, ctx);
  }

  SharedQueryLoop::Options loop_options;
  loop_options.strategy = strategy;
  loop_options.config = config_.strategy;
  loop_options.slice_batches = config_.slice_batches;
  loop_options.targeted_replans = config_.targeted_replans;
  loop_options.kernels = config_.kernels;
  loop_options.cache = cache;
  SharedQueryLoop loop(&ctx, loop_options);
  for (const Query& q : queries_) {
    SharedQueryDesc desc;
    desc.compiled = &q.shared_plan;
    desc.source_lo = q.source_offset;
    desc.source_hi = q.source_offset + q.prepared.catalog.num_sources();
    if (cache != nullptr) {
      // Whole-query result hit: the slot joins already answered and never
      // enters the rotation; its wrappers are never drained.
      int64_t hit_count = 0;
      uint64_t hit_checksum = 0;
      if (cache->LookupResult(q.shared_plan, &hit_count, &hit_checksum)) {
        desc.resolved = true;
        desc.resolved_count = hit_count;
        desc.resolved_checksum = hit_checksum;
      }
    }
    loop.AddQuery(desc);
  }

  while (loop.active() > 0) {
    Result<SharedQueryLoop::Turn> turn = loop.Step();
    if (!turn.ok()) return turn.status();
    if (turn->kind == SharedQueryLoop::Turn::Kind::kQueryDone) {
      // The shared mode has no partial completions (no lifecycle layer):
      // every finished query carries the full answer.
      if (cache != nullptr) {
        cache->AdmitQuery(loop.state(turn->query), ctx,
                          /*result_complete=*/true);
      }
      continue;
    }
    if (turn->kind != SharedQueryLoop::Turn::Kind::kAllStarved) continue;
    // Every unfinished query starves: advance the shared clock to the
    // earliest arrival any of them waits for. The loop never touches the
    // clock — the stall (and the charge-order discipline around it) lives
    // here in the driver.
    if (turn->stall_until == kSimTimeNever) {
      return Status::Internal("multi-query mix cannot make progress");
    }
    ctx.clock.StallUntil(turn->stall_until);
  }

  MultiQueryMetrics out;
  out.makespan = ctx.clock.now();
  SimDuration sum = 0;
  for (int qi = 0; qi < nq; ++qi) {
    const exec::ResultCollector& result = loop.result(qi);
    if (config_.verify_results) {
      DQS_RETURN_IF_ERROR(queries_[static_cast<size_t>(qi)].prepared.Verify(
          result.count(), result.checksum().value(),
          "shared query " + std::to_string(qi)));
    }
    out.response_times.push_back(loop.done_at(qi));
    out.statuses.push_back(QueryStatus::kOk);
    sum += loop.done_at(qi);
    out.total_degradations += loop.degradations(qi);
    out.total_result_tuples += result.count();
  }
  out.mean_response = sum / static_cast<SimDuration>(nq);
  out.peak_memory_bytes = ctx.memory.peak();
  // Shared-device aggregates come from the one shared context.
  out.disk = ctx.disk.stats();
  out.network = ctx.net.stats();
  out.temps = ctx.temps.stats();
  out.fault.sources_suspected = ctx.comm.fault_suspicions();
  out.fault.sources_dead = ctx.comm.fault_declared_dead();
  out.fault.recoveries = ctx.comm.fault_recoveries();
  if (cache != nullptr) out.cache = cache->stats();
  return out;
}

void MultiQueryMediator::ResetCache() const {
  if (cache_ != nullptr) cache_->Clear();
}

void MultiQueryMediator::BumpCacheVersion(int64_t logical_key) const {
  if (cache_ != nullptr) cache_->BumpVersion(logical_key);
}

}  // namespace dqsched::core
