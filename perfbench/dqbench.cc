// dqbench: the repository benchmark program (see README.md beside this file).
//
//   dqbench --workload <paper_sweep|fleet_recurring|multi_query_mix>
//           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// One process runs one workload. It prepares it through the Create calls
// of Mediator, MultiQueryMediator or FleetExecutor (timed as setup_s from
// process start), derives every distinct query's expected answer with its
// own plain join, runs one unmeasured warm-up pass, then repeats whole
// passes for --seconds and reports each Execute call's fastest run. Every
// execution of every pass is checked; the virtual outcomes of every pass
// must equal the warm-up pass's exactly. The last stdout line is one JSON
// object. --trace 1 additionally records a span around every timed call
// into the program, prints the per-layer metrics instead of the end-to-end
// ones, and writes the spans (Chrome trace-event JSON) and a per-layer
// self-time summary to --out.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/comm_manager.h"
#include "common/random.h"
#include "core/fleet_executor.h"
#include "core/mediator.h"
#include "core/multi_query.h"
#include "exec/hash_index.h"
#include "plan/canonical_plans.h"
#include "plan/compiled_plan.h"
#include "plan/reference_executor.h"
#include "storage/relation.h"
#include "wrapper/wrapper.h"

namespace {

using namespace dqsched;
using Clock = std::chrono::steady_clock;

// Initialised before main runs: setup_s counts from here.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---- Spans ----------------------------------------------------------------

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "core.execute_dse"
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
};

struct Tracer {
  bool enabled = false;
  std::vector<Span> spans;
  int open = -1;
};

Tracer g_trace;

// Times one call into a layer: a span when tracing is on, nothing otherwise.
class Scope {
 public:
  explicit Scope(const char* name) {
    if (!g_trace.enabled) return;
    index_ = static_cast<int>(g_trace.spans.size());
    g_trace.spans.push_back({name, SecondsSince(kProcessStart), 0, g_trace.open});
    g_trace.open = index_;
  }
  ~Scope() {
    if (index_ < 0) return;
    Span& s = g_trace.spans[static_cast<size_t>(index_)];
    s.end_s = SecondsSince(kProcessStart);
    g_trace.open = s.parent;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_ = -1;
};

// ---- Failed checks --------------------------------------------------------

struct CheckFailure {
  std::string what;
};

void Require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure{what};
}

template <typename T>
T Take(Result<T> r, const std::string& what) {
  Require(r.ok(), what + ": " + (r.ok() ? "" : r.status().ToString()));
  return std::move(r.value());
}

// ---- Expected answers -----------------------------------------------------

// The engines derive each relation's generator seed from the config seed.
// These mirror core/mediator.cc (SourceSeed) and core/multi_query.cc /
// core/fleet_executor.cc (MixSeed); a change there shows here as a failed
// count or checksum check.
uint64_t MediatorDataSeed(uint64_t seed, SourceId s) {
  return storage::Mix64(seed ^ (static_cast<uint64_t>(s) + 1) *
                                   0x9e3779b97f4a7c15ULL);
}

uint64_t MixSeed(uint64_t base, uint64_t a, uint64_t b) {
  return storage::Mix64(base ^ (a + 1) * 0x9e3779b97f4a7c15ULL ^
                        (b + 1) * 0xc2b2ae3d27d4eb4fULL);
}

// One distinct query: its setup and how its data is generated.
struct DistinctQuery {
  plan::QuerySetup setup;
  SourceId rowid_base = 0;              // source id tagged into the rowids
  std::vector<uint64_t> source_seeds;   // generator seed per source
};

struct Expected {
  int64_t count = 0;
  uint64_t checksum = 0;
  int64_t source_tuples = 0;  // Σ source cardinalities
};

using Tuples = std::vector<storage::Tuple>;

// The benchmark's own join: a plain hash multimap per join node, sharing
// no code with the executor or the reference oracle. On the way it times
// exec::HashIndex build and probe over the same join inputs and checks
// that the index finds the same number of matches.
Tuples PlainJoin(const plan::Plan& plan, NodeId id,
                 const std::vector<storage::Relation>& data) {
  const plan::PlanNode& node = plan.node(id);
  if (node.type == plan::OpType::kScan) {
    return data[static_cast<size_t>(node.source)].tuples;
  }
  Require(node.type == plan::OpType::kHashJoin,
          "plain join supports scans and hash joins only");
  const Tuples build = PlainJoin(plan, node.build, data);
  const Tuples probe = PlainJoin(plan, node.probe, data);

  std::unordered_map<int64_t, std::vector<uint64_t>> by_key;
  for (const storage::Tuple& t : build) {
    by_key[t.keys[node.build_key_field]].push_back(t.rowid);
  }
  Tuples out;
  for (const storage::Tuple& t : probe) {
    auto it = by_key.find(t.keys[node.probe_key_field]);
    if (it == by_key.end()) continue;
    for (uint64_t rowid : it->second) {
      storage::Tuple r = t;
      r.rowid = storage::CombineRowid(rowid, t.rowid);
      out.push_back(r);
    }
  }

  int64_t matches = 0;
  if (!build.empty()) {
    exec::HashIndex index;
    {
      Scope s("exec.hash_build");
      index.Build(build, node.build_key_field);
    }
    Scope s("exec.hash_probe");
    for (const storage::Tuple& t : probe) {
      const int64_t key = t.keys[node.probe_key_field];
      const uint64_t pos = index.FindFirstMatchFrom(index.HomeSlot(key), key);
      if (pos != exec::HashIndex::kNoMatch) matches += index.MatchCountAt(pos);
    }
  }
  Require(matches == static_cast<int64_t>(out.size()),
          "HashIndex match count differs from the plain join");
  return out;
}

// Pumps every source relation through a CommManager + SimWrapper and
// drains it; returns the tuples popped.
int64_t DrainSources(const wrapper::Catalog& catalog,
                     const std::vector<storage::Relation>& data) {
  Scope s("comm.transport");
  comm::CommManager cm{comm::CommConfig{}};
  for (SourceId src = 0; src < catalog.num_sources(); ++src) {
    cm.AddSource(std::make_unique<wrapper::SimWrapper>(
                     src, &data[static_cast<size_t>(src)],
                     catalog.source(src).delay, 1 + static_cast<uint64_t>(src)),
                 static_cast<double>(sim::CostModel{}.MinWaitingTime()));
  }
  std::vector<storage::Tuple> buf(1024);
  int64_t popped = 0;
  SimTime now = 0;
  for (;;) {
    SimTime next = kSimTimeNever;
    bool done = true;
    for (SourceId src = 0; src < catalog.num_sources(); ++src) {
      popped += cm.Pop(src, now, buf.data(), static_cast<int64_t>(buf.size()));
      if (!cm.SourceExhausted(src)) {
        done = false;
        next = std::min(next, cm.NextArrival(src));
      }
    }
    if (done) return popped;
    if (next != kSimTimeNever) now = std::max(now, next);
  }
}

// Generates the query's data, joins it plainly, and checks the reference
// oracle against that join. Every layer call is timed.
Expected DeriveExpected(const DistinctQuery& q) {
  const wrapper::Catalog& catalog = q.setup.catalog;
  std::vector<storage::Relation> data;
  Expected e;
  {
    Scope s("storage.generate");
    for (SourceId src = 0; src < catalog.num_sources(); ++src) {
      data.push_back(storage::GenerateRelation(
          catalog.source(src).relation, q.rowid_base + src,
          Rng(q.source_seeds[static_cast<size_t>(src)])));
    }
  }
  for (const storage::Relation& r : data) e.source_tuples += r.cardinality();

  Tuples result;
  {
    Scope s("bench.plain_join");
    result = PlainJoin(q.setup.plan, q.setup.plan.root(), data);
  }
  storage::ResultChecksum checksum;
  for (const storage::Tuple& t : result) checksum.Add(t);
  e.count = static_cast<int64_t>(result.size());
  e.checksum = checksum.value();

  plan::CompiledPlan compiled;
  {
    Scope s("plan.compile");
    compiled = Take(plan::Compile(q.setup.plan, catalog), "compile");
    const Status annotated =
        plan::Annotate(&compiled, catalog, sim::CostModel{});
    Require(annotated.ok(), "annotate: " + annotated.ToString());
  }
  plan::ReferenceResult ref;
  {
    Scope s("plan.reference");
    ref = plan::ExecuteReference(compiled, data);
  }
  Require(ref.result_card == e.count && ref.checksum.value() == e.checksum,
          "reference oracle disagrees with the plain join");
  Require(DrainSources(catalog, data) == e.source_tuples,
          "transport lost or duplicated tuples");
  return e;
}

// ---- What one pass observed ----------------------------------------------

// Virtual outcomes are deterministic per seed: every pass must reproduce
// the warm-up pass's `fingerprint` exactly. Host-side figures (`queries`,
// `dqs_plan_s`) are the only fields that may differ.
struct PassOutcome {
  int64_t queries = 0;
  double seq_makespan_s = 0;
  double dse_makespan_s = 0;
  std::vector<SimDuration> dse_latencies;
  std::map<std::string, double> counters;  // per-layer virtual counters
  std::vector<int64_t> fingerprint;
  double dqs_plan_s = 0;
  // Host seconds of each engine Execute call, in pass order.
  std::vector<double> execute_s;

  void Mark(const std::vector<int64_t>& values) {
    fingerprint.insert(fingerprint.end(), values.begin(), values.end());
  }
  void AddDse(const core::ExecutionMetrics& m) {
    counters["core.planning_phases"] += m.planning_phases;
    counters["core.execution_phases"] += m.execution_phases;
    counters["comm.rate_change_events"] += m.rate_change_events;
    counters["core.degradations"] += m.degradations;
    counters["core.cf_activations"] += m.cf_activations;
    counters["core.dqo_splits"] += m.dqo_splits;
    counters["core.operand_spills"] += m.operand_spills;
    counters["core.timeouts"] += m.timeouts;
    dqs_plan_s += m.planning_host_seconds;
  }
  void AddDevices(SimDuration busy, SimDuration stalled, int64_t peak_bytes,
                  const sim::DiskStats& disk,
                  const storage::TempStoreStats& temps) {
    counters["core.busy_s"] += ToSecondsF(busy);
    counters["core.stalled_s"] += ToSecondsF(stalled);
    double& peak = counters["core.peak_memory_mb"];
    peak = std::max(peak, static_cast<double>(peak_bytes) / (1 << 20));
    counters["sim.disk_pages_read"] += disk.pages_read;
    counters["sim.disk_pages_written"] += disk.pages_written;
    counters["sim.disk_positionings"] += disk.positionings;
    counters["storage.temp_tuples_written"] += temps.tuples_written;
  }
  void AddCache(const core::CacheStats& c) {
    counters["core.cache_hits"] += c.segment_hits + c.result_hits;
    counters["core.cache_misses"] += c.segment_misses + c.result_misses;
    counters["core.cache_admitted"] += c.admitted_segments + c.admitted_results;
    counters["core.cache_stale"] += c.stale_invalidations;
    counters["core.cache_evictions"] += c.evictions;
  }
};

const char* ExecuteSpan(core::StrategyKind kind) {
  switch (kind) {
    case core::StrategyKind::kSeq:
      return "core.execute_seq";
    case core::StrategyKind::kDse:
      return "core.execute_dse";
    case core::StrategyKind::kMa:
      return "core.execute_ma";
  }
  return "core.execute";
}

// Runs one engine Execute call under its span and records its host time.
template <typename Fn>
auto TimedExecute(core::StrategyKind kind, PassOutcome* out, Fn&& execute) {
  Scope s(ExecuteSpan(kind));
  const Clock::time_point t0 = Clock::now();
  auto result = execute();
  out->execute_s.push_back(SecondsSince(t0));
  return result;
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the inputs from `seed` and calls the engines' Create.
  virtual void Setup(uint64_t seed) = 0;
  // Derives the expected answers (after setup_s is taken).
  virtual void Derive() = 0;
  // One whole pass over the workload, every answer checked. `jobs` is
  // the host thread count where the engine takes one.
  virtual PassOutcome Pass(int jobs) = 0;
};

// ---- paper_sweep ----------------------------------------------------------

// The paper's Figure 5 query under the Figure 6/7 slowdowns, the delay
// types and tight memory budgets, each point under SEQ, DSE and MA.
class PaperSweep : public Workload {
 public:
  static constexpr double kScale = 0.1;
  static constexpr int kInstances = 5;  // data instances per sweep point

  void Setup(uint64_t seed) override {
    const plan::QuerySetup base = plan::PaperFigure5Query(kScale);
    std::vector<std::pair<plan::QuerySetup, int64_t>> points;  // (setup, budget)
    const int64_t ample = core::MediatorConfig{}.memory_budget_bytes;
    points.emplace_back(base, ample);
    for (const char* rel : {"A", "F"}) {  // Figures 6 and 7
      for (double total_s = 2; total_s <= 10; total_s += 2) {
        points.emplace_back(Slowed(base, rel, total_s * kScale), ample);
      }
    }
    for (wrapper::DelayKind kind :
         {wrapper::DelayKind::kInitial, wrapper::DelayKind::kBursty,
          wrapper::DelayKind::kSlow}) {
      plan::QuerySetup q = base;
      wrapper::DelayConfig& d = q.catalog.sources[0].delay;
      d.kind = kind;
      d.initial_delay_ms = 2000.0 * kScale;
      d.burst_length = static_cast<int64_t>(4000 * kScale);
      d.burst_gap_ms = 200.0 * kScale;
      d.slow_factor = 4.0;
      points.emplace_back(q, ample);
    }
    // The operand of join 4 alone needs ~1.07 MB at this scale: 1.09 MB
    // makes DSE spill it, 1.2 MB makes SEQ spill, 1.6 MB leaves only
    // DSE's degradation temps.
    for (double mb : {1.09, 1.2, 1.6}) {
      const auto bytes = static_cast<int64_t>(mb * (1 << 20));
      points.emplace_back(base, bytes);
      points.emplace_back(Slowed(base, "A", 6 * kScale), bytes);
    }

    for (int i = 0; i < kInstances; ++i) {
      const uint64_t instance_seed = MixSeed(seed, 0x5EE9, i);
      DistinctQuery dq{base, 0, {}};
      for (SourceId s = 0; s < base.catalog.num_sources(); ++s) {
        dq.source_seeds.push_back(MediatorDataSeed(instance_seed, s));
      }
      distinct_.push_back(std::move(dq));
      for (const auto& [setup, budget] : points) {
        core::MediatorConfig config;
        config.seed = instance_seed;
        config.memory_budget_bytes = budget;
        Scope s("core.create");
        mediators_.push_back(Take(
            core::Mediator::Create(setup.catalog, setup.plan, config),
            "Mediator::Create"));
        instance_.push_back(i);
      }
    }
  }

  void Derive() override {
    for (const DistinctQuery& q : distinct_) expected_.push_back(DeriveExpected(q));
    for (const core::Mediator& m : mediators_) {
      lwb_.push_back(m.LowerBound().bound());
    }
  }

  PassOutcome Pass(int /*jobs*/) override {
    PassOutcome out;
    for (size_t p = 0; p < mediators_.size(); ++p) {
      const Expected& e = expected_[static_cast<size_t>(instance_[p])];
      for (core::StrategyKind kind :
           {core::StrategyKind::kSeq, core::StrategyKind::kDse,
            core::StrategyKind::kMa}) {
        const std::string label = std::string(core::StrategyName(kind)) +
                                  " point " + std::to_string(p);
        const core::ExecutionMetrics m = Take(
            TimedExecute(kind, &out, [&] { return mediators_[p].Execute(kind); }),
            label);
        Require(m.result_count == e.count && m.result_checksum == e.checksum,
                label + ": wrong answer");
        Require(m.busy_time + m.stalled_time == m.response_time,
                label + ": busy + stalled != response time");
        Require(m.response_time >= lwb_[p], label + ": below the LWB");
        Require(!m.fault.partial_result &&
                    m.network.tuples_received == e.source_tuples,
                label + ": tuples received != source cardinalities");
        ++out.queries;
        out.Mark({m.response_time, m.busy_time, m.stalled_time,
                  m.planning_phases, m.degradations, m.operand_spills,
                  m.peak_memory_bytes, m.disk.pages_written,
                  m.temps.tuples_written});
        if (kind == core::StrategyKind::kSeq) {
          out.seq_makespan_s += ToSecondsF(m.response_time);
        } else if (kind == core::StrategyKind::kDse) {
          out.dse_makespan_s += ToSecondsF(m.response_time);
          out.dse_latencies.push_back(m.response_time);
          out.AddDse(m);
          out.AddDevices(m.busy_time, m.stalled_time, m.peak_memory_bytes,
                         m.disk, m.temps);
          out.AddCache(m.cache);
        }
      }
    }
    return out;
  }

 private:
  // `rel` slowed so that retrieving it takes `total_s` virtual seconds.
  static plan::QuerySetup Slowed(const plan::QuerySetup& base,
                                 const char* rel, double total_s) {
    plan::QuerySetup q = base;
    wrapper::SourceSpec& src = q.catalog.source(q.catalog.Find(rel));
    src.delay.mean_us =
        total_s * 1e6 / static_cast<double>(src.relation.cardinality);
    return q;
  }

  std::vector<DistinctQuery> distinct_;
  std::vector<Expected> expected_;
  std::vector<core::Mediator> mediators_;
  std::vector<int> instance_;  // per mediator: its data instance
  std::vector<SimDuration> lwb_;
};

// ---- multi_query_mix ------------------------------------------------------

// Mixes of paper-shaped queries on one MultiQueryMediator each, run in
// serial and in shared mode under SEQ and DSE.
class MultiQueryMix : public Workload {
 public:
  static constexpr double kScale = 0.05;
  static constexpr int kMixes = 2;
  static constexpr int kQueries = 32;  // per mix

  void Setup(uint64_t seed) override {
    for (int m = 0; m < kMixes; ++m) {
      core::MultiQueryConfig config;
      config.seed = MixSeed(seed, 0x3171, m);
      std::vector<plan::QuerySetup> mix;
      SourceId offset = 0;
      for (int q = 0; q < kQueries; ++q) {
        // Every fourth query waits on a slow A, every fourth on a slow F.
        plan::QuerySetup setup = plan::PaperFigure5Query(kScale);
        if (q % 4 == 1 || q % 4 == 3) {
          setup.catalog.source(setup.catalog.Find(q % 4 == 1 ? "A" : "F"))
              .delay.mean_us *= 3.0;
        }
        DistinctQuery dq{setup, offset, {}};
        for (SourceId s = 0; s < setup.catalog.num_sources(); ++s) {
          dq.source_seeds.push_back(MixSeed(config.seed, q, s));
        }
        offset += setup.catalog.num_sources();
        distinct_.push_back(std::move(dq));
        mix.push_back(std::move(setup));
      }
      Scope s("core.create");
      mediators_.push_back(Take(
          core::MultiQueryMediator::Create(std::move(mix), config),
          "MultiQueryMediator::Create"));
    }
  }

  void Derive() override {
    for (const DistinctQuery& q : distinct_) expected_.push_back(DeriveExpected(q));
  }

  PassOutcome Pass(int /*jobs*/) override {
    PassOutcome out;
    for (int mix = 0; mix < kMixes; ++mix) {
      int64_t count = 0;
      int64_t source_tuples = 0;
      for (int q = 0; q < kQueries; ++q) {
        const Expected& e = expected_[static_cast<size_t>(mix * kQueries + q)];
        count += e.count;
        source_tuples += e.source_tuples;
      }
      for (core::MultiMode mode :
           {core::MultiMode::kSerial, core::MultiMode::kShared}) {
        for (core::StrategyKind kind :
             {core::StrategyKind::kSeq, core::StrategyKind::kDse}) {
          const std::string label = std::string(core::MultiModeName(mode)) +
                                    " " + core::StrategyName(kind) + " mix " +
                                    std::to_string(mix);
          const core::MultiQueryMetrics m = Take(
              TimedExecute(kind, &out,
                           [&] {
                             return mediators_[static_cast<size_t>(mix)]
                                 .Execute(kind, mode);
                           }),
              label);
          // Per-query answers are checked inside the mediator against its
          // reference; the mix total is checked against the plain joins.
          Require(m.total_result_tuples == count, label + ": wrong answers");
          Require(m.network.tuples_received == source_tuples,
                  label + ": tuples received != source cardinalities");
          Require(static_cast<int>(m.statuses.size()) == kQueries &&
                      std::all_of(m.statuses.begin(), m.statuses.end(),
                                  [](core::QueryStatus s) {
                                    return s == core::QueryStatus::kOk;
                                  }),
                  label + ": a query did not end ok");
          out.queries += kQueries;
          out.Mark({m.makespan, m.mean_response, m.total_degradations,
                    m.peak_memory_bytes, m.disk.pages_written,
                    m.temps.tuples_written});
          out.Mark(m.response_times);
          if (kind == core::StrategyKind::kSeq) {
            out.seq_makespan_s += ToSecondsF(m.makespan);
            continue;
          }
          out.dse_makespan_s += ToSecondsF(m.makespan);
          out.dse_latencies.insert(out.dse_latencies.end(),
                                   m.response_times.begin(),
                                   m.response_times.end());
          out.counters["core.degradations"] += m.total_degradations;
          // The multi-query modes report no busy or stalled time.
          out.AddDevices(0, 0, m.peak_memory_bytes, m.disk, m.temps);
          out.AddCache(m.cache);
        }
      }
    }
    return out;
  }

 private:
  std::vector<DistinctQuery> distinct_;
  std::vector<Expected> expected_;
  std::vector<core::MultiQueryMediator> mediators_;
};

// ---- fleet_recurring ------------------------------------------------------

// An open-loop Poisson stream of a skewed three-template mix on an
// 8-shard fleet under a tight broker budget, served cold and then warm
// from the result cache after one source's data version is bumped.
class FleetRecurring : public Workload {
 public:
  static constexpr double kScale = 0.05;
  static constexpr int kQueries = 120;
  // The 60/25/15 mix of bench_fleet as a fixed pattern over stream
  // positions: with the default config seed fixing data and shard
  // placement, every shard serves the same template mix for every seed.
  static int TemplateOf(int uid) {
    const int r = uid * 7 % 20;
    return r < 12 ? 0 : (r < 17 ? 1 : 2);
  }
  static constexpr double kMeanInterarrivalS = 0.002;
  static constexpr int64_t kBudgetBytes = 12800 * 1024;  // 12.5 MB
  static constexpr int64_t kBumpedSource = 0;  // template 0's A

  void Setup(uint64_t seed) override {
    std::vector<plan::QuerySetup> templates;
    templates.push_back(plan::PaperFigure5Query(kScale));
    for (const char* slowed : {"A", "F"}) {
      plan::QuerySetup t = plan::PaperFigure5Query(kScale);
      t.catalog.source(t.catalog.Find(slowed)).delay.mean_us *= 3.0;
      templates.push_back(std::move(t));
    }
    // --seed draws the arrival times only; see TemplateOf.
    core::FleetConfig config;
    config.num_shards = 8;
    config.memory_budget_bytes = kBudgetBytes;
    config.cache.enabled = true;
    for (size_t t = 0; t < templates.size(); ++t) {
      DistinctQuery dq{templates[t], 0, {}};
      for (SourceId s = 0; s < templates[t].catalog.num_sources(); ++s) {
        dq.source_seeds.push_back(MixSeed(config.seed, 0x7E3D + t, s));
      }
      distinct_.push_back(std::move(dq));
    }

    Rng stream(MixSeed(seed, 0x57E4, 0));
    std::vector<core::FleetQuerySpec> workload;
    SimTime at = 0;
    for (int uid = 0; uid < kQueries; ++uid) {
      at += Seconds(stream.Exponential(kMeanInterarrivalS));
      core::FleetQuerySpec spec;
      spec.template_idx = TemplateOf(uid);
      spec.arrival = at;
      spec.fairness = spec.template_idx == 0 ? core::FairnessClass::kInteractive
                                             : core::FairnessClass::kBatch;
      workload.push_back(spec);
    }
    Scope s("core.create");
    fleet_ = std::make_unique<core::FleetExecutor>(
        Take(core::FleetExecutor::Create(std::move(templates),
                                         std::move(workload), config),
             "FleetExecutor::Create"));
  }

  void Derive() override {
    for (const DistinctQuery& q : distinct_) expected_.push_back(DeriveExpected(q));
  }

  PassOutcome Pass(int jobs) override {
    PassOutcome out;
    int64_t warm_hits = 0;
    for (core::StrategyKind kind :
         {core::StrategyKind::kSeq, core::StrategyKind::kDse}) {
      fleet_->ResetCache();
      const core::FleetMetrics cold = Execute(kind, jobs, "cold", &out);
      int64_t received = 0;
      int64_t expected_received = 0;
      for (const core::FleetShardOutcome& s : cold.shards) {
        received += s.network.tuples_received;
      }
      for (const core::FleetQueryOutcome& q : cold.queries) {
        expected_received +=
            expected_[static_cast<size_t>(q.template_idx)].source_tuples;
      }
      Require(received == expected_received,
              "cold pass: tuples received != source cardinalities");
      fleet_->BumpCacheVersion(kBumpedSource);
      const core::FleetMetrics warm = Execute(kind, jobs, "warm", &out);
      for (size_t i = 0; i < warm.queries.size(); ++i) {
        Require(warm.queries[i].metrics.result_count ==
                        cold.queries[i].metrics.result_count &&
                    warm.queries[i].metrics.result_checksum ==
                        cold.queries[i].metrics.result_checksum,
                "warm answer differs from cold for query " + std::to_string(i));
      }
      warm_hits += warm.cache.segment_hits + warm.cache.result_hits;
    }
    Require(warm_hits > 0, "warm passes recorded no cache hits");
    return out;
  }

 private:
  core::FleetMetrics Execute(core::StrategyKind kind, int jobs,
                             const char* pass, PassOutcome* out) {
    const std::string label =
        std::string(core::StrategyName(kind)) + " " + pass;
    core::FleetMetrics m = Take(
        TimedExecute(kind, out, [&] { return fleet_->Execute(kind, jobs); }),
        label);
    Require(static_cast<int>(m.queries.size()) == kQueries,
            label + ": query count");
    Require(m.broker.grants_issued == m.broker.releases_applied,
            label + ": broker grants != releases");
    for (const core::FleetQueryOutcome& q : m.queries) {
      const Expected& e = expected_[static_cast<size_t>(q.template_idx)];
      const std::string ql = label + " query " + std::to_string(q.uid);
      Require(q.status == core::QueryStatus::kOk, ql + ": not ok");
      Require(q.arrival <= q.admitted && q.admitted <= q.joined &&
                  q.joined <= q.completed,
              ql + ": arrival <= admitted <= joined <= completed violated");
      Require(q.metrics.result_count == e.count &&
                  q.metrics.result_checksum == e.checksum,
              ql + ": wrong answer");
      out->Mark({q.shard, q.admitted, q.joined, q.completed,
                 q.metrics.result_count,
                 static_cast<int64_t>(q.metrics.result_checksum),
                 q.metrics.planning_phases, q.metrics.degradations});
      if (kind == core::StrategyKind::kDse) {
        out->dse_latencies.push_back(q.completion_latency);
        out->AddDse(q.metrics);
      }
    }
    out->Mark({m.makespan, m.rounds, m.broker.queued_admissions,
               m.broker.forced_admissions, m.cache.segment_hits,
               m.cache.result_hits, m.cache.evictions});
    out->queries += kQueries;
    out->AddCache(m.cache);
    out->counters["core.broker_rounds"] += m.rounds;
    out->counters["core.broker_queued"] += m.broker.queued_admissions;
    out->counters["core.broker_forced"] += m.broker.forced_admissions;
    if (kind == core::StrategyKind::kSeq) {
      out->seq_makespan_s += ToSecondsF(m.makespan);
    } else {
      out->dse_makespan_s += ToSecondsF(m.makespan);
      for (const core::FleetShardOutcome& s : m.shards) {
        out->AddDevices(s.busy_time, s.stalled_time, s.peak_memory_bytes,
                        s.disk, s.temps);
      }
    }
    return m;
  }

  std::vector<DistinctQuery> distinct_;
  std::vector<Expected> expected_;
  std::unique_ptr<core::FleetExecutor> fleet_;
};

// ---- Reporting ------------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest rank, as bench_common's SummarizeLatencies.
double PercentileS(std::vector<SimDuration> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return ToSecondsF(v[std::max<size_t>(rank, 1) - 1]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (const Metric& m : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                  s.size() > 1 ? ", " : "", m.name.c_str(), m.value, m.unit);
    s += buf;
  }
  return s + "}";
}

// Σ duration of spans named `name` whose parent is named `parent` (any
// parent when empty).
double SpanSeconds(const std::string& name, const std::string& parent = "") {
  double total = 0;
  for (const Span& s : g_trace.spans) {
    if (s.name != name) continue;
    if (!parent.empty() &&
        (s.parent < 0 ||
         g_trace.spans[static_cast<size_t>(s.parent)].name != parent)) {
      continue;
    }
    total += s.end_s - s.start_s;
  }
  return total;
}

// Chrome trace-event JSON: the workload is one process, each layer (the
// span name's prefix) one thread.
void WriteChromeTrace(const std::string& path, const std::string& workload) {
  FILE* f = std::fopen(path.c_str(), "w");
  Require(f != nullptr, "cannot write " + path);
  auto layer_of = [](const Span& s) { return s.name.substr(0, s.name.find('.')); };
  std::map<std::string, int> layer_tid;
  for (const Span& s : g_trace.spans) layer_tid.emplace(layer_of(s), 0);
  int tid = 0;
  for (auto& [layer, id] : layer_tid) id = ++tid;
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"%s\"}}",
               workload.c_str());
  for (const auto& [layer, id] : layer_tid) {
    std::fprintf(f,
                 ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                 id, layer.c_str());
  }
  for (size_t i = 0; i < g_trace.spans.size(); ++i) {
    const Span& s = g_trace.spans[i];
    const std::string layer = layer_of(s);
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"workload\": \"%s\"}}",
                 s.name.c_str(), layer.c_str(), layer_tid[layer],
                 s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent,
                 workload.c_str());
  }
  std::fprintf(f, "\n]}\n");
  Require(std::fclose(f) == 0, "cannot write " + path);
}

// Per span name: calls, total and self time (duration minus the time its
// child spans cover).
void WriteLayerSummary(const std::string& path, const std::string& workload,
                       double traced_host_qps) {
  struct Row {
    int64_t calls = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child_s(g_trace.spans.size(), 0.0);
  for (const Span& s : g_trace.spans) {
    if (s.parent >= 0) child_s[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
  }
  for (size_t i = 0; i < g_trace.spans.size(); ++i) {
    const Span& s = g_trace.spans[i];
    Row& r = rows[s.name];
    ++r.calls;
    r.total_s += s.end_s - s.start_s;
    r.self_s += s.end_s - s.start_s - child_s[i];
  }
  FILE* f = std::fopen(path.c_str(), "w");
  Require(f != nullptr, "cannot write " + path);
  std::fprintf(f, "{\"workload\": \"%s\", \"traced_host_qps\": %.6g, \"spans\": {",
               workload.c_str(), traced_host_qps);
  bool first = true;
  for (const auto& [name, r] : rows) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"calls\": %lld, \"total_s\": %.6g, "
                 "\"self_s\": %.6g}",
                 first ? "" : ",", name.c_str(), static_cast<long long>(r.calls),
                 r.total_s, r.self_s);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  Require(std::fclose(f) == 0, "cannot write " + path);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: dqbench --workload <paper_sweep|fleet_recurring|"
               "multi_query_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir = ".";
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (seconds < 0 || trace < 0) Usage("--seconds and --trace are required");

  std::unique_ptr<Workload> workload;
  int jobs = 1;
  if (workload_name == "paper_sweep") {
    workload = std::make_unique<PaperSweep>();
  } else if (workload_name == "multi_query_mix") {
    workload = std::make_unique<MultiQueryMix>();
  } else if (workload_name == "fleet_recurring") {
    workload = std::make_unique<FleetRecurring>();
    jobs = 2;
  } else {
    Usage("unknown --workload");
  }
  g_trace.enabled = trace == 1;

  int64_t attempted = 0;
  try {
    double setup_s = 0;
    {
      Scope s("bench.setup");
      workload->Setup(seed);
      setup_s = SecondsSince(kProcessStart);
    }
    {
      Scope s("bench.derive");
      workload->Derive();
    }
    PassOutcome first;
    {
      Scope s("bench.warmup");
      first = workload->Pass(jobs);
    }
    attempted += first.queries;
    // Taken here, not at the end, so the figure does not depend on how
    // many passes fit in --seconds.
    const double peak_rss_mb = PeakRssMb();

    // Host time of a pass: the sum, over its Execute calls, of each call's
    // fastest run across the measured passes. Contention from other work
    // on the machine only ever adds time, and it comes in bursts shorter
    // than a run, so the per-call minimum filters it out.
    std::vector<double> pass_s;
    std::vector<double> best_execute_s;
    std::vector<double> dqs_plan_s;
    const Clock::time_point measure_start = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      PassOutcome pass;
      {
        Scope s("bench.pass");
        pass = workload->Pass(jobs);
      }
      pass_s.push_back(SecondsSince(t0));
      dqs_plan_s.push_back(pass.dqs_plan_s);
      attempted += pass.queries;
      Require(pass.fingerprint == first.fingerprint,
              "virtual outcomes differ between passes");
      if (best_execute_s.empty()) best_execute_s = pass.execute_s;
      for (size_t i = 0; i < best_execute_s.size(); ++i) {
        best_execute_s[i] = std::min(best_execute_s[i], pass.execute_s[i]);
      }
    } while (SecondsSince(measure_start) < seconds);
    double best_pass_s = 0;
    for (double t : best_execute_s) best_pass_s += t;
    const double host_qps = static_cast<double>(first.queries) / best_pass_s;

    std::string pass_list;
    for (double t : pass_s) pass_list += " " + std::to_string(t);
    std::fprintf(stderr,
                 "%s seed=%llu: %zu passes of %lld queries, best %.6f s, "
                 "median %.6f s, peak RSS %.1f MB, wall s:%s\n",
                 workload_name.c_str(), static_cast<unsigned long long>(seed),
                 pass_s.size(), static_cast<long long>(first.queries),
                 best_pass_s, Median(pass_s), PeakRssMb(), pass_list.c_str());

    std::vector<Metric> metrics;
    if (!g_trace.enabled) {
      metrics = {
          {"setup_s", setup_s, "s"},
          {"host_qps", host_qps, "queries/s"},
          {"peak_rss_mb", peak_rss_mb, "MB"},
          {"sim_dse_makespan_s", first.dse_makespan_s, "s"},
          {"sim_seq_makespan_s", first.seq_makespan_s, "s"},
          {"sim_dse_latency_p50_s", PercentileS(first.dse_latencies, 0.5), "s"},
          {"sim_dse_latency_p90_s", PercentileS(first.dse_latencies, 0.9), "s"},
      };
    } else {
      double fleet_1thread_s = 0;
      if (jobs > 1) {
        // The same pass on one host thread: virtual outcomes must not move.
        const Clock::time_point t0 = Clock::now();
        PassOutcome one;
        {
          Scope s("bench.pass_1thread");
          one = workload->Pass(1);
        }
        fleet_1thread_s = SecondsSince(t0);
        attempted += one.queries;
        Require(one.fingerprint == first.fingerprint,
                "1-thread virtual outcomes differ from 2 threads");
      }
      const auto passes = static_cast<double>(pass_s.size());
      metrics = {
          {"storage.generate_s", SpanSeconds("storage.generate"), "s"},
          {"plan.compile_s", SpanSeconds("plan.compile"), "s"},
          {"plan.reference_s", SpanSeconds("plan.reference"), "s"},
          {"comm.transport_s", SpanSeconds("comm.transport"), "s"},
          {"exec.hash_build_s", SpanSeconds("exec.hash_build"), "s"},
          {"exec.hash_probe_s", SpanSeconds("exec.hash_probe"), "s"},
          {"core.execute_seq_s",
           SpanSeconds("core.execute_seq", "bench.pass") / passes, "s"},
          {"core.execute_dse_s",
           SpanSeconds("core.execute_dse", "bench.pass") / passes, "s"},
          {"core.execute_ma_s",
           SpanSeconds("core.execute_ma", "bench.pass") / passes, "s"},
          {"core.dqs_plan_s", Median(dqs_plan_s), "s"},
          {"core.fleet_1thread_s", fleet_1thread_s, "s"},
      };
      for (const char* name :
           {"core.planning_phases", "core.execution_phases",
            "comm.rate_change_events", "core.degradations",
            "core.cf_activations", "core.dqo_splits", "core.operand_spills",
            "core.timeouts", "sim.disk_pages_read", "sim.disk_pages_written",
            "sim.disk_positionings", "storage.temp_tuples_written",
            "core.broker_rounds", "core.broker_queued", "core.broker_forced",
            "core.cache_hits", "core.cache_misses", "core.cache_admitted",
            "core.cache_stale", "core.cache_evictions"}) {
        metrics.push_back({name, first.counters[name], "count"});
      }
      metrics.push_back({"core.busy_s", first.counters["core.busy_s"], "s"});
      metrics.push_back(
          {"core.stalled_s", first.counters["core.stalled_s"], "s"});
      metrics.push_back(
          {"core.peak_memory_mb", first.counters["core.peak_memory_mb"], "MB"});
      const std::string stem =
          out_dir + "/" + workload_name + "-seed" + std::to_string(seed);
      WriteChromeTrace(stem + ".trace.json", workload_name);
      WriteLayerSummary(stem + ".layers.json", workload_name, host_qps);
    }
    std::printf(
        "{\"correct\": true, \"attempted\": %lld, \"failed\": 0, "
        "\"metrics\": %s}\n",
        static_cast<long long>(attempted), MetricsJson(metrics).c_str());
    return 0;
  } catch (const CheckFailure& failure) {
    std::fprintf(stderr, "check failed: %s\n", failure.what.c_str());
    std::printf(
        "{\"correct\": false, \"attempted\": %lld, \"failed\": 0, "
        "\"metrics\": {}}\n",
        static_cast<long long>(std::max<int64_t>(attempted, 1)));
    return 1;
  }
}
