// Parallel execution runtime (exec/): parallel vs serial evaluation at
// 1/2/4/8 threads. Arg(0) = thread count, so .../1 rows are the serial
// engine and the speedup curve reads directly off the report. Each
// benchmark owns an ExecutorPool of exactly Arg(0) threads (rather than
// borrowing the process-wide pool) so the curve measures pool width, not
// the host's core count.
//
//   * Path_Yannakakis-class workload: a 16-hop path query evaluated by the
//     Yannakakis program — statement-level parallelism (independent subtree
//     semijoins) plus morsel-level parallelism in each operator.
//   * Star_Yannakakis: wide fan-out, scheduler-bound shape.
//   * FullReducer: the 2(n−1)-semijoin reducer over a random tree schema.
//   * FullJoin_Morsels: a join-dominated plan where intra-operator morsel
//     parallelism is the only lever (the statement chain is serial).
//   * MultiClient: Arg(0) concurrent client threads pushing Yannakakis
//     queries through ONE shared admission-controlled pool — the
//     multi-tenant story. Counters report the (identical) per-query result
//     cardinality plus the aggregate morsel count observed by QueryStats.
//   * KernelGrain: one join or semijoin kernel on a bare TaskScheduler of
//     Arg(0) threads, probe sides from 2^14 to 2^21 rows with auto-sized
//     morsels — where the fork grain (kMinMorselsPerThread) lets a kernel
//     fork, and what forking buys.
//   * StatementGrain: two clients of one 2-thread, 2-slot pool running
//     Yannakakis queries from 64 to 8192 rows per relation — the evidence
//     for the statement graph's fork grain (kMinStatementForkRows).
//
// Times are wall-clock (UseRealTime): with worker threads, per-thread CPU
// time would hide the speedup being measured.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "exec/task_scheduler.h"
#include "mem_counters.h"
#include "rel/ops.h"
#include "rel/reducer.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/generators.h"
#include "util/rng.h"

namespace gyo {
namespace {

// Key-like data (domain ≫ rows) keeps join growth factors near 1, matching
// the bench_join_strategies methodology.
std::vector<Relation> MakeUR(const DatabaseSchema& d, int rows,
                             uint64_t seed) {
  Rng rng(seed);
  Relation universal = RandomUniversal(d.Universe(), rows, 16 * rows, rng);
  return ProjectDatabase(universal, d);
}

// A private pool of exactly state.range(0) threads plus the context that
// routes queries onto it.
struct BenchPool {
  explicit BenchPool(benchmark::State& state) {
    exec::ExecutorPool::Options options;
    options.threads = static_cast<int>(state.range(0));
    pool = std::make_unique<exec::ExecutorPool>(options);
    ctx.threads = options.threads;
    ctx.pool = pool.get();
  }
  std::unique_ptr<exec::ExecutorPool> pool;
  exec::ExecContext ctx;
};

void ReportStats(benchmark::State& state, const Program& p,
                 const std::vector<Relation>& states,
                 const exec::ExecContext& caller_ctx, double peak_rss_mb) {
  Program::Stats stats;
  exec::QueryStats query_stats;
  exec::ExecContext ctx = caller_ctx;
  ctx.query_stats = &query_stats;
  exec::Execute(p, states, ctx, &stats);
  state.counters["max_intermediate"] =
      static_cast<double>(stats.max_intermediate_rows);
  state.counters["result_rows"] = static_cast<double>(stats.result_rows);
  gyo_bench::ReportMemCounters(state, query_stats, peak_rss_mb);
}

// One fork-isolated RSS sample of a full query at this Arg's thread width.
// Must run BEFORE the parent constructs its BenchPool: the child builds its
// own pool, so the fork happens while the parent is still single-threaded.
double SampleRss(benchmark::State& state, const Program& p,
                 const std::vector<Relation>& states) {
  return gyo_bench::ForkIsolatedPeakRssMb([&] {
    BenchPool child(state);
    benchmark::DoNotOptimize(exec::Run(p, states, child.ctx));
  });
}

void BM_Exec_PathYannakakis(benchmark::State& state) {
  DatabaseSchema d = PathSchema(17);
  AttrSet x{0, 16};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 8192, 17);
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_PathYannakakis)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Exec_StarYannakakis(benchmark::State& state) {
  DatabaseSchema d = StarSchema(12);
  AttrSet x{0, 1};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 8192, 13);
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_StarYannakakis)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Exec_FullReducer(benchmark::State& state) {
  Rng schema_rng(5);
  RandomTreeResult t = RandomTreeSchema(24, 4, schema_rng);
  Rng state_rng(6);
  std::vector<Relation> states = RandomStates(t.schema, 8192, 24, state_rng);
  const double peak_rss_mb = gyo_bench::ForkIsolatedPeakRssMb([&] {
    BenchPool child(state);
    auto out = ApplyFullReducer(t.schema, states, child.ctx);
    benchmark::DoNotOptimize(out);
  });
  BenchPool bench(state);
  exec::QueryStats query_stats;
  bench.ctx.query_stats = &query_stats;
  int64_t reduced_rows = 0;
  for (auto _ : state) {
    auto out = ApplyFullReducer(t.schema, states, bench.ctx);
    reduced_rows = (*out)[0].NumRows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["reduced_rows_r0"] = static_cast<double>(reduced_rows);
  gyo_bench::ReportMemCounters(state, query_stats, peak_rss_mb);
}
BENCHMARK(BM_Exec_FullReducer)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Exec_FullJoin_Morsels(benchmark::State& state) {
  DatabaseSchema d = PathSchema(4);
  AttrSet x{0, 3};
  Program p = FullJoinProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 32768, 19);
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_FullJoin_Morsels)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_Exec_StealImbalance(benchmark::State& state) {
  // Deliberately skewed semijoin: 75% of the probe side shares one hot key,
  // so one bucket chain takes most of the build's probe traffic and the
  // morsels that hit it do most of the chain walking. Morsels are contiguous
  // probe-row ranges handed out by one claim counter, so the skew cannot
  // pin work to one thread; the helpers a statement running on a pool
  // worker fans out sit on that worker's deque, and the other threads steal
  // them. The trailing projection gives the graph a second statement, so
  // the caller's drain loop runs inside the measured region and leftover
  // helpers are consumed (and counted) before the query finishes even on a
  // single-core host. morsel_rows is set explicitly to the auto size
  // (AutoMorselRows(2) = 16384) so both statements fork at every width:
  // left at 0, the 2^18-row probe side is 16 morsels, under the fork grain
  // of 4 and 8 threads.
  constexpr int64_t kProbeRows = 1 << 18;
  constexpr int64_t kBuildRows = 1 << 16;
  constexpr Value kHotKey = 42;
  Relation r(AttrSet{0, 1});
  r.Reserve(kProbeRows);
  for (int64_t i = 0; i < kProbeRows; ++i) {
    const Value key = (i % 4 == 0) ? static_cast<Value>(i % kBuildRows)
                                   : kHotKey;
    r.AddRow({key, static_cast<Value>(i)});
  }
  r.Canonicalize();
  Relation s(AttrSet{0, 2});
  s.Reserve(kBuildRows);
  for (int64_t k = 0; k < kBuildRows; ++k) {
    s.AddRow({static_cast<Value>(k), static_cast<Value>(k)});
  }
  s.Canonicalize();
  Program p(2);
  const int sj = p.AddSemijoin(0, 1);
  p.AddProject(sj, AttrSet{0});
  std::vector<Relation> states = {r, s};
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  bench.ctx.morsel_rows = AutoMorselRows(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_StealImbalance)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_Exec_SipStar(benchmark::State& state) {
  // Sideways information passing on a star-schema semijoin chain. All
  // satellites of a star share the center attribute, so the reduction is a
  // chain s_i = s_{i-1} ⋉ R_i with key {0} throughout — and every later
  // satellite is a base-slot eliminator for the chain head. The satellite
  // key domains shrink down the chain (the last one is tiny), so without
  // SIP every statement re-probes the rows the tail would have killed,
  // while with SIP the head consults the tail satellites' Bloom filters
  // and drops ~97% of the fact rows before the first hash build's probes.
  // Arg(0) = threads, Arg(1) = SIP on/off — the A/B reads directly off the
  // report, and sip_rows_pruned is sign-pinned on the sip:1 half.
  constexpr int kSatellites = 7;
  constexpr int64_t kFactRows = 1 << 16;
  constexpr int64_t kSatRows = 1 << 12;
  Program p(1 + kSatellites);
  int chain = 0;
  for (int i = 1; i <= kSatellites; ++i) chain = p.AddSemijoin(chain, i);
  Rng rng(23);
  std::vector<Relation> states;
  Relation fact(AttrSet{0, 1});
  fact.Reserve(kFactRows);
  for (int64_t i = 0; i < kFactRows; ++i) {
    fact.AddRow({static_cast<Value>(rng.Below(1 << 14)),
                 static_cast<Value>(i)});
  }
  fact.Canonicalize();
  states.push_back(std::move(fact));
  for (int i = 1; i <= kSatellites; ++i) {
    // Satellite i's keys cover [0, 4096 >> (i-1)) densely (k mod domain),
    // down to [0, 64) at i = 7 — so the chain's survivors are exactly the
    // fact rows with keys under the smallest domain, a nonzero pinned
    // cardinality, and the tail filters do the heavy pruning.
    const int64_t domain = kSatRows >> (i - 1);
    Relation sat(AttrSet{0, static_cast<AttrId>(i + 1)});
    sat.Reserve(kSatRows);
    for (int64_t k = 0; k < kSatRows; ++k) {
      sat.AddRow({static_cast<Value>(k % domain), static_cast<Value>(k)});
    }
    sat.Canonicalize();
    states.push_back(std::move(sat));
  }
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  bench.ctx.enable_sip = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_SipStar)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->UseRealTime();

void BM_Exec_JoinScatter(benchmark::State& state) {
  // NaturalJoin's in-order morsel probe under skew: the build side is
  // unique on the join key (output growth ≤ 1), the probe side puts half
  // its rows on 8 hot keys — so a handful of bucket chains take most of the
  // probe traffic, spread evenly over the row-range morsels, and the probe
  // and gather passes are what the thread curve measures. There is no merge
  // step: morsel outputs concatenate in morsel order. Arg(0) = threads;
  // Arg(1) sets ExecContext::deterministic, which no longer changes the
  // kernel, so the {8, 0} row is a repeat of {8, 1}. morsel_rows is set
  // explicitly to the auto size (AutoMorselRows(2) = 16384) so the join
  // forks at every width: left at 0, the 2^18-row probe side is 16 morsels,
  // under the fork grain of 4 and 8 threads.
  constexpr int64_t kProbeRows = 1 << 18;
  constexpr int64_t kBuildRows = 1 << 16;
  Rng rng(29);
  Relation r(AttrSet{0, 1});
  r.Reserve(kProbeRows);
  for (int64_t i = 0; i < kProbeRows; ++i) {
    const Value key = (i % 2 == 0) ? static_cast<Value>(rng.Below(8))
                                   : static_cast<Value>(rng.Below(kBuildRows));
    r.AddRow({static_cast<Value>(i), key});
  }
  r.Canonicalize();
  Relation s(AttrSet{1, 2});
  s.Reserve(kBuildRows);
  for (int64_t k = 0; k < kBuildRows; ++k) {
    s.AddRow({static_cast<Value>(k), static_cast<Value>(k % 97)});
  }
  s.Canonicalize();
  Program p(2);
  p.AddJoin(0, 1);
  std::vector<Relation> states = {std::move(r), std::move(s)};
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  bench.ctx.morsel_rows = AutoMorselRows(2);
  bench.ctx.deterministic = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_JoinScatter)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({8, 0})
    ->UseRealTime();

void BM_Exec_KernelGrain(benchmark::State& state) {
  // The fork grain's evidence: one join or one semijoin kernel, called
  // directly on a pool of Arg(0) threads with auto-sized morsels, so each
  // row shows whether the kernel forked (morsels > 0) and what it cost
  // against the Arg(0) = 1 row of the same shape. Arg(1) = log2 of the
  // probe rows, r(a, b, c) with b drawn from twice the build's key count
  // (about half the probe rows match); Arg(2) = build side s(b, d), unique
  // on b: 0 = 2048 rows, 1 = a quarter of the probe rows; Arg(3) = kernel:
  // 0 = r ⋈ s, 1 = r ⋉ s. Both kernels auto-size 10922-row morsels (arity
  // 3), so a probe side forks once it spans kMinMorselsPerThread morsels
  // per thread. The inputs are assembled column by column, and no program
  // wraps the kernel, so no per-iteration state copy dilutes the ratio.
  const int threads = static_cast<int>(state.range(0));
  const int64_t probe_rows = int64_t{1} << state.range(1);
  const int64_t build_rows =
      state.range(2) == 0 ? int64_t{2048} : probe_rows / 4;
  const bool semijoin = state.range(3) != 0;
  Rng rng(37);
  Relation r(AttrSet{0, 1, 2});
  r.AppendRows(probe_rows);
  for (int64_t i = 0; i < probe_rows; ++i) {
    r.ColData(0)[i] = static_cast<Value>(i);
    r.ColData(1)[i] = static_cast<Value>(
        rng.Below(static_cast<uint64_t>(2 * build_rows)));
    r.ColData(2)[i] = static_cast<Value>(i % 1024);
  }
  Relation s(AttrSet{1, 3});
  s.AppendRows(build_rows);
  for (int64_t k = 0; k < build_rows; ++k) {
    s.ColData(0)[k] = static_cast<Value>(k);
    s.ColData(1)[k] = static_cast<Value>(k % 97);
  }
  exec::TaskScheduler pool(threads);
  OpExecOpts opts;
  opts.scheduler = &pool;
  auto run = [&] {
    return semijoin ? Semijoin(r, s, opts) : NaturalJoin(r, s, opts);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(run());
  }
  opts.counters = std::make_shared<exec::QueryCounters>();
  state.counters["result_rows"] = static_cast<double>(run().NumRows());
  state.counters["morsels"] =
      static_cast<double>(opts.counters->morsels.load());
}
BENCHMARK(BM_Exec_KernelGrain)
    ->ArgsProduct({{1, 2, 4}, {14, 15, 16, 17, 18, 19, 20, 21}, {0, 1},
                   {0, 1}})
    ->UseRealTime();

// BM_Exec_StatementGrain's queries. Shape 0: the Yannakakis program of a
// 48-relation random tree, with key-like values (the plan_churn shape: about
// 180 short statements, no chain). Shape 1: the Yannakakis program of an
// 8-relation path, target {0, 8}, half of each relation's rows planted from
// one universal relation and half dangling from the relation's own value
// band, which matches no neighbour's (the path_reduce shape).
struct GrainQuery {
  exec::PhysicalPlan plan;
  std::vector<Relation> states;
};

// A random tree schema of `n` relations in which every relation after the
// first shares one or two attributes of a random earlier relation and adds
// one or two fresh ones. Every edge shares an attribute, so no join of the
// Yannakakis program is a Cartesian product (RandomTreeSchema may share
// none).
DatabaseSchema SharedEdgeTree(int n, Rng& rng) {
  std::vector<RelationSchema> relations;
  AttrId next = 0;
  relations.push_back(AttrSet{next, next + 1});
  next += 2;
  for (int i = 1; i < n; ++i) {
    std::vector<AttrId> parent =
        relations[rng.Below(relations.size())].ToVector();
    AttrSet rel;
    const size_t shared = 1 + rng.Below(std::min<size_t>(2, parent.size()));
    for (size_t k = 0; k < shared; ++k) {
      const size_t pick = k + rng.Below(parent.size() - k);
      std::swap(parent[k], parent[pick]);
      rel.Insert(parent[k]);
    }
    const uint64_t fresh = 1 + rng.Below(2);
    for (uint64_t f = 0; f < fresh; ++f) rel.Insert(next++);
    relations.push_back(std::move(rel));
  }
  return DatabaseSchema(std::move(relations));
}

GrainQuery MakeGrainQuery(int shape, int rows) {
  constexpr int kKeyDomain = 1 << 20;  // key-like: chance matches are rare
  Rng rng(static_cast<uint64_t>(43 + shape));
  if (shape == 0) {
    const DatabaseSchema d = SharedEdgeTree(48, rng);
    const std::vector<AttrId> attrs = d.Universe().ToVector();
    const AttrSet x{attrs.front(), attrs.back()};
    std::vector<Relation> states = ProjectDatabase(
        RandomUniversal(d.Universe(), rows, kKeyDomain, rng), d);
    for (Relation& r : states) r.Canonicalize();
    return {exec::PhysicalPlan::Compile(*YannakakisProgram(d, x)),
            std::move(states)};
  }
  const DatabaseSchema d = PathSchema(9);
  std::vector<Relation> states = ProjectDatabase(
      RandomUniversal(d.Universe(), rows / 2, kKeyDomain, rng), d);
  for (size_t i = 0; i < states.size(); ++i) {
    const Value band = static_cast<Value>(i + 1) * kKeyDomain;
    for (int k = rows / 2; k < rows; ++k) {
      states[i].AddRow({band + static_cast<Value>(rng.Below(kKeyDomain)),
                        band + static_cast<Value>(rng.Below(kKeyDomain))});
    }
    states[i].Canonicalize();
  }
  return {exec::PhysicalPlan::Compile(*YannakakisProgram(d, AttrSet{0, 8})),
          std::move(states)};
}

void BM_Exec_StatementGrain(benchmark::State& state) {
  // The statement fork grain's evidence (kMinStatementForkRows in
  // exec/physical_plan.h): two benchmark threads act as two clients of one
  // 2-thread, 2-slot pool, each admitting its query with TryAdmit and
  // running it with ExecuteAdmitted and retirement on, the way gyo_serve
  // does. Arg(0) = shape (see MakeGrainQuery), Arg(1) = rows per relation.
  // forks_statement_graph reads which driver ForkStatementGraph picked;
  // the crossover itself is measured by forcing each driver in turn.
  static std::unique_ptr<GrainQuery> query;
  static std::unique_ptr<exec::ExecutorPool> pool;
  if (state.thread_index() == 0) {
    query = std::make_unique<GrainQuery>(MakeGrainQuery(
        static_cast<int>(state.range(0)), static_cast<int>(state.range(1))));
    exec::ExecutorPool::Options options;
    options.threads = 2;
    options.max_concurrent_queries = 2;
    pool = std::make_unique<exec::ExecutorPool>(options);
  }
  // The loop's start barrier publishes the query and pool to thread 1.
  exec::ExecContext ctx;
  ctx.retire_consumed = true;
  Program::Stats stats;
  for (auto _ : state) {
    exec::ExecutorPool::AdmitResult admit =
        pool->TryAdmit(static_cast<uint64_t>(state.thread_index()));
    std::vector<Relation> out = query->plan.ExecuteAdmitted(
        query->states, ctx, *admit.admission, &stats);
    benchmark::DoNotOptimize(out.back());
  }
  // The loop's end barrier: both threads are done with the query and pool.
  if (state.thread_index() == 0) {
    int64_t max_rows = 0;
    for (const Relation& r : query->states) {
      max_rows = std::max(max_rows, r.NumRows());
    }
    const Program& p = query->plan.program();
    state.counters["result_rows"] = static_cast<double>(stats.result_rows);
    const bool forks = exec::ForkStatementGraph(
        pool->threads(), p.NumStatements(), query->plan.CriticalPathLength(),
        max_rows, ctx.morsel_rows);
    state.counters["forks_statement_graph"] = forks ? 1.0 : 0.0;
    pool.reset();
    query.reset();
  }
}
BENCHMARK(BM_Exec_StatementGrain)
    ->ArgsProduct({{0, 1}, {64, 256, 1024, 2048, 4096, 8192}})
    ->Threads(2)
    ->UseRealTime();

void BM_Exec_MultiClient(benchmark::State& state) {
  // Arg(0) client threads share one 4-thread pool that admits at most 2
  // queries at a time; each client runs 2 deterministic Yannakakis queries
  // per iteration under its own submitter id. Wall time therefore measures
  // admission + shared-pool throughput, not per-query latency. The result
  // cardinality is identical for every client and every concurrency level
  // (deterministic mode), which is what the CI bench-check pins.
  const int clients = static_cast<int>(state.range(0));
  constexpr int kQueriesPerClient = 2;
  DatabaseSchema d = PathSchema(17);
  AttrSet x{0, 16};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 8192, 17);

  exec::ExecutorPool::Options options;
  options.threads = 4;
  options.max_concurrent_queries = 2;
  exec::ExecutorPool pool(options);

  int64_t result_rows = 0;
  int64_t total_morsels = 0;
  for (auto _ : state) {
    std::vector<int64_t> client_rows(static_cast<size_t>(clients), 0);
    std::vector<int64_t> client_morsels(static_cast<size_t>(clients), 0);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        exec::ExecContext ctx;
        ctx.threads = pool.threads();
        ctx.pool = &pool;
        ctx.submitter = static_cast<uint64_t>(c);
        for (int q = 0; q < kQueriesPerClient; ++q) {
          exec::QueryStats query_stats;
          ctx.query_stats = &query_stats;
          Relation result = exec::Run(p, states, ctx);
          client_rows[static_cast<size_t>(c)] = result.NumRows();
          client_morsels[static_cast<size_t>(c)] += query_stats.morsels;
        }
      });
    }
    for (std::thread& w : workers) w.join();
    result_rows = client_rows[0];
    total_morsels = 0;
    for (int64_t m : client_morsels) total_morsels += m;
  }
  state.counters["result_rows"] = static_cast<double>(result_rows);
  state.counters["queries"] =
      static_cast<double>(clients * kQueriesPerClient);
  state.counters["morsels_per_iter"] = static_cast<double>(total_morsels);
}
BENCHMARK(BM_Exec_MultiClient)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace gyo
