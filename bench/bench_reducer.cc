// E15b / P6 companion — semijoin reduction on non-UR databases: the tree
// full reducer (2(n−1) semijoins) vs the generic pairwise semijoin fixpoint,
// plus the global-consistency check they are measured against.
//
// Correctness counters (pinned by scripts/check_bench_counters.py):
// reduced_rows_r0 / fixpoint_rows_r0 are seeded result cardinalities,
// effective_steps the fixpoint's shrinking-semijoin count, retired_states
// the reducer's dataflow retirement count — all machine- and
// thread-count-independent. peak_state_bytes / peak_rss_mb are memory
// trend counters (unpinned): the retirement A/B reads directly off
// BM_FullReducerMemory_Path's two peak_state_bytes values.

#include <benchmark/benchmark.h>

#include <memory>

#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "mem_counters.h"
#include "rel/reducer.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/generators.h"
#include "util/check.h"
#include "util/rng.h"

namespace gyo {
namespace {

// Independent random edge states (dangle-heavy, non-UR).
std::vector<Relation> DanglingStates(const DatabaseSchema& d, int rows,
                                     uint64_t seed) {
  Rng rng(seed);
  return RandomStates(d, rows, 64, rng);
}

void BM_FullReducer_Path(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  DatabaseSchema d = PathSchema(n + 1);
  // Fork-isolated RSS sample: one full workload pass in a child process,
  // before any loop iterations, so the counter reflects this family alone.
  const double peak_rss_mb = gyo_bench::ForkIsolatedPeakRssMb([&] {
    std::vector<Relation> child_states = DanglingStates(d, 256, 37);
    auto out = ApplyFullReducer(d, child_states);
    benchmark::DoNotOptimize(out);
  });
  std::vector<Relation> states = DanglingStates(d, 256, 37);
  exec::QueryStats query_stats;
  exec::ExecContext ctx;
  ctx.query_stats = &query_stats;
  int64_t reduced_rows = 0;
  for (auto _ : state) {
    auto out = ApplyFullReducer(d, states, ctx);
    reduced_rows = (*out)[0].NumRows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["reduced_rows_r0"] = static_cast<double>(reduced_rows);
  gyo_bench::ReportMemCounters(state, query_stats, peak_rss_mb);
}
BENCHMARK(BM_FullReducer_Path)->RangeMultiplier(2)->Range(4, 64);

void BM_FullReducerMemory_Path(benchmark::State& state) {
  // The state-retirement A/B: the compiled full-reducer program executed
  // with retirement off (Arg 0: all 2(n−1) intermediate states stay alive
  // until the DAG drains) vs on (Arg 1: ApplyFullReducer's configuration —
  // states freed as their final consumer task retires). Compare the two
  // peak_state_bytes counters; rows are identical by construction.
  const bool retire = state.range(0) != 0;
  DatabaseSchema d = PathSchema(33);
  auto plan = FullReducerProgram(d);
  GYO_CHECK(plan.has_value());  // a path schema is a tree
  // Per-variant fork-isolated RSS: with the retirement A/B now sampled in
  // separate children, the Arg(1) row's peak_rss_mb can actually read lower
  // than Arg(0)'s (RUSAGE_SELF monotonicity used to forbid that).
  const double peak_rss_mb = gyo_bench::ForkIsolatedPeakRssMb([&] {
    std::vector<Relation> child_states = DanglingStates(d, 2048, 37);
    exec::ExecContext child_ctx;
    child_ctx.retire_consumed = retire;
    child_ctx.retain_states = retire ? &plan->final_ids : nullptr;
    std::vector<Relation> all =
        exec::Execute(plan->program, child_states, child_ctx);
    benchmark::DoNotOptimize(all);
  });
  std::vector<Relation> states = DanglingStates(d, 2048, 37);
  exec::QueryStats query_stats;
  exec::ExecContext ctx;
  ctx.query_stats = &query_stats;
  ctx.retire_consumed = retire;
  ctx.retain_states = retire ? &plan->final_ids : nullptr;
  int64_t reduced_rows = 0;
  for (auto _ : state) {
    std::vector<Relation> all = exec::Execute(plan->program, states, ctx);
    reduced_rows = all[static_cast<size_t>(plan->final_ids[0])].NumRows();
    benchmark::DoNotOptimize(all);
  }
  state.counters["reduced_rows_r0"] = static_cast<double>(reduced_rows);
  gyo_bench::ReportMemCounters(state, query_stats, peak_rss_mb);
}
BENCHMARK(BM_FullReducerMemory_Path)->Arg(0)->Arg(1);

void BM_SemijoinFixpoint_Path(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  DatabaseSchema d = PathSchema(n + 1);
  std::vector<Relation> states = DanglingStates(d, 256, 37);
  int steps = 0;
  int64_t rows = 0;
  for (auto _ : state) {
    std::vector<Relation> fix = SemijoinFixpoint(d, states, &steps);
    rows = fix[0].NumRows();
    benchmark::DoNotOptimize(fix);
  }
  state.counters["effective_steps"] = static_cast<double>(steps);
  state.counters["fixpoint_rows_r0"] = static_cast<double>(rows);
}
BENCHMARK(BM_SemijoinFixpoint_Path)->RangeMultiplier(2)->Range(4, 64);

void BM_SemijoinFixpointParallel_Path(benchmark::State& state) {
  // The task-wave fixpoint at 1/2/4/8 threads on one path shape: every
  // round's independent per-relation semijoin chains run as one wave
  // through the shared PhysicalPlan/scheduler path. Deterministic mode, so
  // the counters are identical at every width (and pinned).
  const int threads = static_cast<int>(state.range(0));
  DatabaseSchema d = PathSchema(17);
  // Key-like domain (≫ rows): at domain 64 the 4096-row states saturate the
  // value space and every semijoin is an identity (0 rounds); a sparse
  // domain keeps them dangle-heavy so the wave actually iterates.
  Rng rng(37);
  std::vector<Relation> states = RandomStates(d, 4096, 16 * 4096, rng);
  exec::ExecutorPool::Options options;
  options.threads = threads;
  exec::ExecutorPool pool(options);
  exec::QueryStats query_stats;
  exec::ExecContext ctx;
  ctx.threads = threads;
  ctx.pool = &pool;
  ctx.query_stats = &query_stats;
  // Below AutoMorselRows for 4096-row arity-2 states, so the kernels
  // actually fork into morsels at threads > 1. The sparse domain makes most
  // probe keys absent, so the build's Bloom filter prunes heavily — and,
  // one filter per build, probe_rows_pruned is the same at every width.
  ctx.morsel_rows = 1024;
  int steps = 0;
  int64_t rows = 0;
  for (auto _ : state) {
    std::vector<Relation> fix = SemijoinFixpoint(d, states, ctx, &steps);
    rows = fix[0].NumRows();
    benchmark::DoNotOptimize(fix);
  }
  state.counters["effective_steps"] = static_cast<double>(steps);
  state.counters["fixpoint_rows_r0"] = static_cast<double>(rows);
  // SemijoinFixpoint rewrites query_stats each call, so these are one full
  // fixpoint's totals — iteration-count independent, hence pinnable.
  state.counters["probe_rows_pruned"] =
      static_cast<double>(query_stats.probe_rows_pruned);
}
BENCHMARK(BM_SemijoinFixpointParallel_Path)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_ConsistencyCheck_Path(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  DatabaseSchema d = PathSchema(n + 1);
  std::vector<Relation> states = DanglingStates(d, 64, 41);
  auto reduced = ApplyFullReducer(d, states);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsGloballyConsistent(d, *reduced));
  }
}
BENCHMARK(BM_ConsistencyCheck_Path)->RangeMultiplier(2)->Range(4, 16);

void BM_SemijoinFixpoint_Ring(benchmark::State& state) {
  // Cyclic schemas: the fixpoint may loop several rounds without ever
  // reaching consistency.
  int n = static_cast<int>(state.range(0));
  DatabaseSchema d = Aring(n);
  std::vector<Relation> states = DanglingStates(d, 256, 43);
  int steps = 0;
  int64_t rows = 0;
  for (auto _ : state) {
    std::vector<Relation> fix = SemijoinFixpoint(d, states, &steps);
    rows = fix[0].NumRows();
    benchmark::DoNotOptimize(fix);
  }
  state.counters["effective_steps"] = static_cast<double>(steps);
  state.counters["fixpoint_rows_r0"] = static_cast<double>(rows);
}
BENCHMARK(BM_SemijoinFixpoint_Ring)->RangeMultiplier(2)->Range(4, 32);

}  // namespace
}  // namespace gyo
