// P6 / E7 / E14 / E15 — query evaluation strategies on UR databases:
//   * full join then project (§4 baseline),
//   * CC-pruned join (§6: drop irrelevant relations / useless columns, then
//     join in attribute-elimination order),
//   * Yannakakis semijoin evaluation (tree schemas),
//   * tree-projection evaluation (cyclic schemas, Thms 6.1/6.2).
// The expected shape: CC-pruning wins when irrelevant appendages exist;
// Yannakakis wins when intermediate joins would blow up; the TP program
// makes cyclic queries tractable at the cost of building arc hosts.

#include <benchmark/benchmark.h>

#include "rel/ops.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/fixtures.h"
#include "schema/generators.h"
#include "util/rng.h"

namespace gyo {
namespace {

// Key-like data (domain ≫ rows) keeps the full-join baseline feasible even
// over long join chains — the per-join growth factor is 1 + rows/domain; the
// strategy gaps come from the number of joins and the width/count of
// intermediate results, not from a deliberately exploding join.
std::vector<Relation> MakeUR(const DatabaseSchema& d, int rows,
                             uint64_t seed) {
  Rng rng(seed);
  Relation universal = RandomUniversal(d.Universe(), rows, 16 * rows, rng);
  return ProjectDatabase(universal, d);
}


// Attaches the program's intermediate-size statistics as benchmark counters
// (machine-independent evidence for the strategy comparisons).
void ReportStats(benchmark::State& state, const Program& p,
                 const std::vector<Relation>& states) {
  Program::Stats stats;
  p.ExecuteWithStats(states, &stats);
  state.counters["max_intermediate"] =
      static_cast<double>(stats.max_intermediate_rows);
  state.counters["result_rows"] = static_cast<double>(stats.result_rows);
}

// --- Workload A: §6-style — small core + irrelevant appendage chain. ---

DatabaseSchema AppendageSchema(int appendage) {
  DatabaseSchema d;
  d.Add(AttrSet{0, 1});
  d.Add(AttrSet{1, 2});
  for (int i = 0; i < appendage; ++i) d.Add(AttrSet{2 + i, 3 + i});
  return d;
}

void BM_Appendage_FullJoin(benchmark::State& state) {
  DatabaseSchema d = AppendageSchema(static_cast<int>(state.range(0)));
  AttrSet x{0, 2};
  Program p = FullJoinProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 256, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Run(states));
  }
  ReportStats(state, p, states);
}
BENCHMARK(BM_Appendage_FullJoin)->RangeMultiplier(2)->Range(2, 32);

void BM_Appendage_CCPruned(benchmark::State& state) {
  DatabaseSchema d = AppendageSchema(static_cast<int>(state.range(0)));
  AttrSet x{0, 2};
  Program p = CCPrunedProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 256, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Run(states));
  }
  ReportStats(state, p, states);
}
BENCHMARK(BM_Appendage_CCPruned)->RangeMultiplier(2)->Range(2, 32);

// --- Workload B: star schema, selective target — Yannakakis vs full join. ---

void BM_Star_FullJoin(benchmark::State& state) {
  int leaves = static_cast<int>(state.range(0));
  DatabaseSchema d = StarSchema(leaves);
  AttrSet x{0, 1};
  Program p = FullJoinProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 128, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Run(states));
  }
  ReportStats(state, p, states);
}
BENCHMARK(BM_Star_FullJoin)->RangeMultiplier(2)->Range(2, 16);

void BM_Star_Yannakakis(benchmark::State& state) {
  int leaves = static_cast<int>(state.range(0));
  DatabaseSchema d = StarSchema(leaves);
  AttrSet x{0, 1};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 128, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Run(states));
  }
  ReportStats(state, p, states);
}
BENCHMARK(BM_Star_Yannakakis)->RangeMultiplier(2)->Range(2, 16);

// --- Workload C: path schema, endpoints target. ---

void BM_Path_FullJoin(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  DatabaseSchema d = PathSchema(n + 1);
  AttrSet x{0, n};
  Program p = FullJoinProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 256, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Run(states));
  }
  ReportStats(state, p, states);
}
BENCHMARK(BM_Path_FullJoin)->RangeMultiplier(2)->Range(2, 16);

void BM_Path_Yannakakis(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  DatabaseSchema d = PathSchema(n + 1);
  AttrSet x{0, n};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 256, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Run(states));
  }
  ReportStats(state, p, states);
}
BENCHMARK(BM_Path_Yannakakis)->RangeMultiplier(2)->Range(2, 16);

// --- Workload D: the 8-ring through the §3.2 arc hosts (E3/E15). ---

void BM_Ring8_FullJoin(benchmark::State& state) {
  Catalog catalog;
  DatabaseSchema d = fixtures::Sec32D(catalog);
  AttrSet x = d[0].Union(d[4]);  // attributes of two opposite edges
  Program p = FullJoinProgram(d, x);
  std::vector<Relation> states =
      MakeUR(d, static_cast<int>(state.range(0)), 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Run(states));
  }
  ReportStats(state, p, states);
}
BENCHMARK(BM_Ring8_FullJoin)->RangeMultiplier(4)->Range(16, 256);

void BM_Ring8_CCPruned(benchmark::State& state) {
  Catalog catalog;
  DatabaseSchema d = fixtures::Sec32D(catalog);
  AttrSet x = d[0].Union(d[4]);
  Program p = CCPrunedProgram(d, x);
  std::vector<Relation> states =
      MakeUR(d, static_cast<int>(state.range(0)), 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Run(states));
  }
  ReportStats(state, p, states);
}
BENCHMARK(BM_Ring8_CCPruned)->RangeMultiplier(4)->Range(16, 256);

void BM_Ring8_TreeProjection(benchmark::State& state) {
  Catalog catalog;
  DatabaseSchema d = fixtures::Sec32D(catalog);
  AttrSet x = d[0].Union(d[4]);
  DatabaseSchema bags;
  AttrSet arc1;
  AttrSet arc2;
  for (int i = 0; i <= 4; ++i) arc1.Insert(i);
  for (int i = 4; i <= 8; ++i) arc2.Insert(i % 8);
  bags.Add(arc1.Union(x));
  bags.Add(arc2.Union(x));
  Program p = *TreeProjectionProgram(d, x, bags);
  std::vector<Relation> states =
      MakeUR(d, static_cast<int>(state.range(0)), 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Run(states));
  }
  ReportStats(state, p, states);
}
BENCHMARK(BM_Ring8_TreeProjection)->RangeMultiplier(4)->Range(16, 256);

}  // namespace
}  // namespace gyo
