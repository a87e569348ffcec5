// Re-reduction after an append, and the plan-cache fast path.
//
// After a small append (Arg = appended rows per relation, in tenths of a
// percent of the planted base), BM_BatchReduce_PathAppend re-runs the full
// pairwise semijoin fixpoint from scratch. Its delta_rounds / rows_rescanned
// counters are the work measure of the fixpoint's delta-round schedule.
//
// The data is planted-consistent-plus-noise: rows projected from one
// universal relation (they all survive reduction) mixed with random rows
// over a disjoint value range (they dangle and are removed again on every
// batch re-reduce). Purely independent random states are the wrong fixture
// here — on a 16-relation path they reduce to empty, which makes the
// fixpoint trivial.
//
// Correctness counters (pinned by scripts/check_bench_counters.py):
// effective_steps / fixpoint_rows_r0 / delta_rounds / rows_rescanned are
// seeded, deterministic-mode quantities — identical on every host.
// plan_cache_hits is sign-pinned (POSITIVE_RULES): the repeat-lookup bench
// exists to demonstrate the hit path, so a family-wide zero means the cache
// stopped hitting.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/plan_cache.h"
#include "exec/exec_context.h"
#include "rel/reducer.h"
#include "rel/universal.h"
#include "schema/generators.h"
#include "util/attr_set.h"
#include "util/check.h"
#include "util/rng.h"

namespace gyo {
namespace {

constexpr int kPathRelations = 16;  // PathSchema(17)
constexpr int kPlantedRows = 2048;  // universal-relation rows (all survive)
constexpr int64_t kNoiseRows = 2048;  // dangling rows per relation
constexpr int64_t kDomain = 4096;     // planted values in [0, kDomain)

// Planted-consistent base plus dangling noise: rows projected from one
// universal relation all survive reduction, while the appended noise rows —
// drawn from the disjoint range [kDomain, 2*kDomain) — form no full-path
// chains and are removed by the fixpoint.
std::vector<Relation> PlantedNoisyStates(const DatabaseSchema& d,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<Relation> base = ProjectDatabase(
      RandomUniversal(d.Universe(), kPlantedRows, kDomain, rng), d);
  for (Relation& rel : base) {
    const int64_t first = rel.AppendRows(kNoiseRows);
    for (int c = 0; c < rel.Arity(); ++c) {
      Value* col = rel.ColData(c);
      for (int64_t i = 0; i < kNoiseRows; ++i) {
        col[first + i] = static_cast<Value>(kDomain + rng.Below(kDomain));
      }
    }
  }
  return base;
}

// Appends `count` random rows to every relation. Values land in the planted
// band [0, kDomain) (joining the consistent core) or a fresh band
// [2*kDomain, 3*kDomain) (new dangles), never in the old noise band.
void AppendRandomRows(std::vector<Relation>* states, int64_t count,
                      uint64_t seed) {
  Rng rng(seed);
  for (Relation& rel : *states) {
    const int64_t first = rel.AppendRows(count);
    for (int c = 0; c < rel.Arity(); ++c) {
      Value* col = rel.ColData(c);
      for (int64_t i = 0; i < count; ++i) {
        const uint64_t v = rng.Below(2 * kDomain);
        col[first + i] = static_cast<Value>(v < kDomain ? v : v + kDomain);
      }
    }
  }
}

int64_t AppendedRowsFor(const benchmark::State& state) {
  // Arg is tenths of a percent of the planted+noise base: Arg(10) = 1%.
  return (kPlantedRows + kNoiseRows) * state.range(0) / 1000;
}

void BM_BatchReduce_PathAppend(benchmark::State& state) {
  // Throw the previous fixpoint away and re-reduce all of `now` from
  // scratch after the append.
  DatabaseSchema d = PathSchema(kPathRelations + 1);
  std::vector<Relation> now = PlantedNoisyStates(d, 37);
  AppendRandomRows(&now, AppendedRowsFor(state), 101);
  exec::QueryStats query_stats;
  exec::ExecContext ctx;
  ctx.query_stats = &query_stats;
  int steps = 0;
  int64_t rows = 0;
  for (auto _ : state) {
    std::vector<Relation> fix = SemijoinFixpoint(d, now, ctx, &steps);
    rows = fix[0].NumRows();
    benchmark::DoNotOptimize(fix);
  }
  state.counters["effective_steps"] = static_cast<double>(steps);
  state.counters["fixpoint_rows_r0"] = static_cast<double>(rows);
  // SemijoinFixpoint rewrites query_stats per call: one full run's totals.
  state.counters["delta_rounds"] =
      static_cast<double>(query_stats.delta_rounds);
  state.counters["rows_rescanned"] =
      static_cast<double>(query_stats.rows_rescanned);
}
BENCHMARK(BM_BatchReduce_PathAppend)->Arg(10)->Arg(100);

void BM_PlanCacheHit_Repeat(benchmark::State& state) {
  // Repeat-query planning: one fingerprint + exact canonical compare + a
  // caller-space remap per lookup, against re-running GYO / join-tree
  // construction on every query.
  DatabaseSchema d = PathSchema(kPathRelations + 1);
  AttrSet target = d[0].Union(d[kPathRelations - 1]);
  cache::PlanCache cache;
  GYO_CHECK(
      cache.GetOrBuild(d, target, cache::PlanStrategy::kAuto).has_value());
  uint64_t hit = 0;
  for (auto _ : state) {
    std::optional<cache::PlanCache::Result> result =
        cache.GetOrBuild(d, target, cache::PlanStrategy::kAuto);
    hit = result.has_value() && result->hit ? 1 : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["plan_cache_hits"] = static_cast<double>(hit);
}
BENCHMARK(BM_PlanCacheHit_Repeat);

void BM_PlanCacheMiss_Rebuild(benchmark::State& state) {
  // The contrast row: Clear() before every lookup so each one pays the full
  // schema-level build the hit path memoizes.
  DatabaseSchema d = PathSchema(kPathRelations + 1);
  AttrSet target = d[0].Union(d[kPathRelations - 1]);
  cache::PlanCache cache;
  for (auto _ : state) {
    cache.Clear();
    std::optional<cache::PlanCache::Result> result =
        cache.GetOrBuild(d, target, cache::PlanStrategy::kAuto);
    benchmark::DoNotOptimize(result);
  }
  state.counters["plan_cache_hits"] = 0.0;
}
BENCHMARK(BM_PlanCacheMiss_Rebuild);

}  // namespace
}  // namespace gyo
