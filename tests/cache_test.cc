// src/cache/ unit + property tests: canonical fingerprinting (isomorphism
// invariance, collision guards), plan-cache hit/LRU/concurrency semantics,
// and the serve result cache.

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "cache/plan_cache.h"
#include "cache/result_cache.h"
#include "exec/physical_plan.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/generators.h"
#include "schema/parse.h"
#include "util/rng.h"

namespace gyo {
namespace cache {
namespace {

// ---------------------------------------------------------------------------
// Fingerprint / canonicalization

TEST(CacheFingerprintTest, FirstAppearanceSchemasCanonicalizeToThemselves) {
  // The gyo_serve request path: a fresh Catalog interns attributes in first
  // appearance order, which IS the canonical labeling — the relabeling must
  // be the identity, so cached programs transfer byte for byte.
  Catalog catalog;
  DatabaseSchema d = ParseSchema(catalog, "ab,bc,cd");
  AttrSet target = ParseAttrSet(catalog, "ad");
  CanonicalQuery canon = CanonicalizeQuery(d, target);
  EXPECT_TRUE(canon.SameShape(d, target));
  for (size_t c = 0; c < canon.canonical_to_caller.size(); ++c) {
    EXPECT_EQ(canon.canonical_to_caller[c], static_cast<AttrId>(c));
  }
}

TEST(CacheFingerprintTest, OrderPreservingRenamingsShareAFingerprint) {
  // Same hypergraph over attribute ids 0..3 and over 10,20,30,40.
  DatabaseSchema a({AttrSet({0, 1}), AttrSet({1, 2}), AttrSet({2, 3})});
  DatabaseSchema b(
      {AttrSet({10, 20}), AttrSet({20, 30}), AttrSet({30, 40})});
  CanonicalQuery ca = CanonicalizeQuery(a, AttrSet({0, 3}));
  CanonicalQuery cb = CanonicalizeQuery(b, AttrSet({10, 40}));
  EXPECT_EQ(ca.fingerprint, cb.fingerprint);
  EXPECT_TRUE(ca.SameShape(cb.schema, cb.target));
  // The inverse relabeling reaches back into each caller's space.
  EXPECT_EQ(cb.canonical_to_caller[0], 10);
  EXPECT_EQ(cb.canonical_to_caller[3], 40);
}

TEST(CacheFingerprintTest, TargetAndShapeChangesChangeTheFingerprint) {
  DatabaseSchema d({AttrSet({0, 1}), AttrSet({1, 2})});
  const Fingerprint base = CanonicalizeQuery(d, AttrSet({0, 2})).fingerprint;
  EXPECT_NE(base, CanonicalizeQuery(d, AttrSet({0, 1})).fingerprint);
  DatabaseSchema e({AttrSet({0, 1}), AttrSet({1, 2}), AttrSet({2, 3})});
  EXPECT_NE(base, CanonicalizeQuery(e, AttrSet({0, 2})).fingerprint);
}

TEST(CacheFingerprintTest, DatabaseFingerprintSeesDataAndSeed) {
  Catalog catalog;
  DatabaseSchema d = ParseSchema(catalog, "ab,bc");
  AttrSet target = ParseAttrSet(catalog, "ac");
  Rng rng(7);
  std::vector<Relation> states = RandomStates(d, 20, 8, rng);
  const Fingerprint f1 = FingerprintDatabase(d, target, states, 1);
  EXPECT_EQ(f1, FingerprintDatabase(d, target, states, 1));
  EXPECT_NE(f1, FingerprintDatabase(d, target, states, 2));
  states[0].AddRow({99, 99});
  EXPECT_NE(f1, FingerprintDatabase(d, target, states, 1));
}

// ---------------------------------------------------------------------------
// Plan cache

TEST(PlanCacheTest, RepeatQueryHitsAndReturnsTheIdenticalProgram) {
  Catalog catalog;
  DatabaseSchema d = ParseSchema(catalog, "ab,bc,cd");
  AttrSet target = ParseAttrSet(catalog, "ad");
  PlanCache pc;
  std::optional<PlanCache::Result> first =
      pc.GetOrBuild(d, target, PlanStrategy::kAuto);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->hit);
  EXPECT_TRUE(first->acyclic);
  EXPECT_EQ(first->resolved, PlanStrategy::kYannakakis);
  std::optional<PlanCache::Result> second =
      pc.GetOrBuild(d, target, PlanStrategy::kAuto);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->hit);
  EXPECT_EQ(second->resolved, PlanStrategy::kYannakakis);
  EXPECT_EQ(first->program.Format(catalog), second->program.Format(catalog));
  // And both match a direct solver build.
  std::optional<Program> direct = YannakakisProgram(d, target);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(first->program.Format(catalog), direct->Format(catalog));
  const PlanCacheStats stats = pc.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, CachedPlanExecutesBitIdenticallyToADirectBuild) {
  Catalog catalog;
  DatabaseSchema d = ParseSchema(catalog, "ab,bc,cd");
  AttrSet target = ParseAttrSet(catalog, "ad");
  Rng rng(11);
  std::vector<Relation> states =
      ProjectDatabase(RandomUniversal(d.Universe(), 150, 10, rng), d);
  PlanCache pc;
  pc.GetOrBuild(d, target, PlanStrategy::kAuto);  // warm
  std::optional<PlanCache::Result> hit =
      pc.GetOrBuild(d, target, PlanStrategy::kAuto);
  ASSERT_TRUE(hit.has_value() && hit->hit);
  std::optional<Program> direct = YannakakisProgram(d, target);
  ASSERT_TRUE(direct.has_value());
  exec::ExecContext ctx;
  std::vector<Relation> want = exec::Execute(*direct, states, ctx);
  std::vector<Relation> via_program = exec::Execute(hit->program, states, ctx);
  std::vector<Relation> via_plan = hit->plan.Execute(states, ctx);
  ASSERT_EQ(want.size(), via_program.size());
  ASSERT_EQ(want.size(), via_plan.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(want[i].IdenticalTo(via_program[i])) << "state " << i;
    EXPECT_TRUE(want[i].IdenticalTo(via_plan[i])) << "state " << i;
  }
}

TEST(PlanCacheTest, IsomorphicQueryIsAHitAndRemapsIntoCallerSpace) {
  // Warm with attrs a..d, then ask the isomorphic query over w..z. The hit
  // entry's program must come back in the *second* query's attribute space
  // and execute exactly like a direct build for it.
  Catalog catalog;
  DatabaseSchema d1 = ParseSchema(catalog, "ab,bc,cd");
  AttrSet t1 = ParseAttrSet(catalog, "ad");
  DatabaseSchema d2 = ParseSchema(catalog, "wx,xy,yz");
  AttrSet t2 = ParseAttrSet(catalog, "wz");
  PlanCache pc;
  ASSERT_TRUE(pc.GetOrBuild(d1, t1, PlanStrategy::kAuto).has_value());
  std::optional<PlanCache::Result> hit =
      pc.GetOrBuild(d2, t2, PlanStrategy::kAuto);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->hit);
  std::optional<Program> direct = YannakakisProgram(d2, t2);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(hit->program.Format(catalog), direct->Format(catalog));
}

TEST(PlanCacheTest, CyclicYannakakisVerdictIsMemoized) {
  DatabaseSchema d = Aring(3);
  AttrSet target = d.Universe();
  PlanCache pc;
  EXPECT_FALSE(pc.GetOrBuild(d, target, PlanStrategy::kYannakakis));
  EXPECT_FALSE(pc.GetOrBuild(d, target, PlanStrategy::kYannakakis));
  const PlanCacheStats stats = pc.stats();
  EXPECT_EQ(stats.hits, 1u);  // the second rejection came from the cache
  EXPECT_EQ(stats.misses, 1u);
  // kAuto on the same schema still plans (CC-pruned fallback) — a distinct
  // key, so the cyclic verdict entry cannot shadow it.
  std::optional<PlanCache::Result> fallback =
      pc.GetOrBuild(d, target, PlanStrategy::kAuto);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_FALSE(fallback->acyclic);
  EXPECT_EQ(fallback->resolved, PlanStrategy::kCcPruned);
}

TEST(PlanCacheTest, ExplicitStrategiesAreCachedSeparatelyAndClearResets) {
  // Full-join and CC-pruned builds are memoized under their own keys (the
  // requested strategy is part of the cache key, so asking for a different
  // plan over the same schema never returns the wrong program).
  Catalog catalog;
  DatabaseSchema d = ParseSchema(catalog, "ab,bc");
  AttrSet target = ParseAttrSet(catalog, "ac");
  PlanCache pc;
  std::optional<PlanCache::Result> full =
      pc.GetOrBuild(d, target, PlanStrategy::kFullJoin);
  ASSERT_TRUE(full.has_value());
  EXPECT_FALSE(full->hit);
  EXPECT_EQ(full->resolved, PlanStrategy::kFullJoin);
  std::optional<PlanCache::Result> pruned =
      pc.GetOrBuild(d, target, PlanStrategy::kCcPruned);
  ASSERT_TRUE(pruned.has_value());
  EXPECT_FALSE(pruned->hit);  // distinct key, not the full-join entry
  EXPECT_EQ(pruned->resolved, PlanStrategy::kCcPruned);
  EXPECT_TRUE(pc.GetOrBuild(d, target, PlanStrategy::kFullJoin)->hit);
  EXPECT_TRUE(pc.GetOrBuild(d, target, PlanStrategy::kCcPruned)->hit);
  EXPECT_EQ(pc.stats().entries, 2u);
  pc.Clear();
  const PlanCacheStats cleared = pc.stats();
  EXPECT_EQ(cleared.entries, 0u);
  EXPECT_EQ(cleared.hits, 0u);
  EXPECT_FALSE(pc.GetOrBuild(d, target, PlanStrategy::kFullJoin)->hit);
}

TEST(PlanCacheTest, LruEvictsTheColdestEntry) {
  PlanCache::Options options;
  options.max_entries = 2;
  PlanCache pc(options);
  std::vector<DatabaseSchema> schemas;
  for (int n = 2; n <= 4; ++n) schemas.push_back(PathSchema(n + 1));
  // Distinct targets keep the three queries non-isomorphic.
  for (const DatabaseSchema& d : schemas) {
    ASSERT_TRUE(pc.GetOrBuild(d, d.Universe(), PlanStrategy::kAuto));
  }
  PlanCacheStats stats = pc.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // The first (evicted) query misses again; the last hits.
  pc.GetOrBuild(schemas[0], schemas[0].Universe(), PlanStrategy::kAuto);
  pc.GetOrBuild(schemas[2], schemas[2].Universe(), PlanStrategy::kAuto);
  stats = pc.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
}

TEST(PlanCacheTest, ConcurrentLookupsAreSafeAndCoherent) {
  Catalog catalog;
  DatabaseSchema d = ParseSchema(catalog, "ab,bc,cd,de");
  AttrSet target = ParseAttrSet(catalog, "ae");
  PlanCache pc;
  constexpr int kThreads = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 50; ++iter) {
        std::optional<PlanCache::Result> r =
            pc.GetOrBuild(d, target, PlanStrategy::kAuto);
        if (!r.has_value() || r->resolved != PlanStrategy::kYannakakis ||
            r->program.NumStatements() == 0) {
          failures[t] = "bad plan-cache result under concurrency";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], "");
  const PlanCacheStats stats = pc.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits + stats.misses, 8u * 50u);
}

// ---------------------------------------------------------------------------
// Result cache

TEST(ResultCacheTest, RoundTripsBitIdenticalValues) {
  Catalog catalog;
  DatabaseSchema d = ParseSchema(catalog, "ab,bc");
  AttrSet target = ParseAttrSet(catalog, "ac");
  Rng rng(47);
  std::vector<Relation> states = RandomStates(d, 10, 4, rng);
  const ResultKey key = MakeResultKey(d, target, states, 1);
  Relation result(target);
  result.AddRow({1, 2});
  result.Canonicalize();
  Program::Stats stats;
  stats.result_rows = 1;
  ResultCache rc;
  EXPECT_FALSE(rc.Get(key).has_value());
  rc.Put(key, ResultCache::Value{result, stats});
  std::optional<ResultCache::Value> got = rc.Get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->result.IdenticalTo(result));
  EXPECT_EQ(got->stats.result_rows, 1);
  // The key sees the variant word and the data.
  EXPECT_NE(key, MakeResultKey(d, target, states, 2));
  states[0].AddRow({7, 7});
  EXPECT_NE(key, MakeResultKey(d, target, states, 1));
}

TEST(ResultCacheTest, KeysArePinnedAcrossImplementations) {
  // MakeResultKey derives both fingerprints in one sweep; these values were
  // recorded from the two-pass derivation (one FingerprintDatabase call per
  // seed), so any drift in the word order, the lanes, or the seeds shows.
  auto expect_key = [](const ResultKey& k, std::array<uint64_t, 4> want) {
    EXPECT_EQ(k.a.lo, want[0]);
    EXPECT_EQ(k.a.hi, want[1]);
    EXPECT_EQ(k.b.lo, want[2]);
    EXPECT_EQ(k.b.hi, want[3]);
  };
  {
    Catalog catalog;
    DatabaseSchema d = ParseSchema(catalog, "ab,bc");
    AttrSet target = ParseAttrSet(catalog, "ac");
    std::vector<Relation> states{Relation(d.Relation(0)),
                                 Relation(d.Relation(1))};
    states[0].AddRow({1, 2});
    states[0].AddRow({3, 4});
    states[0].MarkCanonical();
    states[1].AddRow({4, -7});
    states[1].AddRow({2, 5});
    const ResultKey key = MakeResultKey(d, target, states, 3);
    expect_key(key, {0x5abf715792788c2fULL, 0xf79700f25746b4deULL,
                     0xefa45f913ff0ffb0ULL, 0x7e37bfb3ed469667ULL});
    // The paired sweep matches two single-seed sweeps for any seeds.
    Fingerprint a, b;
    FingerprintDatabasePair(d, target, states, 11, 12, &a, &b);
    EXPECT_EQ(a, FingerprintDatabase(d, target, states, 11));
    EXPECT_EQ(b, FingerprintDatabase(d, target, states, 12));
  }
  {
    Catalog catalog;
    DatabaseSchema d = ParseSchema(catalog, "abc,cd,d");
    AttrSet target = ParseAttrSet(catalog, "ad");
    std::vector<Relation> states{Relation(d.Relation(0)),
                                 Relation(d.Relation(1)),
                                 Relation(d.Relation(2))};
    states[0].AddRow({std::numeric_limits<Value>::min(), 0,
                      std::numeric_limits<Value>::max()});
    states[0].AddRow({-1, Value{1} << 40, 9});
    states[1].AddRow({9, 9});
    const ResultKey key = MakeResultKey(d, target, states, 7);
    expect_key(key, {0x14012c0863cb0073ULL, 0x636cfe415b79fca0ULL,
                     0xa2bc37f8c11f864cULL, 0x977a59ec499c816dULL});
  }
}

TEST(ResultCacheTest, ByteBoundEvictsLru) {
  ResultCache::Options options;
  options.max_bytes = 1;
  ResultCache rc(options);
  AttrSet schema({0});
  for (int i = 0; i < 3; ++i) {
    Relation r(schema);
    r.AddRow({i});
    ResultKey key;
    key.a = Fingerprint{static_cast<uint64_t>(i), 0};
    key.b = Fingerprint{0, static_cast<uint64_t>(i)};
    rc.Put(key, ResultCache::Value{r, Program::Stats{}});
  }
  const ResultCacheStats stats = rc.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(ResultCacheTest, EmptyResultsCountTowardTheByteBound) {
  // An empty result and π_∅'s one-row TRUE hold no arena bytes, yet every
  // entry costs memory. Distinct ones put into a small budget must evict
  // and stay under it instead of growing the cache without bound.
  ResultCache::Options options;
  options.max_bytes = 16 << 10;
  ResultCache rc(options);
  constexpr int kPuts = 4096;
  for (int i = 0; i < kPuts; ++i) {
    const bool empty = i % 2 == 0;
    Relation r(empty ? AttrSet({0, 1}) : AttrSet());
    if (!empty) {
      r.AppendRows(1);  // TRUE: one empty tuple
      r.MarkCanonical();
    }
    ASSERT_EQ(r.ArenaBytes(), 0);
    ResultKey key;
    key.a = Fingerprint{static_cast<uint64_t>(i), 1};
    key.b = Fingerprint{2, static_cast<uint64_t>(i)};
    rc.Put(key, ResultCache::Value{r, Program::Stats{}});
  }
  const ResultCacheStats stats = rc.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, static_cast<uint64_t>(kPuts));
  EXPECT_EQ(stats.entries + stats.evictions, static_cast<uint64_t>(kPuts));
  EXPECT_GT(stats.bytes, 0);
  EXPECT_LE(stats.bytes, options.max_bytes);
}

TEST(ResultCacheTest, DuplicatePutKeepsTheIncumbentAndClearResets) {
  // Two racing misses may both compute and Put the same key; the second
  // insert only refreshes recency (both values are bit-identical by
  // construction, so keeping the incumbent is free and never grows bytes).
  ResultCache rc;
  AttrSet schema({0});
  ResultKey key;
  key.a = Fingerprint{1, 2};
  key.b = Fingerprint{3, 4};
  Relation first(schema);
  first.AddRow({7});
  Program::Stats stats;
  stats.result_rows = 1;
  rc.Put(key, ResultCache::Value{first, stats});
  Relation second(schema);
  second.AddRow({7});
  rc.Put(key, ResultCache::Value{second, stats});
  EXPECT_EQ(rc.stats().entries, 1u);
  std::optional<ResultCache::Value> got = rc.Get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->result.IdenticalTo(first));
  rc.Clear();
  EXPECT_EQ(rc.stats().entries, 0u);
  EXPECT_FALSE(rc.Get(key).has_value());
}

}  // namespace
}  // namespace cache
}  // namespace gyo
