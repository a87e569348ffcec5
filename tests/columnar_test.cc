// Columnar storage equivalence (tentpole): the vectorized column-at-a-time
// kernels checked against an independent row-major reference evaluator that
// shares no code with ops.cc (std::set semantics, nested loops, RowRef
// gathers only). Covers every operator serial, the forking ones at 2/4/8
// threads, the solver strategies end to end through exec::Run, and the
// Bloom filters' two load-bearing properties: no false negatives (pruning
// can never change a result) and a bounded false-positive rate (pruning
// actually prunes).

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "exec/task_scheduler.h"
#include "gtest/gtest.h"
#include "rel/ops.h"
#include "rel/relation.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/generators.h"
#include "util/rng.h"

namespace gyo {
namespace {

using Tuple = std::vector<Value>;

// --- The row-major reference evaluator. ---

Relation FromTuples(const AttrSet& schema, const std::set<Tuple>& tuples) {
  Relation out(schema);
  out.Reserve(static_cast<int64_t>(tuples.size()));
  for (const Tuple& t : tuples) out.AddRow(t);
  out.Canonicalize();
  return out;
}

Relation RefProject(const Relation& r, const AttrSet& x) {
  std::vector<int> keep;
  for (AttrId a : x.ToVector()) keep.push_back(r.ColIndex(a));
  std::set<Tuple> tuples;
  for (RowRef row : r.Rows()) {
    Tuple t;
    for (int c : keep) t.push_back(row[c]);
    tuples.insert(t);
  }
  // π_∅ of a non-empty relation is the single empty tuple (TRUE).
  Relation out(x);
  for (const Tuple& t : tuples) out.AddRow(t);
  out.Canonicalize();
  return out;
}

bool RefRowsMatch(const Relation& r, int64_t i, const Relation& s, int64_t j,
                  const AttrSet& shared) {
  for (AttrId a : shared.ToVector()) {
    if (r.At(i, a) != s.At(j, a)) return false;
  }
  return true;
}

Relation RefSemijoin(const Relation& r, const Relation& s) {
  const AttrSet shared = r.Schema().Intersect(s.Schema());
  std::set<Tuple> tuples;
  for (int64_t i = 0; i < r.NumRows(); ++i) {
    for (int64_t j = 0; j < s.NumRows(); ++j) {
      if (RefRowsMatch(r, i, s, j, shared)) {
        tuples.insert(r.Row(i).ToVector());
        break;
      }
    }
  }
  return FromTuples(r.Schema(), tuples);
}

Relation RefNaturalJoin(const Relation& r, const Relation& s) {
  const AttrSet shared = r.Schema().Intersect(s.Schema());
  const AttrSet joined = r.Schema().Union(s.Schema());
  std::set<Tuple> tuples;
  for (int64_t i = 0; i < r.NumRows(); ++i) {
    for (int64_t j = 0; j < s.NumRows(); ++j) {
      if (!RefRowsMatch(r, i, s, j, shared)) continue;
      Tuple t;
      for (AttrId a : joined.ToVector()) {
        t.push_back(r.Schema().Contains(a) ? r.At(i, a) : s.At(j, a));
      }
      tuples.insert(t);
    }
  }
  return FromTuples(joined, tuples);
}

// Naive solve of Q = (D, X): join everything, project.
Relation RefSolve(const AttrSet& x, const std::vector<Relation>& states) {
  Relation acc = states[0];
  for (size_t i = 1; i < states.size(); ++i) {
    acc = RefNaturalJoin(acc, states[i]);
  }
  return RefProject(acc, x);
}

// --- Fixtures. ---

// Random overlapping-schema pair; `domain` tunes match density.
struct RelPair {
  RelPair(int r_rows, int s_rows, int64_t domain, uint64_t seed)
      : r(AttrSet{0, 1}), s(AttrSet{1, 2}) {
    Rng rng(seed);
    for (int i = 0; i < r_rows; ++i) {
      r.AddRow({static_cast<Value>(rng.Below(static_cast<uint64_t>(domain))),
                static_cast<Value>(rng.Below(static_cast<uint64_t>(domain)))});
    }
    for (int i = 0; i < s_rows; ++i) {
      s.AddRow({static_cast<Value>(rng.Below(static_cast<uint64_t>(domain))),
                static_cast<Value>(rng.Below(static_cast<uint64_t>(domain)))});
    }
    r.Canonicalize();
    s.Canonicalize();
  }
  Relation r;
  Relation s;
};

OpExecOpts PooledOpts(exec::TaskScheduler* pool, int64_t morsel_rows) {
  OpExecOpts opts;
  opts.scheduler = pool;
  opts.morsel_rows = morsel_rows;
  return opts;
}

// --- Kernel-level equivalence. ---

TEST(ColumnarTest, SerialKernelsMatchRowMajorReference) {
  struct Trial {
    Relation r;
    Relation s;
  };
  std::vector<Trial> trials;
  Rng rng(1009);
  for (int trial = 0; trial < 12; ++trial) {
    // Mixed densities: dense (many matches) through sparse (mostly misses).
    const int64_t domain = int64_t{1} << (2 + trial);
    RelPair p(40 + trial * 7, 30 + trial * 5, domain, rng.Next());
    trials.push_back({p.r, p.s});
  }
  // The edges of the one-morsel kernels: an empty probe side, an empty
  // build side, single rows (matching and not), builds on either side of
  // the Bloom filter's gate, and disjoint schemas (a Cartesian product).
  const RelPair base(200, 30, 64, 1010);
  trials.push_back({Relation(AttrSet{0, 1}), base.s});
  trials.push_back({base.r, Relation(AttrSet{1, 2})});
  trials.push_back({FromTuples(AttrSet{0, 1}, {Tuple{1, 5}}),
                    FromTuples(AttrSet{1, 2}, {Tuple{5, 9}})});
  trials.push_back({FromTuples(AttrSet{0, 1}, {Tuple{1, 5}}),
                    FromTuples(AttrSet{1, 2}, {Tuple{6, 9}})});
  for (int64_t rows : {kMinBloomBuildRows - 1, kMinBloomBuildRows}) {
    std::set<Tuple> build;
    for (Value i = 0; i < rows; ++i) build.insert(Tuple{2 * i % 100, i});
    trials.push_back({base.r, FromTuples(AttrSet{1, 2}, build)});
  }
  trials.push_back({base.r, FromTuples(AttrSet{2, 3}, {Tuple{1, 2},
                                                       Tuple{3, 4}})});
  for (size_t t = 0; t < trials.size(); ++t) {
    const Relation& r = trials[t].r;
    const Relation& s = trials[t].s;
    EXPECT_TRUE(Semijoin(r, s).EqualsAsSet(RefSemijoin(r, s))) << "trial " << t;
    EXPECT_TRUE(NaturalJoin(r, s).EqualsAsSet(RefNaturalJoin(r, s)))
        << "trial " << t;
    for (AttrId a : {0, 1}) {
      EXPECT_TRUE(Project(r, AttrSet{a}).EqualsAsSet(RefProject(r, AttrSet{a})))
          << "trial " << t << " attribute " << a;
    }
  }
}

TEST(ColumnarTest, ParallelKernelsMatchReferenceAtEveryWidth) {
  // Large enough that builds clear kMinBloomBuildRows and probes split into
  // many morsels: the Bloom-guarded forked probe is what's under test.
  RelPair p(3000, 2000, 512, 1013);
  const Relation ref_semi = RefSemijoin(p.r, p.s);
  const Relation ref_join = RefNaturalJoin(p.r, p.s);
  const Relation serial_semi = Semijoin(p.r, p.s);
  const Relation serial_join = NaturalJoin(p.r, p.s);
  // EqualsAsSet canonicalizes its operands in place (lazy, mutable), which
  // would perturb the physical row order the IdenticalTo checks below pin —
  // so the set comparisons run on copies.
  ASSERT_TRUE(Relation(serial_semi).EqualsAsSet(ref_semi));
  ASSERT_TRUE(Relation(serial_join).EqualsAsSet(ref_join));
  for (int threads : {2, 4, 8}) {
    exec::TaskScheduler pool(threads);
    OpExecOpts opts = PooledOpts(&pool, 64);
    Relation semi = Semijoin(p.r, p.s, opts);
    Relation join = NaturalJoin(p.r, p.s, opts);
    // Bit-identical to the serial engine: same rows, same physical row
    // order, same canonical flags.
    EXPECT_TRUE(semi.IdenticalTo(serial_semi)) << "threads " << threads;
    EXPECT_TRUE(join.IdenticalTo(serial_join)) << "threads " << threads;
    // And equal, as sets, to the row-major reference (checked last:
    // EqualsAsSet canonicalizes in place).
    EXPECT_TRUE(semi.EqualsAsSet(ref_semi)) << "threads " << threads;
    EXPECT_TRUE(join.EqualsAsSet(ref_join)) << "threads " << threads;
  }
}

TEST(ColumnarTest, BloomCountersTallyPrunesWithoutChangingResults) {
  // Sparse probe keys (domain ≫ rows): most probes miss, so the build's
  // Bloom filter prunes heavily — and the results must not move an inch.
  // Every morsel tests the one whole-build filter on the same hashes, so a
  // forked kernel prunes exactly the rows the unforked one does, at every
  // thread count and morsel size.
  RelPair p(4096, 4096, int64_t{1} << 20, 1019);
  OpExecOpts serial_opts;
  serial_opts.counters = std::make_shared<exec::QueryCounters>();
  std::atomic<int64_t>& serial_prunes = serial_opts.counters->probe_rows_pruned;
  const Relation serial_semi = Semijoin(p.r, p.s, serial_opts);
  const int64_t semi_pruned = serial_prunes.exchange(0);
  const Relation serial_join = NaturalJoin(p.r, p.s, serial_opts);
  const int64_t join_pruned = serial_prunes.load();
  EXPECT_TRUE(Relation(serial_semi).EqualsAsSet(RefSemijoin(p.r, p.s)));
  EXPECT_GT(semi_pruned, 0);
  EXPECT_LE(semi_pruned, p.r.NumRows());
  EXPECT_GT(join_pruned, 0);
  EXPECT_LE(join_pruned, std::max(p.r.NumRows(), p.s.NumRows()));

  for (int threads : {2, 4, 8}) {
    exec::TaskScheduler pool(threads);
    for (int64_t morsel_rows : {1, 64, 256}) {
      OpExecOpts opts = PooledOpts(&pool, morsel_rows);
      opts.counters = std::make_shared<exec::QueryCounters>();
      std::atomic<int64_t>& prunes = opts.counters->probe_rows_pruned;
      EXPECT_TRUE(Semijoin(p.r, p.s, opts).IdenticalTo(serial_semi))
          << "threads " << threads << " morsel_rows " << morsel_rows;
      EXPECT_EQ(prunes.exchange(0), semi_pruned)
          << "threads " << threads << " morsel_rows " << morsel_rows;
      EXPECT_TRUE(NaturalJoin(p.r, p.s, opts).IdenticalTo(serial_join))
          << "threads " << threads << " morsel_rows " << morsel_rows;
      EXPECT_EQ(prunes.load(), join_pruned)
          << "threads " << threads << " morsel_rows " << morsel_rows;
      // Both kernels forked.
      EXPECT_GT(opts.counters->morsels.load(), 0);
    }
  }
}

TEST(ColumnarTest, TinyBuildsSkipTheBloomFilterButStillMatch) {
  // Builds under kMinBloomBuildRows bypass the filter; the counter contract
  // (zero tallies) and the results must hold either way.
  RelPair p(600, static_cast<int>(kMinBloomBuildRows) - 1, 16, 1021);
  OpExecOpts opts;
  opts.counters = std::make_shared<exec::QueryCounters>();
  std::atomic<int64_t>& prunes = opts.counters->probe_rows_pruned;
  Relation out = Semijoin(p.r, p.s, opts);
  EXPECT_TRUE(out.EqualsAsSet(RefSemijoin(p.r, p.s)));
  EXPECT_EQ(prunes.load(), 0);
}

// --- Strategy-level equivalence through the exec runtime. ---

TEST(ColumnarTest, SolverStrategiesMatchReferenceEndToEnd) {
  Rng rng(1031);
  for (int trial = 0; trial < 6; ++trial) {
    DatabaseSchema d = RandomTreeSchema(3 + static_cast<int>(rng.Below(3)), 3,
                                        rng).schema;
    // UR states (projections of one universal relation): CC pruning is only
    // sound on UR databases (Theorem 4.1), and the UR case is exactly where
    // the paper compares these strategies.
    Relation universal = RandomUniversal(d.Universe(), 40, 6, rng);
    std::vector<Relation> states = ProjectDatabase(universal, d);
    AttrSet x;
    x.Insert(d[0].Min());
    x.Insert(d[d.NumRelations() - 1].Min());
    const Relation ref = RefSolve(x, states);

    std::vector<Program> programs;
    programs.push_back(FullJoinProgram(d, x));
    programs.push_back(CCPrunedProgram(d, x));
    auto yannakakis = YannakakisProgram(d, x);
    ASSERT_TRUE(yannakakis.has_value());
    programs.push_back(*yannakakis);
    YannakakisOptions no_early;
    no_early.early_project = false;
    programs.push_back(*YannakakisProgram(d, x, no_early));

    exec::ExecContext serial_ctx;
    for (size_t s = 0; s < programs.size(); ++s) {
      Relation serial = exec::Run(programs[s], states, serial_ctx);
      // Copy: EqualsAsSet canonicalizes in place, and `serial` must stay
      // physically pristine for the IdenticalTo checks.
      EXPECT_TRUE(Relation(serial).EqualsAsSet(ref))
          << "trial " << trial << " strategy " << s;
      for (int threads : {2, 4, 8}) {
        exec::ExecutorPool::Options options;
        options.threads = threads;
        exec::ExecutorPool pool(options);
        exec::ExecContext ctx;
        ctx.threads = threads;
        ctx.pool = &pool;
        ctx.morsel_rows = 16;  // force splitting on small states
        Relation parallel = exec::Run(programs[s], states, ctx);
        EXPECT_TRUE(parallel.IdenticalTo(serial))
            << "trial " << trial << " strategy " << s << " threads "
            << threads;
        ctx.deterministic = false;
        Relation relaxed = exec::Run(programs[s], states, ctx);
        EXPECT_TRUE(relaxed.EqualsAsSet(ref))
            << "trial " << trial << " strategy " << s << " threads "
            << threads;
      }
    }
  }
}

// --- The Bloom filter itself. ---

TEST(BloomFilterTest, DefaultConstructedIsDisabled) {
  BloomFilter none;
  EXPECT_FALSE(none.enabled());
  EXPECT_TRUE(BloomFilter(0).enabled());  // sized filters always work
  EXPECT_TRUE(BloomFilter(1).enabled());
}

TEST(BloomFilterTest, NeverFalseNegative) {
  // THE correctness property: every added hash must test positive, for
  // filters from the 128-bit floor up through multi-KiB. A single false
  // negative would silently drop result rows.
  Rng rng(1033);
  for (int64_t keys : {1, 3, 64, 1000, 20000}) {
    BloomFilter bloom(keys);
    std::vector<uint64_t> added;
    added.reserve(static_cast<size_t>(keys));
    for (int64_t i = 0; i < keys; ++i) added.push_back(rng.Next());
    for (uint64_t h : added) bloom.Add(h);
    for (uint64_t h : added) {
      ASSERT_TRUE(bloom.MaybeContains(h)) << "keys " << keys;
    }
  }
}

TEST(BloomFilterTest, BoundedFalsePositiveRate) {
  // At kBloomBitsPerKey = 8 with two probes the textbook FP rate is ~6%;
  // 15% leaves slack for hash clumping while still catching a broken
  // sizing rule or probe split (either would push toward 100%).
  Rng rng(1039);
  const int64_t keys = 10000;
  BloomFilter bloom(keys);
  for (int64_t i = 0; i < keys; ++i) bloom.Add(rng.Next());
  int positives = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    // Fresh draws from the same 64-bit space: collision odds with the added
    // set are negligible, so every positive is (almost surely) false.
    if (bloom.MaybeContains(rng.Next())) ++positives;
  }
  EXPECT_LT(static_cast<double>(positives) / probes, 0.15);
}

}  // namespace
}  // namespace gyo
