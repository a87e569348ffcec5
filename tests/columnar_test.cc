// Columnar storage equivalence (tentpole): the vectorized column-at-a-time
// kernels checked against an independent row-major reference evaluator that
// shares no code with ops.cc (std::set semantics, nested loops, RowRef
// gathers only). Covers every operator serial and parallel (2/4/8 threads,
// both determinism modes), the solver strategies end to end through
// exec::Run, and the Bloom filters' two load-bearing properties: no false
// negatives (pruning can never change a result) and a bounded false-positive
// rate (pruning actually prunes).

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
  Rng rng(1009);
  for (int trial = 0; trial < 12; ++trial) {
    // Mixed densities: dense (many matches) through sparse (mostly misses).
    const int64_t domain = int64_t{1} << (2 + trial);
    RelPair p(40 + trial * 7, 30 + trial * 5, domain, rng.Next());
    EXPECT_TRUE(Semijoin(p.r, p.s).EqualsAsSet(RefSemijoin(p.r, p.s)))
        << "trial " << trial;
    EXPECT_TRUE(NaturalJoin(p.r, p.s).EqualsAsSet(RefNaturalJoin(p.r, p.s)))
        << "trial " << trial;
    EXPECT_TRUE(Project(p.r, AttrSet{0}).EqualsAsSet(RefProject(p.r, AttrSet{0})))
        << "trial " << trial;
    EXPECT_TRUE(
        Project(p.r, AttrSet{1}).EqualsAsSet(RefProject(p.r, AttrSet{1})))
        << "trial " << trial;
  }
}

TEST(ColumnarTest, ParallelKernelsMatchReferenceAtEveryWidth) {
  // Large enough that builds clear kMinBloomBuildRows and probes split into
  // many morsels: the Bloom-guarded partitioned path is what's under test.
  RelPair p(3000, 2000, 512, 1013);
  const Relation ref_semi = RefSemijoin(p.r, p.s);
  const Relation ref_join = RefNaturalJoin(p.r, p.s);
  const Relation ref_proj = RefProject(p.r, AttrSet{0});
  const Relation serial_semi = Semijoin(p.r, p.s);
  const Relation serial_join = NaturalJoin(p.r, p.s);
  const Relation serial_proj = Project(p.r, AttrSet{0});
  // EqualsAsSet canonicalizes its operands in place (lazy, mutable), which
  // would perturb the physical row order the IdenticalTo checks below pin —
  // so the set comparisons run on copies.
  ASSERT_TRUE(Relation(serial_semi).EqualsAsSet(ref_semi));
  ASSERT_TRUE(Relation(serial_join).EqualsAsSet(ref_join));
  ASSERT_TRUE(Relation(serial_proj).EqualsAsSet(ref_proj));
  for (int threads : {2, 4, 8}) {
    exec::TaskScheduler pool(threads);
    OpExecOpts opts = PooledOpts(&pool, 64);
    Relation semi = Semijoin(p.r, p.s, opts);
    Relation join = NaturalJoin(p.r, p.s, opts);
    Relation proj = Project(p.r, AttrSet{0}, opts);
    // Bit-identical to the serial engine: same rows, same physical row
    // order, same canonical flags.
    EXPECT_TRUE(semi.IdenticalTo(serial_semi)) << "threads " << threads;
    EXPECT_TRUE(join.IdenticalTo(serial_join)) << "threads " << threads;
    EXPECT_TRUE(proj.IdenticalTo(serial_proj)) << "threads " << threads;
    // And equal, as sets, to the row-major reference (checked last:
    // EqualsAsSet canonicalizes in place).
    EXPECT_TRUE(semi.EqualsAsSet(ref_semi)) << "threads " << threads;
    EXPECT_TRUE(join.EqualsAsSet(ref_join)) << "threads " << threads;
    EXPECT_TRUE(proj.EqualsAsSet(ref_proj)) << "threads " << threads;
  }
}

TEST(ColumnarTest, BloomCountersTallyPrunesWithoutChangingResults) {
  // Sparse probe keys (domain ≫ rows): most probes miss, so the serial
  // single-filter and the parallel per-partition filters both prune heavily
  // — and the results must not move an inch.
  RelPair p(4096, 4096, int64_t{1} << 20, 1019);
  const Relation ref = RefSemijoin(p.r, p.s);

  OpExecOpts serial_opts;
  serial_opts.counters = std::make_shared<exec::QueryCounters>();
  std::atomic<int64_t>& serial_skips =
      serial_opts.counters->bloom_partition_skips;
  std::atomic<int64_t>& serial_prunes = serial_opts.counters->probe_rows_pruned;
  Relation serial = Semijoin(p.r, p.s, serial_opts);
  EXPECT_TRUE(serial.EqualsAsSet(ref));
  // The serial kernel has one whole-build filter, not partition filters.
  EXPECT_EQ(serial_skips.load(), 0);
  EXPECT_GT(serial_prunes.load(), 0);
  EXPECT_LE(serial_prunes.load(), p.r.NumRows());

  exec::TaskScheduler pool(4);
  OpExecOpts par_opts = PooledOpts(&pool, 256);
  par_opts.counters = std::make_shared<exec::QueryCounters>();
  std::atomic<int64_t>& par_skips = par_opts.counters->bloom_partition_skips;
  std::atomic<int64_t>& par_prunes = par_opts.counters->probe_rows_pruned;
  Relation parallel = Semijoin(p.r, p.s, par_opts);
  EXPECT_TRUE(parallel.IdenticalTo(serial));
  // Partition-filter rejections count as both a skip and a prune.
  EXPECT_GT(par_skips.load(), 0);
  EXPECT_EQ(par_skips.load(), par_prunes.load());
  EXPECT_LE(par_prunes.load(), p.r.NumRows());
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
