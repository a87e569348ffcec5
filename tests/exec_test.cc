// Exec runtime: PhysicalPlan dataflow compilation, parallel-vs-serial
// equivalence over random schemas/states for every solver strategy at 1–8
// threads, forked operator kernels (one build + in-order morsel probe),
// the parallel full reducer, and the eager Program validation errors.
//
// Parallel contexts pin an explicit ExecutorPool of the tested width (rather
// than borrowing the process-wide pool, which sizes itself to the host) so
// the multi-thread paths are exercised even on single-core CI runners.

#include "exec/physical_plan.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "exec/executor_pool.h"
#include "exec/task_scheduler.h"
#include "gtest/gtest.h"
#include "rel/ops.h"
#include "rel/program.h"
#include "rel/reducer.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/generators.h"
#include "util/rng.h"

namespace gyo {
namespace {

std::vector<Relation> MakeUR(const DatabaseSchema& d, int rows, int domain,
                             uint64_t seed) {
  Rng rng(seed);
  Relation universal = RandomUniversal(d.Universe(), rows, domain, rng);
  return ProjectDatabase(universal, d);
}

// Bit-level equality: same rows in the same physical order with the same
// canonical flag — the parallel-vs-serial contract, stronger than
// EqualsAsSet.
void ExpectBitIdentical(const std::vector<Relation>& a,
                        const std::vector<Relation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].Schema() == b[i].Schema()) << "state " << i;
    EXPECT_EQ(a[i].NumRows(), b[i].NumRows()) << "state " << i;
    EXPECT_EQ(a[i].IsCanonical(), b[i].IsCanonical()) << "state " << i;
    EXPECT_TRUE(a[i].IdenticalTo(b[i])) << "state " << i;
  }
}

// An ExecContext bound to a fresh pool of exactly `threads` workers.
// The pool must outlive every Execute call made with the context.
struct PooledCtx {
  explicit PooledCtx(int threads)
      : pool(MakeOptions(threads)) {
    ctx.threads = threads;
    ctx.pool = &pool;
  }
  static exec::ExecutorPool::Options MakeOptions(int threads) {
    exec::ExecutorPool::Options options;
    options.threads = threads;
    return options;
  }
  exec::ExecutorPool pool;
  exec::ExecContext ctx;
};

// Every program strategy the solver offers for (d, x); skips the tree-only
// ones on cyclic schemas.
std::vector<Program> AllStrategyPrograms(const DatabaseSchema& d,
                                         const AttrSet& x) {
  std::vector<Program> programs;
  programs.push_back(FullJoinProgram(d, x));
  programs.push_back(CCPrunedProgram(d, x));
  for (bool full_reduce : {false, true}) {
    for (bool early_project : {false, true}) {
      YannakakisOptions options;
      options.full_reduce = full_reduce;
      options.early_project = early_project;
      if (auto p = YannakakisProgram(d, x, options)) programs.push_back(*p);
    }
  }
  // Tree projection through the schema's own relations as bags (valid when
  // d is a tree schema and x fits in one relation).
  if (auto p = TreeProjectionProgram(d, x, d)) programs.push_back(*p);
  return programs;
}

TEST(QueryStatsTest, AccumulateSumsAndKeepsTheMax) {
  // The counter table's aggregation column: kSum entries (and the two
  // durations) add; peak_state_bytes and queue_depth_at_admit keep the
  // larger value — whichever side holds it.
  exec::QueryStats into;
  into.run_time_seconds = 0.5;
  into.tasks = 3;
  into.sip_rows_pruned = 10;
  into.peak_state_bytes = 4096;
  into.queue_depth_at_admit = 1;
  exec::QueryStats from;
  from.run_time_seconds = 0.25;
  from.tasks = 4;
  from.sip_rows_pruned = 5;
  from.peak_state_bytes = 1024;
  from.queue_depth_at_admit = 7;
  exec::Accumulate(into, from);
  EXPECT_EQ(into.run_time_seconds, 0.75);
  EXPECT_EQ(into.tasks, 7);
  EXPECT_EQ(into.sip_rows_pruned, 15);
  EXPECT_EQ(into.peak_state_bytes, 4096);
  EXPECT_EQ(into.queue_depth_at_admit, 7);

  // The atomic block folds by the same rules.
  exec::QueryCounters totals;
  exec::Accumulate(totals, into);
  exec::Accumulate(totals, from);
  const exec::QueryStats snapshot = totals.Snapshot();
  EXPECT_EQ(snapshot.tasks, 11);
  EXPECT_EQ(snapshot.sip_rows_pruned, 20);
  EXPECT_EQ(snapshot.peak_state_bytes, 4096);
  EXPECT_EQ(snapshot.queue_depth_at_admit, 7);
  EXPECT_EQ(snapshot.run_time_seconds, 0.0);  // durations have no slot
}

TEST(PhysicalPlanTest, DataflowDependencies) {
  Program p(3);
  int j = p.AddJoin(0, 1);            // statement 0: R3
  int pr = p.AddProject(j, AttrSet{0});  // statement 1: R4 reads R3
  p.AddSemijoin(2, pr);               // statement 2: R5 reads R2 (base), R4
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
  ASSERT_EQ(plan.Dependencies().size(), 3u);
  EXPECT_TRUE(plan.Dependencies()[0].empty());
  EXPECT_EQ(plan.Dependencies()[1], std::vector<int>({0}));
  EXPECT_EQ(plan.Dependencies()[2], std::vector<int>({1}));
  EXPECT_EQ(plan.CriticalPathLength(), 3);
  EXPECT_EQ(plan.NumSourceStatements(), 1);
}

TEST(PhysicalPlanTest, FullReducerPlanHasStatementParallelism) {
  // A star's upward semijoin pass is n independent leaf->center reductions
  // chained on the center, but the downward pass fans out: the plan must be
  // strictly shallower than the statement count... the center chain keeps
  // the upward pass serial, while all downward semijoins depend only on the
  // final center, so the critical path is (leaves) + 1 + ... < 2*leaves for
  // leaves > 1.
  DatabaseSchema d = StarSchema(6);
  auto p = YannakakisProgram(d, AttrSet{0, 1});
  ASSERT_TRUE(p.has_value());
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(*p);
  EXPECT_LT(plan.CriticalPathLength(), p->NumStatements());
}

TEST(PhysicalPlanTest, IndependentSubplansAreParallelSources) {
  // Two joins over disjoint base relations fan in to a third: the dataflow
  // analysis must leave both initially ready and halve the critical path.
  Program p(4);
  int a = p.AddJoin(0, 1);
  int b = p.AddJoin(2, 3);
  p.AddJoin(a, b);
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
  EXPECT_EQ(plan.NumSourceStatements(), 2);
  EXPECT_EQ(plan.CriticalPathLength(), 2);
  EXPECT_EQ(plan.Dependencies()[2], std::vector<int>({0, 1}));
}

TEST(ExecTest, MatchesSerialOnAllStrategiesAndThreadCounts) {
  Rng rng(42);
  for (int trial = 0; trial < 4; ++trial) {
    // Key-like domains (domain ≫ rows) keep the FullJoin strategy's
    // intermediate growth factor near 1 — dense domains make an 8-relation
    // full join explode combinatorially. Trial 0 is a deliberately small
    // dense case (4 relations) so heavy per-join match fan-out is still
    // covered.
    const int num_relations = trial == 0 ? 4 : 6 + trial;
    const int domain = trial == 0 ? 8 : 16 * 60;
    RandomTreeResult t = RandomTreeSchema(num_relations, 3, rng);
    const DatabaseSchema& d = t.schema;
    // Target inside one relation so every strategy (incl. tree projection
    // over d's own bags) applies.
    AttrSet x = d[static_cast<int>(rng.Below(
        static_cast<uint64_t>(d.NumRelations())))];
    std::vector<Relation> states = MakeUR(d, 60, domain, 1000 + trial);
    for (const Program& p : AllStrategyPrograms(d, x)) {
      Program::Stats serial_stats;
      std::vector<Relation> serial = p.ExecuteWithStats(states, &serial_stats);
      for (int threads : {2, 4, 8}) {
        PooledCtx pooled(threads);
        pooled.ctx.morsel_rows = 16;  // force morsel splitting on small data
        Program::Stats par_stats;
        std::vector<Relation> parallel =
            exec::Execute(p, states, pooled.ctx, &par_stats);
        ExpectBitIdentical(serial, parallel);
        EXPECT_EQ(serial_stats.max_intermediate_rows,
                  par_stats.max_intermediate_rows);
        EXPECT_EQ(serial_stats.total_rows_produced,
                  par_stats.total_rows_produced);
        EXPECT_EQ(serial_stats.result_rows, par_stats.result_rows);
      }
    }
  }
}

TEST(ExecTest, NonDeterministicModeMatchesAsSets) {
  // A path query with key-like data: every strategy applies except tree
  // projection (the endpoints target spans two relations), and the full
  // join stays near-linear while still splitting into many 8-row morsels.
  DatabaseSchema d = PathSchema(8);
  AttrSet x{0, 7};
  std::vector<Relation> states = MakeUR(d, 200, 16 * 200, 99);
  for (const Program& p : AllStrategyPrograms(d, x)) {
    std::vector<Relation> serial = p.Execute(states);
    PooledCtx pooled(4);
    pooled.ctx.morsel_rows = 8;
    pooled.ctx.deterministic = false;
    std::vector<Relation> parallel = exec::Execute(p, states, pooled.ctx);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(serial[i].EqualsAsSet(parallel[i])) << "state " << i;
    }
  }
}

TEST(ExecTest, RunReturnsFinalRelation) {
  DatabaseSchema d = PathSchema(5);
  AttrSet x{0, 4};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 50, 4, 3);
  PooledCtx pooled(3);
  Relation via_exec = exec::Run(p, states, pooled.ctx);
  Relation reference = EvaluateJoinQuery(d, x, states);
  EXPECT_TRUE(via_exec.EqualsAsSet(reference));
}

// --- State retirement (tentpole): compile-time reader counts plus
// run-time last-reader frees. ---

TEST(ExecReaderCountsTest, ReaderCountsFollowDataflow) {
  Program p(2);
  int j = p.AddJoin(0, 1);             // reads R0, R1
  int pr = p.AddProject(j, AttrSet{0});  // reads R2
  p.AddSemijoin(pr, 0);                // reads R3 and R0 again
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
  // Slots: R0, R1 base; R2 join, R3 project, R4 semijoin (sink).
  EXPECT_EQ(plan.ReaderCounts(),
            std::vector<int>({2, 1, 1, 1, 0}));
}

TEST(ExecReaderCountsTest, SelfInputCountsOnce) {
  Program p(1);
  p.AddSemijoin(0, 0);
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
  EXPECT_EQ(plan.ReaderCounts(), std::vector<int>({1, 0}));
}

class ExecRetireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    d_ = PathSchema(8);
    x_ = AttrSet{0, 7};
    states_ = MakeUR(d_, 80, 16 * 80, 7);
    program_ = *YannakakisProgram(d_, x_);
  }

  DatabaseSchema d_;
  AttrSet x_;
  std::vector<Relation> states_;
  Program program_{0};
};

TEST_F(ExecRetireTest, FreesConsumedStatesKeepsSinksAndResult) {
  std::vector<Relation> serial = program_.Execute(states_);
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(program_);
  for (int threads : {1, 2, 4}) {
    std::unique_ptr<PooledCtx> pooled;
    exec::ExecContext ctx;
    if (threads != 1) {
      pooled = std::make_unique<PooledCtx>(threads);
      ctx = pooled->ctx;
      ctx.morsel_rows = 16;
    }
    ctx.retire_consumed = true;
    exec::QueryStats query_stats;
    ctx.query_stats = &query_stats;
    std::vector<Relation> out = plan.Execute(states_, ctx);
    ASSERT_EQ(out.size(), serial.size());
    int64_t freed = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      if (plan.ReaderCounts()[i] == 0) {
        // Sinks — including the program result — survive bit-identically.
        EXPECT_TRUE(out[i].IdenticalTo(serial[i])) << "state " << i;
      } else {
        // Every consumed state was freed once its last reader finished.
        EXPECT_EQ(out[i].NumRows(), 0) << "state " << i;
        EXPECT_TRUE(out[i].Schema() == serial[i].Schema()) << "state " << i;
        ++freed;
      }
    }
    EXPECT_GT(freed, 0);
    EXPECT_EQ(query_stats.retired_states, freed) << "threads " << threads;
    EXPECT_GT(query_stats.peak_state_bytes, 0);
  }
}

TEST_F(ExecRetireTest, RetainListExemptsStates) {
  std::vector<Relation> serial = program_.Execute(states_);
  // Retain one consumed state (the first base relation, which Yannakakis
  // reads) plus a consumed statement result.
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(program_);
  int consumed_stmt = -1;
  for (size_t i = static_cast<size_t>(program_.num_base());
       i < plan.ReaderCounts().size(); ++i) {
    if (plan.ReaderCounts()[i] > 0) consumed_stmt = static_cast<int>(i);
  }
  ASSERT_GE(consumed_stmt, 0);
  std::vector<int> retain = {0, consumed_stmt};
  exec::ExecContext ctx;
  ctx.retire_consumed = true;
  ctx.retain_states = &retain;
  std::vector<Relation> out = exec::Execute(program_, states_, ctx);
  EXPECT_TRUE(out[0].IdenticalTo(serial[0]));
  EXPECT_TRUE(out[static_cast<size_t>(consumed_stmt)].IdenticalTo(
      serial[static_cast<size_t>(consumed_stmt)]));
}

TEST_F(ExecRetireTest, RetirementShrinksPeakStateBytes) {
  // The memory claim behind the full reducer's retirement: the same program
  // peaks strictly lower with retirement than without.
  auto peak_of = [&](bool retire) {
    exec::ExecContext ctx;
    ctx.retire_consumed = retire;
    exec::QueryStats query_stats;
    ctx.query_stats = &query_stats;
    exec::Execute(program_, states_, ctx);
    return query_stats.peak_state_bytes;
  };
  const int64_t without = peak_of(false);
  const int64_t with = peak_of(true);
  EXPECT_GT(without, 0);
  EXPECT_LT(with, without);
}

TEST(ExecReducerTest, FullReducerRetiresIntermediates) {
  Rng rng(23);
  RandomTreeResult t = RandomTreeSchema(10, 3, rng);
  Rng state_rng(24);
  std::vector<Relation> states = RandomStates(t.schema, 200, 6, state_rng);
  exec::ExecContext ctx;
  exec::QueryStats query_stats;
  ctx.query_stats = &query_stats;
  auto reduced = ApplyFullReducer(t.schema, states, ctx);
  ASSERT_TRUE(reduced.has_value());
  // 2(n−1) semijoins over n base states: every state is consumed except the
  // n final ones (retained or sinks), so base + intermediates retire.
  const int n = t.schema.NumRelations();
  EXPECT_GT(query_stats.retired_states, 0);
  EXPECT_LE(query_stats.retired_states, n + 2 * (n - 1));
  EXPECT_GT(query_stats.peak_state_bytes, 0);
}

// --- Parallel operator kernels, driven directly. ---

class ParallelOpsTest : public ::testing::Test {
 protected:
  // Two relations sharing attribute 1, large enough to split into many
  // morsels at morsel_rows = 32.
  void SetUp() override {
    Rng rng(11);
    r_ = std::make_unique<Relation>(AttrSet{0, 1});
    s_ = std::make_unique<Relation>(AttrSet{1, 2});
    for (int i = 0; i < 700; ++i) {
      r_->AddRow({static_cast<Value>(rng.Below(50)),
                  static_cast<Value>(rng.Below(40))});
      s_->AddRow({static_cast<Value>(rng.Below(40)),
                  static_cast<Value>(rng.Below(50))});
    }
    r_->Canonicalize();
    s_->Canonicalize();
  }

  OpExecOpts ParallelOpts(exec::TaskScheduler* pool) {
    OpExecOpts opts;
    opts.scheduler = pool;
    opts.morsel_rows = 32;
    return opts;
  }

  std::unique_ptr<Relation> r_;
  std::unique_ptr<Relation> s_;
};

TEST_F(ParallelOpsTest, JoinMatchesSerialBitForBit) {
  Relation serial = NaturalJoin(*r_, *s_);
  for (int threads : {2, 4, 8}) {
    exec::TaskScheduler pool(threads);
    Relation parallel = NaturalJoin(*r_, *s_, ParallelOpts(&pool));
    EXPECT_EQ(serial.NumRows(), parallel.NumRows());
    EXPECT_TRUE(serial.IdenticalTo(parallel)) << "threads=" << threads;
  }
}

TEST_F(ParallelOpsTest, SemijoinMatchesSerialAndStaysCanonical) {
  Relation serial = Semijoin(*r_, *s_);
  EXPECT_TRUE(serial.IsCanonical());  // canonical input propagates
  for (int threads : {2, 4, 8}) {
    exec::TaskScheduler pool(threads);
    Relation parallel = Semijoin(*r_, *s_, ParallelOpts(&pool));
    EXPECT_TRUE(parallel.IsCanonical());
    EXPECT_TRUE(serial.IdenticalTo(parallel)) << "threads=" << threads;
  }
}

TEST_F(ParallelOpsTest, ProjectMatchesSerialBitForBit) {
  // Project never forks, and its first-occurrence dedupe depends on its
  // input's row order: over a forked join's output it must reproduce the
  // projection of the unforked join row for row.
  const AttrSet x{0, 2};
  Relation serial = Project(NaturalJoin(*r_, *s_), x);
  for (int threads : {2, 4, 8}) {
    exec::TaskScheduler pool(threads);
    Relation parallel = Project(NaturalJoin(*r_, *s_, ParallelOpts(&pool)), x);
    EXPECT_EQ(serial.NumRows(), parallel.NumRows());
    EXPECT_TRUE(serial.IdenticalTo(parallel)) << "threads=" << threads;
  }
}

TEST_F(ParallelOpsTest, NonDeterministicResultsEqualAsSets) {
  exec::TaskScheduler pool(4);
  OpExecOpts opts = ParallelOpts(&pool);
  Relation join = NaturalJoin(*r_, *s_, opts);
  EXPECT_TRUE(join.EqualsAsSet(NaturalJoin(*r_, *s_)));
  Relation semi = Semijoin(*r_, *s_, opts);
  EXPECT_TRUE(semi.EqualsAsSet(Semijoin(*r_, *s_)));
}

TEST_F(ParallelOpsTest, DisjointSchemasCartesianProduct) {
  // No key columns: every row hashes alike, so one bucket chain holds the
  // whole build and every probe row matches all of it.
  Relation a(AttrSet{0});
  Relation b(AttrSet{1});
  for (Value v = 0; v < 90; ++v) a.AddRow({v});
  for (Value v = 0; v < 7; ++v) b.AddRow({v});
  a.Canonicalize();
  b.Canonicalize();
  Relation serial = NaturalJoin(a, b);
  Relation serial_semi = Semijoin(a, b);
  for (int threads : {2, 4}) {
    exec::TaskScheduler pool(threads);
    OpExecOpts opts = ParallelOpts(&pool);
    opts.morsel_rows = 16;
    Relation parallel = NaturalJoin(a, b, opts);
    EXPECT_EQ(parallel.NumRows(), 90 * 7);
    EXPECT_TRUE(serial.IdenticalTo(parallel)) << "threads=" << threads;
    EXPECT_TRUE(serial_semi.IdenticalTo(Semijoin(a, b, opts)))
        << "threads=" << threads;
  }
}

TEST_F(ParallelOpsTest, EmptyInputsStayEmpty) {
  Relation empty(AttrSet{1, 2});
  Relation empty_probe(AttrSet{0, 1});
  exec::TaskScheduler pool(4);
  OpExecOpts opts = ParallelOpts(&pool);
  // An empty build side behind a forking probe side.
  EXPECT_EQ(NaturalJoin(*r_, empty, opts).NumRows(), 0);
  EXPECT_EQ(Semijoin(*r_, empty, opts).NumRows(), 0);
  EXPECT_TRUE(Semijoin(*r_, empty, opts).IdenticalTo(Semijoin(*r_, empty)));
  // Empty probe sides (and an empty pair) never fork, and match serial.
  EXPECT_TRUE(Semijoin(empty_probe, *s_, opts)
                  .IdenticalTo(Semijoin(empty_probe, *s_)));
  EXPECT_TRUE(NaturalJoin(empty_probe, empty, opts)
                  .IdenticalTo(NaturalJoin(empty_probe, empty)));
}

// A relation over attributes 0..7 whose rows are (i, filler..., key):
// wide probe rows keep the fork grain's row counts small, since arity 8
// auto-sizes to AutoMorselRows(8) = 4096-row morsels. Column 0 keeps the
// rows distinct; attribute 7 is the join key.
Relation WideKeyed(int64_t rows, uint64_t key_domain, uint64_t seed) {
  Rng rng(seed);
  Relation r(AttrSet{0, 1, 2, 3, 4, 5, 6, 7});
  r.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    const Value v = static_cast<Value>(i);
    r.AddRow({v, v % 3, v % 5, v % 7, v % 11, v % 13, v / 3,
              static_cast<Value>(rng.Below(key_domain))});
  }
  r.Canonicalize();
  return r;
}

TEST_F(ParallelOpsTest, AutoMorselsForkOnlyAtTheGrain) {
  // With morsel_rows left at 0, a kernel forks only when its probe side
  // spans kMinMorselsPerThread morsels per pool thread: one morsel short of
  // that it runs serially (no morsels dispatched), and one row more forks.
  // Either way the result is bit-identical to the serial kernel's.
  const int64_t morsel = AutoMorselRows(8);
  Relation s(AttrSet{7, 8});
  for (Value k = 0; k < 3000; k += 2) {
    s.AddRow({k, k % 11});
    s.AddRow({k, k % 11 + 100});
  }
  s.Canonicalize();
  for (int threads : {2, 4}) {
    const int64_t below = (kMinMorselsPerThread * threads - 1) * morsel;
    for (int64_t rows : {below, below + 1}) {
      const bool forks = rows > below;
      Relation r = WideKeyed(rows, 4000, static_cast<uint64_t>(rows));
      exec::TaskScheduler pool(threads);
      OpExecOpts opts;
      opts.scheduler = &pool;
      opts.counters = std::make_shared<exec::QueryCounters>();
      EXPECT_TRUE(NaturalJoin(r, s, opts).IdenticalTo(NaturalJoin(r, s)))
          << "threads=" << threads << " rows=" << rows;
      EXPECT_TRUE(Semijoin(r, s, opts).IdenticalTo(Semijoin(r, s)))
          << "threads=" << threads << " rows=" << rows;
      const int64_t morsels = opts.counters->morsels.load();
      if (forks) {
        EXPECT_GT(morsels, 0) << "threads=" << threads << " rows=" << rows;
      } else {
        EXPECT_EQ(morsels, 0) << "threads=" << threads << " rows=" << rows;
      }
    }
  }
}

// --- Parallel full reducer. ---

TEST(ExecReducerTest, ParallelFullReducerMatchesSerial) {
  Rng rng(21);
  for (int trial = 0; trial < 3; ++trial) {
    RandomTreeResult t = RandomTreeSchema(8, 3, rng);
    Rng state_rng(500 + trial);
    std::vector<Relation> states = RandomStates(t.schema, 120, 4, state_rng);
    auto serial = ApplyFullReducer(t.schema, states);
    ASSERT_TRUE(serial.has_value());
    for (int threads : {2, 4, 8}) {
      PooledCtx pooled(threads);
      pooled.ctx.morsel_rows = 16;
      auto parallel = ApplyFullReducer(t.schema, states, pooled.ctx);
      ASSERT_TRUE(parallel.has_value());
      ASSERT_EQ(serial->size(), parallel->size());
      for (size_t i = 0; i < serial->size(); ++i) {
        EXPECT_TRUE((*serial)[i].IdenticalTo((*parallel)[i]))
            << "state " << i << " threads " << threads;
      }
    }
  }
}

TEST(ExecReducerTest, ParallelReducerRejectsCyclicSchemas) {
  DatabaseSchema d = Aring(5);
  Rng rng(3);
  std::vector<Relation> states = RandomStates(d, 20, 3, rng);
  PooledCtx pooled(4);
  EXPECT_FALSE(ApplyFullReducer(d, states, pooled.ctx).has_value());
}

// --- Steal-storm property tests: the pool's worker 0 parks for its first
// 30 ms, so any work pushed onto its deque must be stolen by the other
// workers (or the caller draining the graph). The parallel-vs-serial
// contracts must hold with stealing forced on. ---

// A PooledCtx variant in steal-storm mode that also collects QueryStats so
// the tests can assert stealing actually happened.
struct StealStormCtx {
  explicit StealStormCtx(int threads) : pool(MakeOptions(threads)) {
    ctx.threads = threads;
    ctx.pool = &pool;
    ctx.morsel_rows = 16;  // force morsel splitting on small states
    ctx.query_stats = &query_stats;
  }
  static exec::ExecutorPool::Options MakeOptions(int threads) {
    exec::ExecutorPool::Options options;
    options.threads = threads;
    options.worker0_start_delay_ms = 30;
    return options;
  }
  exec::ExecutorPool pool;
  exec::ExecContext ctx;
  exec::QueryStats query_stats;
};

TEST(StealStormTest, TreeSchemaMatchesSerialUnderForcedStealing) {
  DatabaseSchema d = PathSchema(6);
  AttrSet x{0, 5};
  std::vector<Relation> states = MakeUR(d, 200, 16 * 60, 7042);
  int64_t total_stolen = 0;
  for (const Program& p : AllStrategyPrograms(d, x)) {
    Program::Stats serial_stats;
    std::vector<Relation> serial = p.ExecuteWithStats(states, &serial_stats);
    // EqualsAsSet canonicalizes both sides in place, so the set comparisons
    // run against a sacrificial copy — `serial` must stay byte-pristine for
    // the bit-identity checks.
    std::vector<Relation> serial_sets = serial;
    for (int threads : {2, 4, 8}) {
      for (bool deterministic : {true, false}) {
        StealStormCtx storm(threads);
        storm.ctx.deterministic = deterministic;
        Program::Stats par_stats;
        std::vector<Relation> parallel =
            exec::Execute(p, states, storm.ctx, &par_stats);
        if (deterministic) {
          ExpectBitIdentical(serial, parallel);
          EXPECT_EQ(serial_stats.max_intermediate_rows,
                    par_stats.max_intermediate_rows);
          EXPECT_EQ(serial_stats.total_rows_produced,
                    par_stats.total_rows_produced);
          EXPECT_EQ(serial_stats.result_rows, par_stats.result_rows);
        } else {
          ASSERT_EQ(serial_sets.size(), parallel.size());
          for (size_t i = 0; i < serial_sets.size(); ++i) {
            EXPECT_TRUE(serial_sets[i].EqualsAsSet(parallel[i]))
                << "state " << i << " threads " << threads;
          }
        }
        total_stolen += storm.query_stats.tasks_stolen;
      }
    }
  }
  // Across ~dozens of queries with worker 0 parked, at least one task must
  // have been stolen (the exact count is scheduling-dependent).
  EXPECT_GT(total_stolen, 0);
}

TEST(StealStormTest, CyclicFixpointMatchesSerialUnderForcedStealing) {
  DatabaseSchema d = Aring(5);
  Rng rng(911);
  std::vector<Relation> states = RandomStates(d, 200, 8, rng);
  int serial_steps = -1;
  std::vector<Relation> serial = SemijoinFixpoint(d, states, &serial_steps);
  // Sacrificial copy for the set comparisons (EqualsAsSet canonicalizes in
  // place; `serial` must stay byte-pristine for IdenticalTo).
  std::vector<Relation> serial_sets = serial;
  int64_t total_stolen = 0;
  for (int threads : {2, 4, 8}) {
    for (bool deterministic : {true, false}) {
      StealStormCtx storm(threads);
      storm.ctx.deterministic = deterministic;
      int steps = -1;
      std::vector<Relation> parallel =
          SemijoinFixpoint(d, states, storm.ctx, &steps);
      // Effective-step counts depend only on row counts, which are
      // mode-independent — equal to serial in both modes.
      EXPECT_EQ(steps, serial_steps) << "threads " << threads;
      ASSERT_EQ(serial.size(), parallel.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        if (deterministic) {
          EXPECT_EQ(serial[i].IsCanonical(), parallel[i].IsCanonical())
              << "relation " << i << " threads " << threads;
          EXPECT_TRUE(serial[i].IdenticalTo(parallel[i]))
              << "relation " << i << " threads " << threads;
        } else {
          EXPECT_TRUE(serial_sets[i].EqualsAsSet(parallel[i]))
              << "relation " << i << " threads " << threads;
        }
      }
      total_stolen += storm.query_stats.tasks_stolen;
    }
  }
  EXPECT_GT(total_stolen, 0);
}

// --- Sideways information passing: a downstream chain statement's
// build-side Bloom filter pre-prunes upstream probes. No false negatives,
// so results must be bit-identical with SIP on or off, serial or parallel,
// at every thread count. ---

// A chain where SIP provably fires: s0 = R0 ⋉ R1, s1 = s0 ⋉ R2, key {a}
// throughout. R2's key domain is tiny, so the filter over R2 rejects most
// R0 rows already at s0.
struct SipChain {
  SipChain() : program(3) {
    program.AddSemijoin(0, 1);      // slot 3
    program.AddSemijoin(3, 2);      // slot 4
    Relation r0(AttrSet{0, 1});
    Relation r1(AttrSet{0});
    Relation r2(AttrSet{0});
    Rng rng(4242);
    for (int i = 0; i < 300; ++i) {
      r0.AddRow({static_cast<Value>(rng.Below(50)),
                 static_cast<Value>(rng.Below(1000))});
    }
    for (Value v = 0; v < 50; ++v) r1.AddRow({v});
    for (Value v = 0; v < 5; ++v) r2.AddRow({v});
    r0.Canonicalize();
    r1.Canonicalize();
    r2.Canonicalize();
    states = {std::move(r0), std::move(r1), std::move(r2)};
  }
  Program program;
  std::vector<Relation> states;
};

TEST(SipTest, ChainPrunesSerialAndKeepsFinalStateBitIdentical) {
  SipChain chain;
  exec::ExecContext on;  // serial, enable_sip defaults to true
  exec::QueryStats on_stats;
  on.query_stats = &on_stats;
  std::vector<Relation> with_sip =
      exec::Execute(chain.program, chain.states, on);

  exec::ExecContext off;
  off.enable_sip = false;
  exec::QueryStats off_stats;
  off.query_stats = &off_stats;
  std::vector<Relation> without_sip =
      exec::Execute(chain.program, chain.states, off);

  // ~45 of R0's 50 key values are absent from R2; modulo Bloom false
  // positives almost every such probe row is SIP-pruned at s0.
  EXPECT_GT(on_stats.sip_rows_pruned, 0);
  EXPECT_EQ(off_stats.sip_rows_pruned, 0);
  // The SIP contract: base slots and the chain's FINAL state are untouched;
  // the single-reader intermediate (slot 3) legitimately shrinks — its
  // pruned rows are exactly work the chain no longer redoes at s1.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(with_sip[i].IdenticalTo(without_sip[i])) << "base " << i;
  }
  EXPECT_TRUE(with_sip[4].IdenticalTo(without_sip[4]));
  EXPECT_LT(with_sip[3].NumRows(), without_sip[3].NumRows());
}

TEST(SipTest, ChainParallelMatchesSerialBothModes) {
  SipChain chain;
  std::vector<Relation> serial =
      exec::Execute(chain.program, chain.states, exec::ExecContext());
  std::vector<Relation> serial_sets = serial;  // sacrificial for EqualsAsSet
  int64_t total_pruned = 0;
  for (int threads : {2, 4, 8}) {
    for (bool deterministic : {true, false}) {
      StealStormCtx storm(threads);
      storm.ctx.deterministic = deterministic;
      std::vector<Relation> parallel =
          exec::Execute(chain.program, chain.states, storm.ctx);
      if (deterministic) {
        ExpectBitIdentical(serial, parallel);
      } else {
        ASSERT_EQ(serial_sets.size(), parallel.size());
        for (size_t i = 0; i < serial_sets.size(); ++i) {
          EXPECT_TRUE(serial_sets[i].EqualsAsSet(parallel[i]))
              << "state " << i << " threads " << threads;
        }
      }
      total_pruned += storm.query_stats.sip_rows_pruned;
    }
  }
  EXPECT_GT(total_pruned, 0);
}

TEST(SipTest, AllStrategiesKeepSinksUnchangedBySip) {
  // The property the registry must uphold on every plan shape the solver
  // emits (full-reducer chains included): SIP toggling never changes any
  // sink state — the caller-visible results. Consumed single-reader chain
  // intermediates MAY shrink (pruned rows are exactly the rows their
  // downstream eliminator drops), which is the saved work.
  DatabaseSchema d = PathSchema(6);
  AttrSet x{0, 5};
  std::vector<Relation> states = MakeUR(d, 150, 10 * 60, 5150);
  for (const Program& p : AllStrategyPrograms(d, x)) {
    exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
    exec::ExecContext off;
    off.enable_sip = false;
    std::vector<Relation> without_sip = exec::Execute(p, states, off);
    std::vector<Relation> with_sip =
        exec::Execute(p, states, exec::ExecContext());
    ASSERT_EQ(without_sip.size(), with_sip.size());
    for (size_t i = 0; i < with_sip.size(); ++i) {
      if (plan.ReaderCounts()[i] != 0) continue;
      EXPECT_TRUE(with_sip[i].IdenticalTo(without_sip[i])) << "sink " << i;
    }
  }
}

// --- The in-order morsel probe: NaturalJoin's per-morsel match lists,
// concatenated in morsel order, must reproduce the serial global output
// order under forced work stealing, on tree and cyclic schemas alike, and
// on skewed and Bloom-rejected probe sides. ---

TEST(JoinScatterStormTest, JoinHeavyProgramsMatchSerialUnderStealing) {
  // FullJoinProgram is all NaturalJoins — the kernel under test — and
  // Aring(4) adds the cyclic case no qual-tree strategy covers.
  struct Case {
    DatabaseSchema d;
    AttrSet x;
  };
  std::vector<Case> cases;
  cases.push_back({PathSchema(5), AttrSet{0, 4}});
  cases.push_back({Aring(4), AttrSet{0, 2}});
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    std::vector<Relation> states =
        MakeUR(cases[ci].d, 220, 12 * 60, 7100 + static_cast<uint64_t>(ci));
    Program p = FullJoinProgram(cases[ci].d, cases[ci].x);
    std::vector<Relation> serial = p.Execute(states);
    std::vector<Relation> serial_sets = serial;
    for (int threads : {2, 4, 8}) {
      for (bool deterministic : {true, false}) {
        StealStormCtx storm(threads);
        storm.ctx.deterministic = deterministic;
        std::vector<Relation> parallel =
            exec::Execute(p, states, storm.ctx);
        if (deterministic) {
          ExpectBitIdentical(serial, parallel);
        } else {
          ASSERT_EQ(serial_sets.size(), parallel.size());
          for (size_t i = 0; i < serial_sets.size(); ++i) {
            EXPECT_TRUE(serial_sets[i].EqualsAsSet(parallel[i]))
                << "case " << ci << " state " << i << " threads " << threads;
          }
        }
      }
    }
  }
}

TEST(JoinScatterStormTest, KernelBitIdenticalAcrossMorselSizes) {
  // Drive the morsel probe directly: skewed keys (long bucket chains) and
  // several morsel sizes, so hot keys straddle morsel boundaries.
  Relation r(AttrSet{0, 1});
  Relation s(AttrSet{1, 2});
  Rng rng(8181);
  for (int i = 0; i < 900; ++i) {
    // Zipf-ish skew: half the rows land on 4 hot keys.
    const Value hot = static_cast<Value>(rng.Below(2) ? rng.Below(4)
                                                      : rng.Below(60));
    r.AddRow({static_cast<Value>(rng.Below(40)), hot});
    s.AddRow({static_cast<Value>(rng.Below(60)),
              static_cast<Value>(rng.Below(40))});
  }
  r.Canonicalize();
  s.Canonicalize();
  Relation serial = NaturalJoin(r, s);
  // Sacrificial copy for the set comparisons (EqualsAsSet canonicalizes in
  // place; `serial` must stay byte-pristine for IdenticalTo).
  Relation serial_sets = serial;
  for (int threads : {2, 4, 8}) {
    for (int64_t morsel_rows : {16, 64, 257}) {
      exec::TaskScheduler pool(threads);
      OpExecOpts opts;
      opts.scheduler = &pool;
      opts.morsel_rows = morsel_rows;
      Relation parallel = NaturalJoin(r, s, opts);
      EXPECT_TRUE(serial.IdenticalTo(parallel))
          << "threads=" << threads << " morsel_rows=" << morsel_rows;
      Relation unordered = NaturalJoin(r, s, opts);
      EXPECT_TRUE(unordered.EqualsAsSet(serial_sets))
          << "threads=" << threads << " morsel_rows=" << morsel_rows;
    }
  }
}

TEST(JoinScatterStormTest, SkewedKeysLargerThanAMorsel) {
  // One probe key covers rows 100..499 — more than six morsels of 64 — and
  // one build key has 150 rows, so a single probe row's matches outnumber a
  // morsel and the hot key's probe rows straddle several morsel boundaries.
  Relation r(AttrSet{0, 1});
  Relation s(AttrSet{1, 2});
  Rng rng(8383);
  for (int i = 0; i < 1000; ++i) {
    const bool hot = i >= 100 && i < 500;
    r.AddRow({static_cast<Value>(i),
              hot ? 7 : static_cast<Value>(rng.Below(50))});
  }
  for (int i = 0; i < 400; ++i) {
    s.AddRow({i < 150 ? 7 : static_cast<Value>(rng.Below(50)),
              static_cast<Value>(i)});
  }
  r.Canonicalize();
  s.Canonicalize();
  Relation serial_join = NaturalJoin(r, s);
  Relation serial_semi = Semijoin(r, s);
  for (int threads : {2, 4}) {
    exec::TaskScheduler pool(threads);
    OpExecOpts opts;
    opts.scheduler = &pool;
    opts.morsel_rows = 64;
    EXPECT_TRUE(NaturalJoin(r, s, opts).IdenticalTo(serial_join))
        << "threads=" << threads;
    EXPECT_TRUE(Semijoin(r, s, opts).IdenticalTo(serial_semi))
        << "threads=" << threads;
  }
}

TEST(JoinScatterStormTest, BloomRejectedMorselsContributeNothing) {
  // The probe side is sorted on its key, and only keys 500 and up exist in
  // the build: the leading morsels' rows are (Bloom false positives aside)
  // all rejected by the build's filter, so those morsels come back with
  // empty outputs that the prefix sum must skip cleanly. Every morsel tests
  // the same filter, so the forked kernels prune exactly the rows the
  // unforked ones do.
  Relation r(AttrSet{0, 1});
  Relation s(AttrSet{0, 2});
  for (Value k = 0; k < 1000; ++k) {
    for (Value j = 0; j < 3; ++j) r.AddRow({k, j});
  }
  for (Value k = 500; k < 1000; ++k) s.AddRow({k, k % 17});
  r.Canonicalize();
  s.Canonicalize();
  OpExecOpts serial_opts;
  serial_opts.counters = std::make_shared<exec::QueryCounters>();
  Relation serial_join = NaturalJoin(r, s, serial_opts);
  Relation serial_semi = Semijoin(r, s, serial_opts);
  const int64_t serial_pruned = serial_opts.counters->probe_rows_pruned.load();
  EXPECT_GT(serial_pruned, 0);
  exec::TaskScheduler pool(4);
  OpExecOpts opts;
  opts.scheduler = &pool;
  opts.morsel_rows = 100;
  opts.counters = std::make_shared<exec::QueryCounters>();
  EXPECT_TRUE(NaturalJoin(r, s, opts).IdenticalTo(serial_join));
  EXPECT_TRUE(Semijoin(r, s, opts).IdenticalTo(serial_semi));
  EXPECT_EQ(opts.counters->probe_rows_pruned.load(), serial_pruned);
}

TEST(JoinScatterStormTest, QueryMorselsFollowTheGrain) {
  // Through the exec runtime with auto-sized morsels: a one-join query
  // dispatches no morsels one morsel short of the fork grain and some at
  // the grain, and matches the serial engine either way.
  const int64_t morsel = AutoMorselRows(8);
  Relation s(AttrSet{7, 8});
  for (Value k = 0; k < 2000; ++k) s.AddRow({k, k % 3});
  s.Canonicalize();
  Program p(2);
  p.AddJoin(0, 1);
  for (int threads : {2, 4}) {
    const int64_t below = (kMinMorselsPerThread * threads - 1) * morsel;
    for (int64_t rows : {below, below + morsel}) {
      std::vector<Relation> states = {
          WideKeyed(rows, 2500, static_cast<uint64_t>(threads)), s};
      std::vector<Relation> serial = p.Execute(states);
      PooledCtx pooled(threads);
      exec::QueryStats query_stats;
      pooled.ctx.query_stats = &query_stats;
      ExpectBitIdentical(serial, exec::Execute(p, states, pooled.ctx));
      if (rows > below) {
        EXPECT_GT(query_stats.morsels, 0) << "threads=" << threads;
      } else {
        EXPECT_EQ(query_stats.morsels, 0) << "threads=" << threads;
      }
    }
  }
}

// --- The statement-level fork rule: a query runs its statements as a task
// graph only when the pool has more than one thread, the plan is not a
// chain, and the input is big enough; otherwise inline in program order. ---

TEST(StatementForkTest, RuleFlipsAtEveryEdge) {
  // A 3-statement plan with a critical path of 2 (two independent sources
  // and their join) over an input exactly at the grain forks...
  const int64_t grain = exec::kMinStatementForkRows;
  EXPECT_TRUE(exec::ForkStatementGraph(2, 3, 2, grain, 0));
  // ...but not on a 1-thread pool,
  EXPECT_FALSE(exec::ForkStatementGraph(1, 3, 2, grain, 0));
  // nor as a chain, at any size,
  EXPECT_FALSE(exec::ForkStatementGraph(2, 3, 3, grain, 0));
  EXPECT_FALSE(exec::ForkStatementGraph(4, 3, 3, int64_t{1} << 30, 0));
  EXPECT_FALSE(exec::ForkStatementGraph(2, 1, 1, grain, 0));
  EXPECT_FALSE(exec::ForkStatementGraph(2, 0, 0, grain, 0));
  // nor one row under the grain.
  EXPECT_FALSE(exec::ForkStatementGraph(2, 3, 2, grain - 1, 0));
  // An explicit morsel size replaces the grain: one morsel stays inline,
  // two fork, whatever the grain says.
  EXPECT_FALSE(exec::ForkStatementGraph(2, 3, 2, 16, 16));
  EXPECT_TRUE(exec::ForkStatementGraph(2, 3, 2, 17, 16));
  EXPECT_TRUE(exec::ForkStatementGraph(2, 3, 2, 32, 16));
  EXPECT_FALSE(exec::ForkStatementGraph(2, 3, 2, grain, grain));
  EXPECT_TRUE(exec::ForkStatementGraph(2, 3, 2, grain + 1, grain));
}

TEST(StatementForkTest, ChainPlansAreChains) {
  // The chain clause: a left-deep full join of the 6-ring is a chain of
  // joins ending in its projection. The plans the served workloads run are
  // not chains: the CC-pruned ring joins two halves that meet on the
  // target, and the Yannakakis program of an 8-relation path has
  // independent semijoins.
  const Program chain = FullJoinProgram(Aring(6), AttrSet{0, 3});
  const exec::PhysicalPlan chain_plan = exec::PhysicalPlan::Compile(chain);
  EXPECT_EQ(chain.NumStatements(), 6);
  EXPECT_EQ(chain_plan.CriticalPathLength(), 6);
  const Program ring = CCPrunedProgram(Aring(6), AttrSet{0, 3});
  const exec::PhysicalPlan ring_plan = exec::PhysicalPlan::Compile(ring);
  EXPECT_EQ(ring.NumStatements(), 6);
  EXPECT_LT(ring_plan.CriticalPathLength(), ring.NumStatements());
  const Program path = *YannakakisProgram(PathSchema(9), AttrSet{0, 8});
  const exec::PhysicalPlan path_plan = exec::PhysicalPlan::Compile(path);
  EXPECT_EQ(path.NumStatements(), 28);
  EXPECT_EQ(path_plan.CriticalPathLength(), 22);
}

TEST(StatementForkTest, BothDriversMatchSerialAtTheGrain) {
  // Every strategy's program over a tree schema whose largest relation
  // sits one row under the grain (every query inline) and at the grain
  // (non-chain plans fork), through both pooled entry points at 2 and 4
  // threads, SIP on and off, retirement on: the states, the Stats, the
  // retirement count and the SIP pruning all equal the serial run's.
  // A star around attribute 0 with one more relation hanging off a leaf:
  // its full reducer semijoins one relation by two base leaves on the same
  // key, so SIP prunes, and its plans are not all chains.
  const DatabaseSchema d{AttrSet{0, 1}, AttrSet{0, 2}, AttrSet{0, 3},
                         AttrSet{2, 4}, AttrSet{0, 5}, AttrSet{0, 6}};
  const AttrSet x{0, 1};  // inside one relation: tree projection applies
  int forked = 0;
  int inline_runs = 0;
  int64_t forked_sip_pruned = 0;
  int64_t forked_retired = 0;
  for (int64_t rows :
       {exec::kMinStatementForkRows - 1, exec::kMinStatementForkRows}) {
    // Half the rows planted from one universal relation (key-like values,
    // so no projected duplicates), half dangling from each relation's own
    // value band, which SIP and the semijoins prune: every relation holds
    // exactly `rows` rows.
    std::vector<Relation> states =
        MakeUR(d, static_cast<int>(rows / 2), 1 << 20, 4000);
    for (size_t i = 0; i < states.size(); ++i) {
      const Value band = static_cast<Value>(i + 1) << 21;
      for (Value k = rows / 2; k < rows; ++k) states[i].AddRow({band + k, k});
      states[i].Canonicalize();
    }
    int64_t max_rows = 0;
    for (const Relation& r : states) max_rows = std::max(max_rows, r.NumRows());
    ASSERT_EQ(max_rows, rows);
    for (const Program& p : AllStrategyPrograms(d, x)) {
      const exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
      for (bool sip : {true, false}) {
        exec::ExecContext serial_ctx;
        serial_ctx.retire_consumed = true;
        serial_ctx.enable_sip = sip;
        exec::QueryStats serial_query;
        serial_ctx.query_stats = &serial_query;
        Program::Stats serial_stats;
        const std::vector<Relation> serial =
            exec::Execute(p, states, serial_ctx, &serial_stats);
        for (int threads : {2, 4}) {
          SCOPED_TRACE(testing::Message()
                       << "rows=" << rows << " sip=" << sip
                       << " threads=" << threads);
          const bool forks = exec::ForkStatementGraph(
              threads, p.NumStatements(), plan.CriticalPathLength(), rows, 0);
          ++(forks ? forked : inline_runs);
          PooledCtx pooled(threads);
          exec::ExecContext ctx = pooled.ctx;
          ctx.retire_consumed = true;
          ctx.enable_sip = sip;
          exec::QueryStats query;
          ctx.query_stats = &query;
          auto expect_serial = [&](const std::vector<Relation>& out,
                                   const Program::Stats& stats) {
            ExpectBitIdentical(serial, out);
            EXPECT_EQ(stats.max_intermediate_rows,
                      serial_stats.max_intermediate_rows);
            EXPECT_EQ(stats.total_rows_produced,
                      serial_stats.total_rows_produced);
            EXPECT_EQ(stats.result_rows, serial_stats.result_rows);
            EXPECT_EQ(query.retired_states, serial_query.retired_states);
            EXPECT_EQ(query.sip_rows_pruned, serial_query.sip_rows_pruned);
            EXPECT_EQ(query.probe_rows_pruned,
                      serial_query.probe_rows_pruned);
            EXPECT_EQ(query.tasks, p.NumStatements());
            if (!forks) {
              // No kernel of these inputs reaches the kernel fork grain, so
              // an inline query hands nothing to the pool.
              EXPECT_EQ(query.morsels, 0);
              EXPECT_EQ(query.tasks_stolen, 0);
            }
          };
          Program::Stats stats;
          expect_serial(exec::Execute(p, states, ctx, &stats), stats);
          exec::ExecutorPool::AdmitResult admit = pooled.pool.TryAdmit();
          ASSERT_EQ(admit.status, exec::ExecutorPool::AdmitStatus::kAdmitted);
          std::vector<Relation> admitted =
              plan.ExecuteAdmitted(states, ctx, *admit.admission, &stats);
          admit.admission.reset();
          expect_serial(admitted, stats);
          if (forks) {
            forked_sip_pruned += query.sip_rows_pruned;
            forked_retired += query.retired_states;
          }
        }
      }
    }
  }
  // Both drivers ran: the grain's lower side is all inline, its upper side
  // forks every non-chain plan, and the forked runs both pruned through SIP
  // and retired states.
  EXPECT_GT(forked, 0);
  EXPECT_GT(inline_runs, forked);
  EXPECT_GT(forked_sip_pruned, 0);
  EXPECT_GT(forked_retired, 0);
}

// --- Eager validation (satellite): malformed statements must fail up front
// with an error naming the statement index. ---

using ProgramValidationDeathTest = ::testing::Test;

TEST(ProgramValidationDeathTest, ProjectingAbsentAttributeNamesStatement) {
  Program p(2);
  p.AddJoin(0, 1);              // statement 0, fine
  p.AddProject(2, AttrSet{9});  // statement 1: attribute 9 exists nowhere
  std::vector<Relation> base = {Relation(AttrSet{0, 1}),
                                Relation(AttrSet{1, 2})};
  EXPECT_DEATH(p.Execute(base), "statement 1");
  DatabaseSchema d{AttrSet{0, 1}, AttrSet{1, 2}};
  EXPECT_DEATH(p.DerivedSchema(d), "statement 1");
}

TEST(ProgramValidationDeathTest, ValidationRunsBeforeExecution) {
  // The first statement is executable, the second malformed: eager
  // validation must reject the program without running statement 0 (the
  // error names statement 1, not a mid-execution operator failure).
  Program p(1);
  p.AddProject(0, AttrSet{0});
  p.AddProject(1, AttrSet{7});
  std::vector<Relation> base = {Relation(AttrSet{0, 1})};
  EXPECT_DEATH(p.Execute(base), "statement 1: projection target");
}

TEST(ProgramValidationDeathTest, BaseArityMismatchDies) {
  Program p(2);
  p.AddJoin(0, 1);
  std::vector<Relation> base = {Relation(AttrSet{0, 1})};
  EXPECT_DEATH(p.Execute(base), "base has 1 relations, program expects 2");
}

TEST(ProgramValidationDeathTest, ValidateReturnsDerivedSchemas) {
  Program p(2);
  int j = p.AddJoin(0, 1);
  p.AddProject(j, AttrSet{0, 2});
  std::vector<AttrSet> schemas = p.ValidateAndDeriveSchemas(
      {AttrSet{0, 1}, AttrSet{1, 2}});
  ASSERT_EQ(schemas.size(), 4u);
  EXPECT_TRUE(schemas[2] == (AttrSet{0, 1, 2}));
  EXPECT_TRUE(schemas[3] == (AttrSet{0, 2}));
}

}  // namespace
}  // namespace gyo
