#include "rel/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "gyo/acyclic.h"
#include "query/tree_projection.h"
#include "rel/ops.h"
#include "rel/universal.h"
#include "schema/fixtures.h"
#include "schema/generators.h"
#include "schema/parse.h"
#include "tableau/canonical.h"
#include "util/rng.h"

namespace gyo {
namespace {

class SolverTest : public ::testing::Test {
 protected:
  Catalog catalog_;
};

TEST_F(SolverTest, FullJoinSolvesEverything) {
  Rng rng(281);
  for (int trial = 0; trial < 25; ++trial) {
    DatabaseSchema d = RandomSchema(2 + static_cast<int>(rng.Below(4)),
                                    2 + static_cast<int>(rng.Below(5)),
                                    1 + static_cast<int>(rng.Below(4)), rng);
    AttrSet x;
    d.Universe().ForEach([&](AttrId a) {
      if (rng.Chance(0.5)) x.Insert(a);
    });
    Program p = FullJoinProgram(d, x);
    EXPECT_TRUE(SolvesQueryEmpirically(p, d, x, 8, rng)) << "trial " << trial;
  }
}

TEST_F(SolverTest, CCPrunedSolvesOnURDatabases) {
  Rng rng(283);
  for (int trial = 0; trial < 25; ++trial) {
    DatabaseSchema d = RandomSchema(2 + static_cast<int>(rng.Below(4)),
                                    2 + static_cast<int>(rng.Below(5)),
                                    1 + static_cast<int>(rng.Below(4)), rng);
    AttrSet x;
    d.Universe().ForEach([&](AttrId a) {
      if (rng.Chance(0.5)) x.Insert(a);
    });
    Program p = CCPrunedProgram(d, x);
    EXPECT_TRUE(SolvesQueryEmpirically(p, d, x, 8, rng)) << "trial " << trial;
  }
}

TEST_F(SolverTest, CCPrunedSec6UsesOnlyRelevantRelations) {
  DatabaseSchema d = fixtures::Sec6D(catalog_);
  AttrSet x = fixtures::Sec6X(catalog_);
  Program p = CCPrunedProgram(d, x);
  // The program should touch only relations 0, 1, 2 (abg, bcg, acf).
  for (const Program::Statement& s : p.Statements()) {
    if (s.lhs < p.num_base()) {
      EXPECT_LE(s.lhs, 2);
    }
    if (s.rhs >= 0 && s.rhs < p.num_base()) {
      EXPECT_LE(s.rhs, 2);
    }
  }
  Rng rng(293);
  EXPECT_TRUE(SolvesQueryEmpirically(p, d, x, 20, rng));
}

TEST_F(SolverTest, CCPrunedIsExactOnURStatesOnly) {
  // The counterexample docs/protocol.md gives: the triangle ab,bc,ca with
  // target a over states that are not UR. The full join is empty, but
  // CC(D, a) is the single relation a, taken from ca, so CC-pruned returns
  // ca's one a-value.
  const DatabaseSchema d{AttrSet{0, 1}, AttrSet{1, 2}, AttrSet{0, 2}};
  const AttrSet x{0};
  std::vector<Relation> states;
  for (int i = 0; i < 3; ++i) {
    states.emplace_back(d[i]);
    states.back().AddRow({i + 1, i + 1});
  }
  EXPECT_EQ(FullJoinProgram(d, x).Run(states).NumRows(), 0);
  const Relation pruned = CCPrunedProgram(d, x).Run(states);
  ASSERT_EQ(pruned.NumRows(), 1);
  EXPECT_EQ(pruned.Cell(0, 0), 3);
}

TEST_F(SolverTest, YannakakisRejectsCyclic) {
  EXPECT_FALSE(YannakakisProgram(Aring(4), AttrSet{0, 1}).has_value());
}

TEST_F(SolverTest, YannakakisSolvesTreeSchemas) {
  Rng rng(307);
  int checked = 0;
  for (int trial = 0; trial < 120 && checked < 25; ++trial) {
    DatabaseSchema d = RandomSchema(2 + static_cast<int>(rng.Below(4)),
                                    2 + static_cast<int>(rng.Below(5)),
                                    1 + static_cast<int>(rng.Below(4)), rng);
    if (!IsTreeSchema(d)) continue;
    ++checked;
    AttrSet x;
    d.Universe().ForEach([&](AttrId a) {
      if (rng.Chance(0.5)) x.Insert(a);
    });
    auto p = YannakakisProgram(d, x);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(SolvesQueryEmpirically(*p, d, x, 8, rng)) << "trial " << trial;
  }
  EXPECT_GE(checked, 15);
}

TEST_F(SolverTest, YannakakisWithoutOptionsStillSolves) {
  DatabaseSchema d = PathSchema(5);
  AttrSet x{0, 4};
  Rng rng(311);
  for (bool reduce : {false, true}) {
    for (bool project : {false, true}) {
      auto p = YannakakisProgram(d, x, YannakakisOptions{reduce, project});
      ASSERT_TRUE(p.has_value());
      EXPECT_TRUE(SolvesQueryEmpirically(*p, d, x, 10, rng))
          << "reduce=" << reduce << " project=" << project;
    }
  }
}

TEST_F(SolverTest, YannakakisSemijoinCount) {
  // The full reducer uses exactly 2(n-1) semijoins on a connected tree.
  DatabaseSchema d = PathSchema(6);  // 5 relations
  auto p = YannakakisProgram(d, AttrSet{0});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->NumSemijoins(), 2 * (5 - 1));
}

TEST_F(SolverTest, FullReducerProgramShapeAndFinalIds) {
  DatabaseSchema d = PathSchema(5);  // 4 relations, tree
  auto plan = FullReducerProgram(d);
  ASSERT_TRUE(plan.has_value());
  const int n = d.NumRelations();
  EXPECT_EQ(plan->program.NumStatements(), 2 * (n - 1));
  EXPECT_EQ(plan->program.NumSemijoins(), 2 * (n - 1));
  ASSERT_EQ(plan->final_ids.size(), static_cast<size_t>(n));
  // Every node ends on a statement result and the ids are distinct.
  std::vector<int> sorted = plan->final_ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  for (int id : plan->final_ids) EXPECT_GE(id, n);
  // Cyclic schemas have no full reducer.
  EXPECT_FALSE(FullReducerProgram(Aring(3)).has_value());
}

TEST_F(SolverTest, TreeProjectionProgramOnPaperExample) {
  // Solve the 8-ring query through the §3.2 tree projection bags.
  DatabaseSchema d = fixtures::Sec32D(catalog_);
  AttrSet x = ParseAttrSet(catalog_, "ae");
  DatabaseSchema bags = ParseSchema(catalog_, "abcde,efgha");
  auto p = TreeProjectionProgram(d, x, bags);
  ASSERT_TRUE(p.has_value());
  Rng rng(313);
  EXPECT_TRUE(SolvesQueryEmpirically(*p, d, x, 15, rng));
}

TEST_F(SolverTest, TreeProjectionProgramRejectsCyclicBags) {
  DatabaseSchema d = Aring(4);
  EXPECT_FALSE(TreeProjectionProgram(d, AttrSet{0}, d).has_value());
}

TEST_F(SolverTest, TreeProjectionProgramRejectsNonCoveringBags) {
  DatabaseSchema d = ParseSchema(catalog_, "ab,bc");
  DatabaseSchema bags = ParseSchema(catalog_, "ab");
  EXPECT_FALSE(TreeProjectionProgram(d, ParseAttrSet(catalog_, "a"), bags)
                   .has_value());
}

TEST_F(SolverTest, TreeProjectionProgramSemijoinBudget) {
  // Theorem 6.1: at most 2·|D| semijoins suffice. Our construction uses
  // 2(|bags|−1) and |bags| ≤ |D| + 1 in practice; check the paper's bound on
  // the example.
  DatabaseSchema d = fixtures::Sec32D(catalog_);
  DatabaseSchema bags = ParseSchema(catalog_, "abcde,efgha");
  auto p = TreeProjectionProgram(d, ParseAttrSet(catalog_, "ae"), bags);
  ASSERT_TRUE(p.has_value());
  EXPECT_LE(p->NumSemijoins(), 2 * d.NumRelations());
}

TEST_F(SolverTest, TreeProjectionProgramOnRandomRingQueries) {
  // Ring of size n with arc bags found by the TP search.
  Rng rng(317);
  for (int n = 4; n <= 7; ++n) {
    DatabaseSchema d = Aring(n);
    AttrSet x{0, n / 2};
    DatabaseSchema dq = d;
    dq.Add(x);
    // Hosts: two overlapping arcs covering the ring.
    AttrSet arc1;
    AttrSet arc2;
    for (int i = 0; i <= n / 2; ++i) arc1.Insert(i);
    for (int i = n / 2; i <= n; ++i) arc2.Insert(i % n);
    DatabaseSchema dp;
    dp.Add(arc1);
    dp.Add(arc2);
    TreeProjectionResult tp = FindTreeProjection(dp, dq);
    ASSERT_TRUE(tp.projection.has_value()) << "n=" << n;
    auto p = TreeProjectionProgram(d, x, *tp.projection);
    ASSERT_TRUE(p.has_value()) << "n=" << n;
    EXPECT_TRUE(SolvesQueryEmpirically(*p, d, x, 10, rng)) << "n=" << n;
  }
}

TEST_F(SolverTest, TreeProjectionHostsStayInsideTheirBags) {
  // The 6-ring through the bags abcd and adef: each bag is hosted by the
  // base relations inside it (ab, bc, cd and de, ef, fa), so no statement
  // before the reduce phase derives a schema outside a bag — the host of
  // adef no longer joins ab and cd, almost the whole ring.
  const DatabaseSchema d = Aring(6);
  const AttrSet x{0, 3};
  const DatabaseSchema bags{AttrSet{0, 1, 2, 3}, AttrSet{0, 3, 4, 5}};
  auto p = TreeProjectionProgram(d, x, bags);
  ASSERT_TRUE(p.has_value());
  const DatabaseSchema derived = p->DerivedSchema(d);
  int host_statements = 0;
  for (const Program::Statement& s : p->Statements()) {
    if (s.kind == Program::Statement::Kind::kSemijoin) break;
    const AttrSet& schema = derived[p->num_base() + host_statements];
    EXPECT_TRUE(schema.IsSubsetOf(bags[0]) || schema.IsSubsetOf(bags[1]))
        << "statement " << host_statements;
    ++host_statements;
  }
  EXPECT_EQ(host_statements, 4);  // two joins per three-relation arc
  // The answer is π_X(⋈ D) on a state that is not UR.
  Rng rng(331);
  const std::vector<Relation> states = RandomStates(d, 40, 6, rng);
  EXPECT_TRUE(p->Run(states).EqualsAsSet(EvaluateJoinQuery(d, x, states)));
}

TEST_F(SolverTest, Theorem63NecessityOnIdentityProgram) {
  // A program with no statements over a cyclic schema cannot solve the ring
  // query, and indeed P(D) = D admits no tree projection w.r.t. D ∪ {X}.
  DatabaseSchema d = Aring(4);
  AttrSet x{0, 2};
  DatabaseSchema dq = d;
  dq.Add(x);
  TreeProjectionResult tp = FindTreeProjection(d, dq);
  EXPECT_FALSE(tp.projection.has_value());
}

TEST_F(SolverTest, Theorem61SufficiencyOnFullJoin) {
  // FullJoinProgram's derived schema contains U(D), so a tree projection
  // w.r.t. CC ∪ {X} exists — consistent with the program solving the query.
  DatabaseSchema d = Aring(5);
  AttrSet x{0, 2};
  Program p = FullJoinProgram(d, x);
  DatabaseSchema derived = p.DerivedSchema(d);
  CanonicalResult cc = CanonicalConnection(d, x);
  DatabaseSchema dq = cc.schema;
  dq.Add(x);
  TreeProjectionResult tp = FindTreeProjection(derived, dq);
  EXPECT_TRUE(tp.projection.has_value());
}

// --- CC-pruned programs join in attribute-elimination order. The order
// changes which relations meet, never the function: every order computes
// π_X(⋈ π_cc_i(state[src_i])) over the canonical connection's members and
// their projected source states, on any state, and that is π_X(⋈ D) on UR
// states (Theorem 4.1). ---

// The function every CC-pruned join order computes.
Relation EvaluateCanonicalConnection(const DatabaseSchema& d, const AttrSet& x,
                                     const std::vector<Relation>& states) {
  const CanonicalResult cc = CanonicalConnection(d, x);
  std::vector<Relation> cc_states;
  for (int i = 0; i < cc.schema.NumRelations(); ++i) {
    const int src = cc.sources[static_cast<size_t>(i)];
    cc_states.push_back(Project(states[static_cast<size_t>(src)],
                                cc.schema[i]));
  }
  return EvaluateJoinQuery(cc.schema, x, cc_states);
}

// A universal relation over attributes 0..arity-1 with `rows` rows (a power
// of two of at least 2^arity) whose column c holds row i with bit c
// removed: every value occurs twice per column, and no two rows agree on
// two columns, so every binary projection keeps all `rows` rows.
Relation TwiceRegularUniversal(int rows, int arity) {
  AttrSet universe;
  for (AttrId a = 0; a < arity; ++a) universe.Insert(a);
  Relation out(universe);
  std::vector<Value> row(static_cast<size_t>(arity));
  for (int i = 0; i < rows; ++i) {
    for (int c = 0; c < arity; ++c) {
      const int low = i & ((1 << c) - 1);
      row[static_cast<size_t>(c)] = ((i >> (c + 1)) << c) | low;
    }
    out.AddRow(row);
  }
  return out;
}

// Random states in which every relation holds exactly `rows` distinct rows
// (RandomStates dedupes, so its row counts fall short).
std::vector<Relation> ExactRandomStates(const DatabaseSchema& d, int64_t rows,
                                        int domain, Rng& rng) {
  std::vector<Relation> states;
  for (const RelationSchema& r : d.Relations()) {
    Relation state(r);
    std::vector<Value> row(static_cast<size_t>(r.Size()));
    while (state.NumRows() < rows) {
      for (int64_t k = state.NumRows(); k < rows; ++k) {
        for (Value& v : row) v = static_cast<Value>(rng.Below(domain));
        state.AddRow(row);
      }
      state.Canonicalize();
    }
    states.push_back(std::move(state));
  }
  return states;
}

// Pools of 2 and 4 threads, and a tally of how each pooled run executed its
// statements: inline, or as a forked statement graph.
class CCPrunedOrderTest : public ::testing::Test {
 protected:
  static exec::ExecutorPool::Options Width(int threads) {
    exec::ExecutorPool::Options options;
    options.threads = threads;
    return options;
  }

  // Runs `p` serially and through exec::Run on each pool; every pooled
  // answer must be bit-identical to the serial one, which is returned.
  Relation RunEveryWay(const Program& p, const std::vector<Relation>& states,
                       int64_t morsel_rows) {
    const Relation serial = p.Run(states);
    const int critical_path =
        exec::PhysicalPlan::Compile(p).CriticalPathLength();
    int64_t max_rows = 0;
    for (const Relation& r : states) max_rows = std::max(max_rows, r.NumRows());
    for (exec::ExecutorPool* pool : {&pool2_, &pool4_}) {
      exec::ExecContext ctx;
      ctx.threads = pool->threads();
      ctx.pool = pool;
      ctx.morsel_rows = morsel_rows;
      const bool forks =
          exec::ForkStatementGraph(ctx.threads, p.NumStatements(),
                                   critical_path, max_rows, morsel_rows);
      ++(forks ? forked_ : inline_runs_);
      EXPECT_TRUE(exec::Run(p, states, ctx).IdenticalTo(serial))
          << "threads=" << ctx.threads << " morsel_rows=" << morsel_rows;
    }
    return serial;
  }

  exec::ExecutorPool pool2_{Width(2)};
  exec::ExecutorPool pool4_{Width(4)};
  int forked_ = 0;
  int inline_runs_ = 0;
};

TEST_F(CCPrunedOrderTest, RingJoinsTwoHalvesThatMeetOnTheTarget) {
  // (ab⋈bc⋈cd) ⋈ (de⋈ef⋈fa) → π_ad: 5 joins and 1 projection with critical
  // path 4, where the listing-order chain had critical path 6.
  const DatabaseSchema d = Aring(6);
  const AttrSet x{0, 3};
  const Program p = CCPrunedProgram(d, x);
  EXPECT_EQ(p.NumJoins(), 5);
  EXPECT_EQ(p.NumProjects(), 1);
  EXPECT_EQ(p.NumStatements(), 6);
  EXPECT_EQ(exec::PhysicalPlan::Compile(p).CriticalPathLength(), 4);
  // Every value twice per column: each join inside a half doubles it, so
  // the peak is 4× a relation; the left-deep full join reaches 16×.
  constexpr int kRows = 512;
  const std::vector<Relation> states =
      ProjectDatabase(TwiceRegularUniversal(kRows, 6), d);
  for (const Relation& r : states) ASSERT_EQ(r.NumRows(), kRows);
  Program::Stats stats;
  const Relation answer = p.ExecuteWithStats(states, &stats).back();
  EXPECT_EQ(stats.max_intermediate_rows, 4 * kRows);
  EXPECT_TRUE(answer.EqualsAsSet(EvaluateJoinQuery(d, x, states)));
  Program::Stats chain;
  FullJoinProgram(d, x).ExecuteWithStats(states, &chain);
  EXPECT_EQ(chain.max_intermediate_rows, 16 * kRows);
}

TEST_F(CCPrunedOrderTest, MatchesTheCanonicalConnectionOnAnyState) {
  // Seeded connected random schemas (tree and cyclic), rings and fattened
  // rings; random states (not UR) and UR states. An explicit morsel size
  // forks the statement graph of every bushy plan on these small inputs;
  // auto-sized morsels keep them inline.
  Rng rng(337);
  std::vector<DatabaseSchema> schemas;
  while (schemas.size() < 300) {
    DatabaseSchema d = RandomSchema(3 + static_cast<int>(rng.Below(6)),
                                    3 + static_cast<int>(rng.Below(6)),
                                    2 + static_cast<int>(rng.Below(2)), rng);
    if (d.IsConnected()) schemas.push_back(std::move(d));
  }
  for (int n = 4; n <= 8; ++n) schemas.push_back(Aring(n));
  schemas.push_back(FattenedRing(4, 1));
  schemas.push_back(FattenedRing(5, 2));
  int cyclic = 0;
  int bushy = 0;
  for (size_t i = 0; i < schemas.size(); ++i) {
    const DatabaseSchema& d = schemas[i];
    SCOPED_TRACE(testing::Message() << "schema " << i);
    const std::vector<AttrId> universe = d.Universe().ToVector();
    AttrSet x;
    while (x.Size() < std::min<int>(2, static_cast<int>(universe.size()))) {
      x.Insert(universe[static_cast<size_t>(rng.Below(universe.size()))]);
    }
    const Program p = CCPrunedProgram(d, x);
    cyclic += !IsTreeSchema(d);
    bushy += exec::PhysicalPlan::Compile(p).CriticalPathLength() <
             p.NumStatements();
    const std::vector<Relation> arbitrary = RandomStates(d, 10, 3, rng);
    const Relation want = EvaluateCanonicalConnection(d, x, arbitrary);
    for (int64_t morsel_rows : {int64_t{0}, int64_t{3}}) {
      EXPECT_TRUE(RunEveryWay(p, arbitrary, morsel_rows).EqualsAsSet(want));
    }
    const std::vector<Relation> ur =
        ProjectDatabase(RandomUniversal(d.Universe(), 10, 3, rng), d);
    const Relation full = EvaluateJoinQuery(d, x, ur);
    EXPECT_TRUE(EvaluateCanonicalConnection(d, x, ur).EqualsAsSet(full));
    for (int64_t morsel_rows : {int64_t{0}, int64_t{3}}) {
      EXPECT_TRUE(RunEveryWay(p, ur, morsel_rows).EqualsAsSet(full));
    }
  }
  EXPECT_GE(cyclic, 80);
  EXPECT_GE(bushy, 12);
  EXPECT_GT(forked_, 0);
  EXPECT_GT(inline_runs_, forked_);
}

TEST_F(CCPrunedOrderTest, InlineAndForkedRunsMatchSerialAtTheGrain) {
  // Rings whose largest relation sits one row under the statement fork
  // grain (inline) and at it (the bushy plans fork), auto-sized morsels.
  // A domain as large as the relations keeps every join near their size.
  Rng rng(347);
  const int64_t grain = exec::kMinStatementForkRows;
  for (const DatabaseSchema& d :
       {Aring(4), Aring(6), Aring(8), FattenedRing(5, 1)}) {
    const AttrSet x{0, d.NumRelations() / 2};
    const Program p = CCPrunedProgram(d, x);
    for (int64_t rows : {grain - 1, grain}) {
      SCOPED_TRACE(testing::Message() << "ring " << d.NumRelations()
                                      << " rows " << rows);
      const std::vector<Relation> states =
          ExactRandomStates(d, rows, static_cast<int>(grain), rng);
      EXPECT_TRUE(RunEveryWay(p, states, 0).EqualsAsSet(
          EvaluateCanonicalConnection(d, x, states)));
    }
  }
  EXPECT_GT(forked_, 0);
  EXPECT_GT(inline_runs_, 0);
}

}  // namespace
}  // namespace gyo
