#include "rel/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gyo/acyclic.h"
#include "query/tree_projection.h"
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

}  // namespace
}  // namespace gyo
