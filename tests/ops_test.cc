#include "rel/ops.h"

#include <gtest/gtest.h>

#include "schema/parse.h"
#include "util/rng.h"

namespace gyo {
namespace {

class OpsTest : public ::testing::Test {
 protected:
  Catalog catalog_;

  Relation Make(const char* schema, const std::vector<std::vector<Value>>& rows) {
    Relation r(ParseAttrSet(catalog_, schema));
    r.Reserve(static_cast<int64_t>(rows.size()));
    for (const auto& row : rows) r.AddRow(row);
    r.Canonicalize();
    return r;
  }
};

TEST_F(OpsTest, ProjectDropsColumnsAndDuplicates) {
  Relation r = Make("ab", {{1, 2}, {1, 3}, {4, 5}});
  Relation p = Project(r, ParseAttrSet(catalog_, "a"));
  EXPECT_EQ(p.NumRows(), 2);  // duplicate-free even before canonicalization
  p.Canonicalize();  // row order is unspecified until canonicalized
  EXPECT_EQ(p.Row(0), (std::vector<Value>{1}));
  EXPECT_EQ(p.Row(1), (std::vector<Value>{4}));
}

TEST_F(OpsTest, ProjectToSameSchemaIsIdentity) {
  Relation r = Make("ab", {{1, 2}, {3, 4}});
  EXPECT_TRUE(Project(r, r.Schema()).EqualsAsSet(r));
}

TEST_F(OpsTest, ProjectToEmptySchema) {
  Relation r = Make("ab", {{1, 2}});
  Relation p = Project(r, AttrSet{});
  EXPECT_EQ(p.NumRows(), 1);  // one empty tuple: TRUE
  Relation empty = Make("ab", {});
  EXPECT_EQ(Project(empty, AttrSet{}).NumRows(), 0);  // FALSE
}

TEST_F(OpsTest, NaturalJoinOnSharedColumn) {
  Relation r = Make("ab", {{1, 10}, {2, 20}});
  Relation s = Make("bc", {{10, 100}, {10, 101}, {30, 300}});
  Relation j = NaturalJoin(r, s);
  EXPECT_EQ(j.Schema(), ParseAttrSet(catalog_, "abc"));
  EXPECT_EQ(j.NumRows(), 2);  // (1,10,100) and (1,10,101)
  AttrId a = *catalog_.Find("a");
  AttrId c = *catalog_.Find("c");
  EXPECT_EQ(j.At(0, a), 1);
  EXPECT_EQ(j.At(0, c), 100);
  EXPECT_EQ(j.At(1, c), 101);
}

TEST_F(OpsTest, JoinDisjointSchemasIsCrossProduct) {
  Relation r = Make("a", {{1}, {2}});
  Relation s = Make("b", {{7}, {8}});
  Relation j = NaturalJoin(r, s);
  EXPECT_EQ(j.NumRows(), 4);
}

TEST_F(OpsTest, JoinWithSelfIsIdempotent) {
  Relation r = Make("ab", {{1, 2}, {3, 4}});
  EXPECT_TRUE(NaturalJoin(r, r).EqualsAsSet(r));
}

TEST_F(OpsTest, JoinIsCommutative) {
  Relation r = Make("ab", {{1, 2}, {3, 4}, {1, 5}});
  Relation s = Make("bc", {{2, 9}, {5, 8}});
  EXPECT_TRUE(NaturalJoin(r, s).EqualsAsSet(NaturalJoin(s, r)));
}

TEST_F(OpsTest, JoinWithEmptyIsEmpty) {
  Relation r = Make("ab", {{1, 2}});
  Relation s = Make("bc", {});
  EXPECT_EQ(NaturalJoin(r, s).NumRows(), 0);
}

TEST_F(OpsTest, JoinSubsetSchemaActsAsFilter) {
  Relation r = Make("abc", {{1, 2, 3}, {4, 5, 6}});
  Relation s = Make("b", {{2}});
  Relation j = NaturalJoin(r, s);
  EXPECT_EQ(j.NumRows(), 1);
  EXPECT_EQ(j.Schema(), r.Schema());
}

TEST_F(OpsTest, SemijoinFilters) {
  Relation r = Make("ab", {{1, 10}, {2, 20}, {3, 30}});
  Relation s = Make("bc", {{10, 0}, {30, 0}});
  Relation sj = Semijoin(r, s);
  EXPECT_EQ(sj.Schema(), r.Schema());
  EXPECT_EQ(sj.NumRows(), 2);
}

TEST_F(OpsTest, SemijoinEqualsProjectOfJoin) {
  // R ⋉ S ≡ π_R(R ⋈ S), the definition in §2 — validated on random data.
  Rng rng(227);
  AttrSet ra = ParseAttrSet(catalog_, "abc");
  AttrSet sa = ParseAttrSet(catalog_, "bcd");
  for (int trial = 0; trial < 50; ++trial) {
    Relation r(ra);
    Relation s(sa);
    for (int i = 0; i < 15; ++i) {
      r.AddRow({static_cast<Value>(rng.Below(3)),
                static_cast<Value>(rng.Below(3)),
                static_cast<Value>(rng.Below(3))});
      s.AddRow({static_cast<Value>(rng.Below(3)),
                static_cast<Value>(rng.Below(3)),
                static_cast<Value>(rng.Below(3))});
    }
    r.Canonicalize();
    s.Canonicalize();
    Relation lhs = Semijoin(r, s);
    Relation rhs = Project(NaturalJoin(r, s), r.Schema());
    EXPECT_TRUE(lhs.EqualsAsSet(rhs)) << "trial " << trial;
  }
}

TEST_F(OpsTest, SemijoinOnDisjointSchemasKeepsAllWhenRhsNonEmpty) {
  Relation r = Make("a", {{1}, {2}});
  Relation s = Make("b", {{5}});
  EXPECT_TRUE(Semijoin(r, s).EqualsAsSet(r));
  Relation empty = Make("b", {});
  EXPECT_EQ(Semijoin(r, empty).NumRows(), 0);
}

TEST_F(OpsTest, ProjectEmptyRelationOntoEmptyAttrSet) {
  // π_∅ of an empty relation is FALSE (no tuples); of a non-empty one, TRUE.
  Relation empty = Make("abc", {});
  Relation p = Project(empty, AttrSet{});
  EXPECT_EQ(p.Arity(), 0);
  EXPECT_EQ(p.NumRows(), 0);
  Relation nonempty = Make("abc", {{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(Project(nonempty, AttrSet{}).NumRows(), 1);
}

TEST_F(OpsTest, CartesianProductOfDisjointSchemasHasAllPairs) {
  Relation r = Make("ab", {{1, 10}, {2, 20}});
  Relation s = Make("cd", {{7, 70}, {8, 80}, {9, 90}});
  Relation j = NaturalJoin(r, s);
  EXPECT_EQ(j.Schema(), ParseAttrSet(catalog_, "abcd"));
  EXPECT_EQ(j.NumRows(), 6);
  Relation expected = Make("abcd", {{1, 10, 7, 70}, {1, 10, 8, 80},
                                    {1, 10, 9, 90}, {2, 20, 7, 70},
                                    {2, 20, 8, 80}, {2, 20, 9, 90}});
  EXPECT_TRUE(j.EqualsAsSet(expected));
}

TEST_F(OpsTest, JoinWithIdenticalSchemasIsSetIntersection) {
  // Common attributes cover both schemas: the join keys on every column.
  Relation r = Make("ab", {{1, 2}, {3, 4}, {5, 6}});
  Relation s = Make("ab", {{3, 4}, {5, 6}, {7, 8}});
  Relation j = NaturalJoin(r, s);
  EXPECT_EQ(j.Schema(), r.Schema());
  EXPECT_TRUE(j.EqualsAsSet(Make("ab", {{3, 4}, {5, 6}})));
}

TEST_F(OpsTest, SemijoinWithEmptyRightSideIsEmpty) {
  Relation r = Make("ab", {{1, 2}, {3, 4}});
  // Same-schema empty right side.
  EXPECT_EQ(Semijoin(r, Make("ab", {})).NumRows(), 0);
  // Overlapping-schema empty right side.
  EXPECT_EQ(Semijoin(r, Make("bc", {})).NumRows(), 0);
}

TEST_F(OpsTest, SemijoinWithFullSchemaOverlapFiltersWholeTuples) {
  Relation r = Make("ab", {{1, 2}, {3, 4}, {5, 6}});
  Relation s = Make("ab", {{3, 4}, {9, 9}});
  Relation sj = Semijoin(r, s);
  EXPECT_TRUE(sj.EqualsAsSet(Make("ab", {{3, 4}})));
}

TEST_F(OpsTest, OperatorOutputsCompareWithoutExplicitCanonicalize) {
  // Operator results are duplicate-free but unsorted; EqualsAsSet must
  // canonicalize lazily on its own.
  Relation r = Make("ab", {{2, 20}, {1, 10}});
  Relation s = Make("bc", {{20, 7}, {10, 9}});
  Relation j1 = NaturalJoin(r, s);
  Relation j2 = NaturalJoin(s, r);
  EXPECT_TRUE(j1.EqualsAsSet(j2));
  EXPECT_TRUE(Project(j1, r.Schema()).EqualsAsSet(r));
}

TEST_F(OpsTest, SemijoinOfCanonicalInputStaysCanonical) {
  Relation r = Make("ab", {{1, 2}, {3, 4}, {5, 6}});
  ASSERT_TRUE(r.IsCanonical());
  Relation sj = Semijoin(r, Make("ab", {{1, 2}, {5, 6}}));
  EXPECT_TRUE(sj.IsCanonical());
  EXPECT_EQ(sj.Row(0), (std::vector<Value>{1, 2}));
  EXPECT_EQ(sj.Row(1), (std::vector<Value>{5, 6}));
}

TEST_F(OpsTest, JoinAllAssociativity) {
  Rng rng(229);
  Relation r = Make("ab", {{0, 0}, {0, 1}, {1, 1}});
  Relation s = Make("bc", {{0, 1}, {1, 1}});
  Relation t = Make("ca", {{1, 0}, {0, 0}});
  Relation left = NaturalJoin(NaturalJoin(r, s), t);
  Relation right = NaturalJoin(r, NaturalJoin(s, t));
  EXPECT_TRUE(left.EqualsAsSet(right));
  EXPECT_TRUE(JoinAll({r, s, t}).EqualsAsSet(left));
  (void)rng;
}

}  // namespace
}  // namespace gyo
