#include "rel/relation.h"

#include <gtest/gtest.h>

#include "schema/parse.h"

namespace gyo {
namespace {

class RelationTest : public ::testing::Test {
 protected:
  Catalog catalog_;
};

TEST_F(RelationTest, EmptyRelation) {
  Relation r(ParseAttrSet(catalog_, "ab"));
  EXPECT_EQ(r.Arity(), 2);
  EXPECT_EQ(r.NumRows(), 0);
  EXPECT_TRUE(r.Empty());
}

TEST_F(RelationTest, AttrsSortedById) {
  AttrSet s = ParseAttrSet(catalog_, "ba");  // interned in order b, a
  Relation r(s);
  EXPECT_EQ(r.Attrs().size(), 2u);
  EXPECT_LT(r.Attrs()[0], r.Attrs()[1]);
}

TEST_F(RelationTest, AddAndAccess) {
  Relation r(ParseAttrSet(catalog_, "ab"));
  r.AddRow({1, 2});
  r.AddRow({3, 4});
  EXPECT_EQ(r.NumRows(), 2);
  AttrId a = *catalog_.Find("a");
  AttrId b = *catalog_.Find("b");
  EXPECT_EQ(r.At(0, a), 1);
  EXPECT_EQ(r.At(0, b), 2);
  EXPECT_EQ(r.At(1, a), 3);
}

TEST_F(RelationTest, CanonicalizeSortsAndDedupes) {
  Relation r(ParseAttrSet(catalog_, "a"));
  r.AddRow({5});
  r.AddRow({1});
  r.AddRow({5});
  r.Canonicalize();
  EXPECT_EQ(r.NumRows(), 2);
  EXPECT_EQ(r.Row(0), (std::vector<Value>{1}));
  EXPECT_EQ(r.Row(1), (std::vector<Value>{5}));
}

TEST_F(RelationTest, EqualsAsSet) {
  AttrSet s = ParseAttrSet(catalog_, "ab");
  Relation r1(s);
  Relation r2(s);
  r1.AddRow({1, 2});
  r1.AddRow({3, 4});
  r2.AddRow({3, 4});
  r2.AddRow({1, 2});
  r1.Canonicalize();
  r2.Canonicalize();
  EXPECT_TRUE(r1.EqualsAsSet(r2));
  r2.AddRow({9, 9});
  r2.Canonicalize();
  EXPECT_FALSE(r1.EqualsAsSet(r2));
}

TEST_F(RelationTest, DifferentSchemasNeverEqual) {
  Relation r1(ParseAttrSet(catalog_, "a"));
  Relation r2(ParseAttrSet(catalog_, "b"));
  EXPECT_FALSE(r1.EqualsAsSet(r2));
}

TEST_F(RelationTest, NullaryRelation) {
  // Arity-0 relations represent TRUE (one empty tuple) or FALSE (none).
  Relation r(AttrSet{});
  EXPECT_EQ(r.Arity(), 0);
  r.AddRow({});
  r.AddRow({});
  r.Canonicalize();
  EXPECT_EQ(r.NumRows(), 1);
}

TEST_F(RelationTest, ColumnsAreFlatAndContiguous) {
  Relation r(ParseAttrSet(catalog_, "ab"));
  r.AddRow({1, 2});
  r.AddRow({3, 4});
  // Column-major: each attribute's values are back to back in one arena.
  const Value* a = r.ColData(0);
  const Value* b = r.ColData(1);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 3);
  EXPECT_EQ(b[0], 2);
  EXPECT_EQ(b[1], 4);
  EXPECT_EQ(r.Cell(1, 0), 3);
  EXPECT_EQ(r.ArenaBytes(),
            static_cast<int64_t>(4 * sizeof(Value)));  // 2 rows × 2 cols
}

TEST_F(RelationTest, ReserveAndAppendRowsWriteInPlace) {
  Relation r(ParseAttrSet(catalog_, "abc"));
  r.Reserve(100);
  const int64_t first = r.AppendRows(100);
  EXPECT_EQ(first, 0);
  for (Value i = 0; i < 100; ++i) {
    r.ColData(0)[first + i] = i;
    r.ColData(1)[first + i] = i * 2;
    r.ColData(2)[first + i] = i * 3;
  }
  EXPECT_EQ(r.NumRows(), 100);
  EXPECT_EQ(r.Row(42), (std::vector<Value>{42, 84, 126}));
  // A second block appends after the first.
  EXPECT_EQ(r.AppendRows(10), 100);
  EXPECT_EQ(r.NumRows(), 110);
}

TEST_F(RelationTest, AddRowMayAliasOwnArena) {
  Relation r(ParseAttrSet(catalog_, "a"));
  r.AddRow({7});
  // Re-appending a value read from the relation's own column arena must
  // survive the reallocations the appends trigger.
  for (int i = 0; i < 40; ++i) {
    r.AddRow(r.ColData(0) + (r.NumRows() - 1), 1);
  }
  EXPECT_EQ(r.NumRows(), 41);
  for (RowRef row : r.Rows()) {
    EXPECT_EQ(row, (std::vector<Value>{7}));
  }
}

TEST_F(RelationTest, IdenticalToRequiresSameOrderAndFlags) {
  AttrSet s = ParseAttrSet(catalog_, "ab");
  Relation r1(s);
  Relation r2(s);
  r1.AddRow({1, 2});
  r1.AddRow({3, 4});
  r2.AddRow({3, 4});
  r2.AddRow({1, 2});
  EXPECT_TRUE(r1.EqualsAsSet(r2));   // same set...
  // ...but EqualsAsSet canonicalized both sides, so they are now also
  // physically identical.
  EXPECT_TRUE(r1.IdenticalTo(r2));
  Relation r3(s);
  r3.AddRow({1, 2});
  r3.AddRow({3, 4});
  EXPECT_FALSE(r1.IdenticalTo(r3));  // canonical flag differs
  r3.Canonicalize();
  EXPECT_TRUE(r1.IdenticalTo(r3));
}

TEST_F(RelationTest, RowRefComparesAndIterates) {
  Relation r(ParseAttrSet(catalog_, "ab"));
  r.AddRow({1, 2});
  r.AddRow({1, 2});
  r.AddRow({3, 4});
  EXPECT_TRUE(r.Row(0) == r.Row(1));
  EXPECT_TRUE(r.Row(0) != r.Row(2));
  EXPECT_TRUE(r.Row(0) < r.Row(2));
  Value sum = 0;
  for (RowRef row : r.Rows()) {
    for (Value v : row) sum += v;
  }
  EXPECT_EQ(sum, 13);
  EXPECT_EQ(r.Row(2).ToVector(), (std::vector<Value>{3, 4}));
}

TEST_F(RelationTest, CanonicalizationIsLazy) {
  Relation r(ParseAttrSet(catalog_, "a"));
  EXPECT_TRUE(r.IsCanonical());  // empty relation is trivially canonical
  r.AddRow({5});
  r.AddRow({1});
  r.AddRow({5});
  EXPECT_FALSE(r.IsCanonical());
  EXPECT_EQ(r.NumRows(), 3);  // bag count until canonicalized
  r.Canonicalize();
  EXPECT_TRUE(r.IsCanonical());
  EXPECT_EQ(r.NumRows(), 2);
  r.Canonicalize();  // idempotent
  EXPECT_EQ(r.NumRows(), 2);
}

TEST_F(RelationTest, EqualsAsSetCanonicalizesOnDemand) {
  AttrSet s = ParseAttrSet(catalog_, "ab");
  Relation r1(s);
  Relation r2(s);
  r1.AddRow({1, 2});
  r1.AddRow({3, 4});
  r2.AddRow({3, 4});
  r2.AddRow({1, 2});
  r2.AddRow({3, 4});  // duplicate: still the same set
  // No explicit Canonicalize() anywhere.
  EXPECT_TRUE(r1.EqualsAsSet(r2));
  EXPECT_TRUE(r1.IsCanonical());  // comparison canonicalized both sides
  EXPECT_TRUE(r2.IsCanonical());
  EXPECT_EQ(r2.NumRows(), 2);
}

TEST_F(RelationTest, CanonicalizeManyRowsSortsAndDedupes) {
  Relation r(ParseAttrSet(catalog_, "ab"));
  const Value n = 512;
  const int64_t first = r.AppendRows(2 * n);
  for (Value i = n - 1; i >= 0; --i) {  // descending, twice
    const int64_t at = first + 2 * (n - 1 - i);
    r.ColData(0)[at] = i % 7;
    r.ColData(1)[at] = i;
    r.ColData(0)[at + 1] = i % 7;
    r.ColData(1)[at + 1] = i;
  }
  r.Canonicalize();
  EXPECT_EQ(r.NumRows(), n);
  for (int64_t i = 0; i + 1 < r.NumRows(); ++i) {
    EXPECT_TRUE(r.Row(i) < r.Row(i + 1)) << "row " << i;
  }
}

TEST_F(RelationTest, FormatShowsSchemaAndRows) {
  Relation r(ParseAttrSet(catalog_, "ab"));
  r.AddRow({7, 8});
  std::string s = r.Format(catalog_);
  EXPECT_NE(s.find("ab"), std::string::npos);
  EXPECT_NE(s.find('7'), std::string::npos);
}

}  // namespace
}  // namespace gyo
