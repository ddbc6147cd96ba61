#include "stream/tuple.h"

#include <gtest/gtest.h>

namespace usp {
namespace stream {
namespace {

TEST(TupleTest, IdsAreUnique) {
  const Tuple a(0, {});
  const Tuple b(0, {});
  EXPECT_NE(a.id(), b.id());
}

TEST(TupleTest, TimestampAndValues) {
  Tuple t(1000, {Value(int64_t{1}), Value(2.0)});
  EXPECT_EQ(t.timestamp(), 1000);
  EXPECT_EQ(t.num_values(), 2u);
  EXPECT_EQ(t.value(0).AsInt(), 1);
  t.AppendValue(Value(std::string("x")));
  EXPECT_EQ(t.num_values(), 3u);
  t.set_timestamp(2000);
  EXPECT_EQ(t.timestamp(), 2000);
}

TEST(TupleTest, BaseLineageIsOwnId) {
  Tuple t(0, {});
  EXPECT_TRUE(t.lineage().empty());
  t.InitBaseLineage();
  ASSERT_EQ(t.lineage().size(), 1u);
  EXPECT_EQ(t.lineage()[0], t.id());
}

TEST(TupleTest, SetLineageSortsAndDedups) {
  Tuple t(0, {});
  t.SetLineage({5, 3, 5, 1, 3});
  EXPECT_EQ(t.lineage(), (std::vector<TupleId>{1, 3, 5}));
}

TEST(TupleTest, MergeLineageUnions) {
  Tuple a(0, {});
  a.SetLineage({1, 3});
  Tuple b(0, {});
  b.SetLineage({2, 3, 7});
  a.MergeLineageFrom(b);
  EXPECT_EQ(a.lineage(), (std::vector<TupleId>{1, 2, 3, 7}));
}

TEST(TupleTest, SharesLineageDetectsOverlap) {
  Tuple a(0, {}), b(0, {}), c(0, {});
  a.SetLineage({1, 2});
  b.SetLineage({2, 3});
  c.SetLineage({4});
  EXPECT_TRUE(a.SharesLineageWith(b));
  EXPECT_FALSE(a.SharesLineageWith(c));
  EXPECT_FALSE(b.SharesLineageWith(c));
}

TEST(TupleTest, SharesLineageEmptyIsFalse) {
  Tuple a(0, {}), b(0, {});
  EXPECT_FALSE(a.SharesLineageWith(b));
}

TEST(TupleTest, ToStringContainsIdAndValues) {
  Tuple t(42, {Value(int64_t{9})});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("@42"), std::string::npos);
  EXPECT_NE(s.find("9"), std::string::npos);
}

// A tuple of n values whose value i is i, except value 1, which is a
// string long enough to own a heap buffer (so a shallow copy would show).
Tuple MakeTuple(size_t n) {
  std::vector<Value> values;
  for (size_t i = 0; i < n; ++i) {
    values.push_back(i == 1 ? Value(std::string(40, 'x'))
                            : Value(static_cast<int64_t>(i)));
  }
  Tuple t(7, std::move(values));
  t.InitBaseLineage();
  return t;
}

void ExpectValues(const Tuple& t, size_t n) {
  ASSERT_EQ(t.num_values(), n);
  ASSERT_EQ(t.values().size(), n);
  for (size_t i = 0; i < n; ++i) {
    if (i == 1) {
      EXPECT_EQ(t.value(i).AsString(), std::string(40, 'x'));
    } else {
      EXPECT_EQ(t.value(i).AsInt(), static_cast<int64_t>(i));
    }
    EXPECT_EQ(&t.values()[i], &t.value(i));
  }
}

// Sizes on both sides of the inline capacity: empty, partly and fully
// inline, and spilled to the heap.
class TupleStorageTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TupleStorageTest, CopyKeepsIdValuesAndLineage) {
  const size_t n = GetParam();
  const Tuple a = MakeTuple(n);
  const Tuple b = a;
  EXPECT_EQ(b.id(), a.id());
  EXPECT_EQ(b.timestamp(), 7);
  ExpectValues(b, n);
  ExpectValues(a, n);
  EXPECT_EQ(b.lineage(), (std::vector<TupleId>{a.id()}));
  EXPECT_NE(b.values().begin(), a.values().begin());
}

TEST_P(TupleStorageTest, MoveKeepsIdValuesAndLineage) {
  const size_t n = GetParam();
  Tuple a = MakeTuple(n);
  const TupleId id = a.id();
  const Tuple b = std::move(a);
  EXPECT_EQ(b.id(), id);
  ExpectValues(b, n);
  EXPECT_EQ(b.lineage(), (std::vector<TupleId>{id}));
}

TEST_P(TupleStorageTest, CopyAssignAcrossSizes) {
  const size_t n = GetParam();
  const Tuple src = MakeTuple(n);
  for (size_t m : {0u, 1u, 2u, 3u, 5u}) {
    Tuple dst = MakeTuple(m);
    dst.SetLineage({1, 2, 3});
    dst = src;
    EXPECT_EQ(dst.id(), src.id());
    ExpectValues(dst, n);
    EXPECT_EQ(dst.lineage(), src.lineage());
  }
}

TEST_P(TupleStorageTest, MoveAssignAcrossSizes) {
  const size_t n = GetParam();
  for (size_t m : {0u, 1u, 2u, 3u, 5u}) {
    Tuple src = MakeTuple(n);
    src.SetLineage({4, 9});
    Tuple dst = MakeTuple(m);
    dst = std::move(src);
    ExpectValues(dst, n);
    EXPECT_EQ(dst.lineage(), (std::vector<TupleId>{4, 9}));
  }
}

TEST_P(TupleStorageTest, SelfAssignIsANoOp) {
  const size_t n = GetParam();
  Tuple t = MakeTuple(n);
  t.SetLineage({3, 8});
  const Tuple& alias = t;
  t = alias;
  ExpectValues(t, n);
  Tuple& move_alias = t;
  t = std::move(move_alias);
  ExpectValues(t, n);
  EXPECT_EQ(t.lineage(), (std::vector<TupleId>{3, 8}));
}

TEST_P(TupleStorageTest, AppendGrowsPastInlineCapacity) {
  const size_t n = GetParam();
  Tuple t = MakeTuple(n);
  for (size_t i = n; i < 6; ++i) {
    t.AppendValue(i == 1 ? Value(std::string(40, 'x'))
                         : Value(static_cast<int64_t>(i)));
    ExpectValues(t, i + 1);
  }
  const Tuple copy = t;
  ExpectValues(copy, 6);
  t.mutable_value(0) = Value(int64_t{42});
  EXPECT_EQ(t.value(0).AsInt(), 42);
  EXPECT_EQ(copy.value(0).AsInt(), 0);
}

INSTANTIATE_TEST_SUITE_P(InlineAndSpilled, TupleStorageTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 5u));

TEST(TupleTest, SpilledStorageChargesHeapBytes) {
  const Tuple narrow = MakeTuple(Tuple::kInlineValues);
  const Tuple wide = MakeTuple(Tuple::kInlineValues + 1);
  // Only heap blocks add to the object: inline values cost nothing extra.
  EXPECT_GE(wide.ApproxBytes(),
            narrow.ApproxBytes() + (Tuple::kInlineValues + 1) * sizeof(Value));
  Tuple merged = MakeTuple(Tuple::kInlineValues);
  merged.SetLineage({1, 2, 3});
  EXPECT_EQ(merged.ApproxBytes(), narrow.ApproxBytes() + 3 * sizeof(TupleId));
}

TEST(TupleTest, LineageViewEmptyBaseAndMerged) {
  Tuple t(0, {});
  EXPECT_TRUE(t.lineage().empty());
  EXPECT_EQ(t.lineage().begin(), t.lineage().end());
  t.InitBaseLineage();
  EXPECT_EQ(t.lineage(), (std::vector<TupleId>{t.id()}));
  t.SetLineage({t.id() + 2, t.id() + 1});
  EXPECT_EQ(t.lineage(), (std::vector<TupleId>{t.id() + 1, t.id() + 2}));
  // Back to a base lineage, whether set directly or as the one-id set.
  t.InitBaseLineage();
  EXPECT_EQ(t.lineage(), (std::vector<TupleId>{t.id()}));
  t.SetLineage({t.id()});
  EXPECT_EQ(t.lineage(), (std::vector<TupleId>{t.id()}));
  t.SetLineage({});
  EXPECT_TRUE(t.lineage().empty());
}

TEST(TupleTest, MergeLineageIntoBaseTuple) {
  Tuple a(0, {});
  a.InitBaseLineage();
  Tuple b(0, {});
  b.InitBaseLineage();
  a.MergeLineageFrom(b);
  EXPECT_EQ(a.lineage(), (std::vector<TupleId>{a.id(), b.id()}));
  EXPECT_TRUE(a.SharesLineageWith(b));
  // Merging a set that only repeats the base id keeps it a base lineage.
  Tuple c(0, {});
  c.InitBaseLineage();
  Tuple same = c;
  c.MergeLineageFrom(same);
  EXPECT_EQ(c.lineage(), (std::vector<TupleId>{c.id()}));
}

TEST(TupleTest, CopiesShareMergedLineage) {
  Tuple row(0, {Value(int64_t{1}), Value(2.0)});
  row.SetLineage({11, 12, 13});
  Tuple tagged = row;
  tagged.AppendValue(Value(int64_t{7}));
  EXPECT_EQ(tagged.lineage().begin(), row.lineage().begin());
  // Replacing one tuple's lineage leaves the other's intact.
  tagged.SetLineage({5});
  EXPECT_EQ(row.lineage(), (std::vector<TupleId>{11, 12, 13}));
  EXPECT_EQ(tagged.lineage(), (std::vector<TupleId>{5}));
}

// Copying a narrow tuple allocates nothing, but every byte of the object
// is paid for each tuple a caller, batch or buffer holds. A benchmark that
// holds half a million input tuples twice sets its peak RSS by this size:
// three inline values (~184 B) raised it by ~30%.
TEST(TupleTest, ObjectStaysWithinRssBudget) {
  EXPECT_LE(sizeof(Tuple), 128u);
}

TEST(NextTupleIdTest, MonotonicallyIncreasing) {
  const TupleId a = NextTupleId();
  const TupleId b = NextTupleId();
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace stream
}  // namespace usp
