// Unit tests for the relational kernel: every operator's semantics plus
// scale-metadata propagation.

#include "src/relational/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/relational/csv.h"

namespace musketeer {
namespace {

Table PurchasesTable() {
  Schema schema({{"uid", FieldType::kInt64},
                 {"region", FieldType::kInt64},
                 {"amount", FieldType::kDouble}});
  Table t(schema);
  t.AddRow({int64_t{1}, int64_t{10}, 5.0});
  t.AddRow({int64_t{1}, int64_t{10}, 7.5});
  t.AddRow({int64_t{2}, int64_t{20}, 100.0});
  t.AddRow({int64_t{3}, int64_t{10}, 2.0});
  t.AddRow({int64_t{3}, int64_t{10}, 3.0});
  return t;
}

TEST(SelectRowsTest, FiltersByPredicate) {
  Table t = PurchasesTable();
  Table out = SelectRows(t, [](const Row& r) { return AsInt64(r[1]) == 10; });
  EXPECT_EQ(out.num_rows(), 4u);
  for (const Row& r : out.MaterializeRows()) {
    EXPECT_EQ(AsInt64(r[1]), 10);
  }
}

TEST(SelectRowsTest, PropagatesScale) {
  Table t = PurchasesTable();
  t.set_scale(1000.0);
  Table out = SelectRows(t, [](const Row&) { return true; });
  EXPECT_DOUBLE_EQ(out.scale(), 1000.0);
}

TEST(ProjectColumnsTest, KeepsRequestedColumns) {
  Table t = PurchasesTable();
  auto out = ProjectColumns(t, {2, 0});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(0).name, "amount");
  EXPECT_EQ(out->schema().field(1).name, "uid");
  EXPECT_EQ(out->num_rows(), 5u);
  EXPECT_DOUBLE_EQ(AsDouble(out->MaterializeRows()[0][0]), 5.0);
}

TEST(ProjectColumnsTest, RejectsOutOfRange) {
  Table t = PurchasesTable();
  auto out = ProjectColumns(t, {5});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(HashJoinTest, JoinsOnKeyWithPaperLayout) {
  Schema users({{"uid", FieldType::kInt64}, {"name", FieldType::kString}});
  Table u(users);
  u.AddRow({int64_t{1}, std::string("ada")});
  u.AddRow({int64_t{2}, std::string("bob")});

  Table p = PurchasesTable();
  auto out = HashJoin(u, p, 0, 0);
  ASSERT_TRUE(out.ok());
  // Layout: key, left-rest, right-rest.
  EXPECT_EQ(out->schema().field(0).name, "uid");
  EXPECT_EQ(out->schema().field(1).name, "name");
  EXPECT_EQ(out->schema().field(2).name, "region");
  EXPECT_EQ(out->schema().field(3).name, "amount");
  EXPECT_EQ(out->num_rows(), 3u);  // ada x2, bob x1
}

TEST(HashJoinTest, EmptyProbeSideYieldsEmpty) {
  Schema s({{"k", FieldType::kInt64}});
  Table a(s);
  Table b(s);
  b.AddRow({int64_t{1}});
  auto out = HashJoin(a, b, 0, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(HashJoinTest, DuplicateKeysProduceCrossProductWithinKey) {
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kInt64}});
  Table a(s);
  a.AddRow({int64_t{1}, int64_t{10}});
  a.AddRow({int64_t{1}, int64_t{11}});
  Table b(s);
  b.AddRow({int64_t{1}, int64_t{20}});
  b.AddRow({int64_t{1}, int64_t{21}});
  auto out = HashJoin(a, b, 0, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 4u);
}

TEST(CrossJoinTest, ProducesAllPairs) {
  Schema s({{"x", FieldType::kInt64}});
  Table a(s);
  a.AddRow({int64_t{1}});
  a.AddRow({int64_t{2}});
  Schema s2({{"y", FieldType::kInt64}});
  Table b(s2);
  b.AddRow({int64_t{3}});
  b.AddRow({int64_t{4}});
  b.AddRow({int64_t{5}});
  Table out = CrossJoin(a, b);
  EXPECT_EQ(out.num_rows(), 6u);
  EXPECT_EQ(out.schema().num_fields(), 2u);
}

TEST(SetOpsTest, UnionIntersectDifference) {
  Schema s({{"x", FieldType::kInt64}});
  Table a(s);
  a.AddRow({int64_t{1}});
  a.AddRow({int64_t{2}});
  a.AddRow({int64_t{2}});
  Table b(s);
  b.AddRow({int64_t{2}});
  b.AddRow({int64_t{3}});

  auto u = UnionAll(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->num_rows(), 5u);  // bag semantics

  auto i = Intersect(a, b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->num_rows(), 1u);  // {2}, set semantics

  auto d = Difference(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_rows(), 1u);  // {1}
}

TEST(SetOpsTest, ArityMismatchRejected) {
  Schema s1({{"x", FieldType::kInt64}});
  Schema s2({{"x", FieldType::kInt64}, {"y", FieldType::kInt64}});
  EXPECT_FALSE(UnionAll(Table(s1), Table(s2)).ok());
  EXPECT_FALSE(Intersect(Table(s1), Table(s2)).ok());
  EXPECT_FALSE(Difference(Table(s1), Table(s2)).ok());
}

TEST(DistinctTest, RemovesDuplicates) {
  Schema s({{"x", FieldType::kInt64}});
  Table a(s);
  a.AddRow({int64_t{1}});
  a.AddRow({int64_t{1}});
  a.AddRow({int64_t{2}});
  EXPECT_EQ(Distinct(a).num_rows(), 2u);
}

TEST(GroupByAggTest, ComputesAllAggregations) {
  Table t = PurchasesTable();
  auto out = GroupByAgg(t, {0},
                        {{AggFn::kSum, 2, "total"},
                         {AggFn::kCount, 0, "n"},
                         {AggFn::kMin, 2, "lo"},
                         {AggFn::kMax, 2, "hi"},
                         {AggFn::kAvg, 2, "avg"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);
  for (const Row& r : out->MaterializeRows()) {
    if (AsInt64(r[0]) == 1) {
      EXPECT_DOUBLE_EQ(AsDouble(r[1]), 12.5);
      EXPECT_EQ(AsInt64(r[2]), 2);
      EXPECT_DOUBLE_EQ(AsDouble(r[3]), 5.0);
      EXPECT_DOUBLE_EQ(AsDouble(r[4]), 7.5);
      EXPECT_DOUBLE_EQ(AsDouble(r[5]), 6.25);
    }
  }
}

TEST(GroupByAggTest, GlobalAggregateSingleRow) {
  Table t = PurchasesTable();
  auto out = GroupByAgg(t, {}, {{AggFn::kSum, 2, "total"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(out->MaterializeRows()[0][0]), 117.5);
}

TEST(GroupByAggTest, EmptyInputGlobalAggregate) {
  Table t(Schema({{"x", FieldType::kDouble}}));
  auto out = GroupByAgg(t, {}, {{AggFn::kCount, 0, "n"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(AsInt64(out->MaterializeRows()[0][0]), 0);
}

TEST(GroupByAggTest, IntColumnsKeepIntTypeForSumMinMax) {
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kInt64}});
  Table t(s);
  t.AddRow({int64_t{1}, int64_t{4}});
  t.AddRow({int64_t{1}, int64_t{6}});
  auto out = GroupByAgg(t, {0}, {{AggFn::kSum, 1, "s"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(1).type, FieldType::kInt64);
  EXPECT_EQ(AsInt64(out->MaterializeRows()[0][1]), 10);
}

TEST(ExtremeRowTest, MaxRowAndDeterministicTies) {
  Table t = PurchasesTable();
  auto out = ExtremeRow(t, 2, /*take_max=*/true);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(AsDouble(out->MaterializeRows()[0][2]), 100.0);

  auto out_min = ExtremeRow(t, 2, /*take_max=*/false);
  ASSERT_TRUE(out_min.ok());
  EXPECT_DOUBLE_EQ(AsDouble(out_min->MaterializeRows()[0][2]), 2.0);
}

TEST(ExtremeRowTest, EmptyInputYieldsEmpty) {
  Table t(Schema({{"x", FieldType::kInt64}}));
  auto out = ExtremeRow(t, 0, true);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(TopNByTest, TakesLargestN) {
  Table t = PurchasesTable();
  Table out = TopNBy(t, 2, 2);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(AsDouble(out.MaterializeRows()[0][2]), 100.0);
  EXPECT_DOUBLE_EQ(AsDouble(out.MaterializeRows()[1][2]), 7.5);
}

TEST(SortByTest, SortsByMultipleColumns) {
  Table t = PurchasesTable();
  Table out = SortBy(t, {1, 2});
  EXPECT_EQ(AsInt64(out.MaterializeRows()[0][1]), 10);
  EXPECT_DOUBLE_EQ(AsDouble(out.MaterializeRows()[0][2]), 2.0);
  EXPECT_EQ(AsInt64(out.MaterializeRows()[4][1]), 20);
}

TEST(TableTest, SameContentIgnoresOrder) {
  Table a = PurchasesTable();
  Table b = PurchasesTable();
  std::vector<uint32_t> reversed_idx;
  for (size_t i = b.num_rows(); i > 0; --i) {
    reversed_idx.push_back(static_cast<uint32_t>(i - 1));
  }
  Table reversed = b.Gather(reversed_idx);
  EXPECT_TRUE(Table::SameContent(a, reversed));
  Table truncated = reversed.Slice(0, reversed.num_rows() - 1);
  EXPECT_FALSE(Table::SameContent(a, truncated));
}

// The stable-sort SameContent that the hoisted std::sort path (with its
// Table::Identical early exit) replaced, kept as the oracle: both must give
// the same verdict on every input, including the awkward cells.
bool SortPathSameContent(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() ||
      a.schema().num_fields() != b.schema().num_fields()) {
    return false;
  }
  auto sorted = [](const Table& t) {
    std::vector<uint32_t> perm(t.num_rows());
    std::iota(perm.begin(), perm.end(), 0);
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t x, uint32_t y) {
      return Table::CompareRowsAt(t, x, t, y) < 0;
    });
    return perm;
  };
  auto cells_close = [](const Column& x, size_t i, const Column& y, size_t j) {
    bool x_str = x.type() == FieldType::kString;
    bool y_str = y.type() == FieldType::kString;
    if (x_str || y_str) {
      return x_str && y_str && x.strings()[i] == y.strings()[j];
    }
    if (x.type() == FieldType::kDouble || y.type() == FieldType::kDouble) {
      double u = AsDouble(x.ValueAt(i));
      double v = AsDouble(y.ValueAt(j));
      return std::abs(u - v) <=
             1e-9 * std::max({std::abs(u), std::abs(v), 1.0});
    }
    return x.ints()[i] == y.ints()[j];
  };
  std::vector<uint32_t> pa = sorted(a);
  std::vector<uint32_t> pb = sorted(b);
  for (size_t i = 0; i < pa.size(); ++i) {
    for (size_t c = 0; c < a.num_fields(); ++c) {
      if (!cells_close(a.col(c), pa[i], b.col(c), pb[i])) {
        return false;
      }
    }
  }
  return true;
}

Table KeyedDoubles(const std::vector<double>& values) {
  Table t(Schema({{"k", FieldType::kInt64}, {"v", FieldType::kDouble}}));
  for (size_t i = 0; i < values.size(); ++i) {
    t.AddRow({static_cast<int64_t>(i % 3), values[i]});
  }
  return t;
}

Table Reversed(const Table& t) {
  std::vector<uint32_t> idx;
  for (size_t i = t.num_rows(); i > 0; --i) {
    idx.push_back(static_cast<uint32_t>(i - 1));
  }
  return t.Gather(idx);
}

void ExpectSameVerdict(const Table& a, const Table& b, bool expected) {
  EXPECT_EQ(SortPathSameContent(a, b), expected);
  EXPECT_EQ(Table::SameContent(a, b), expected);
  EXPECT_EQ(Table::SameContent(b, a), expected);
}

TEST(TableTest, SameContentNaNCellsMatchSortPath) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table a = KeyedDoubles({1.0, nan, 3.0});
  // NaN equals nothing, not even itself or an identical copy.
  ExpectSameVerdict(a, a, false);
  ExpectSameVerdict(a, Reversed(a), false);
  ExpectSameVerdict(a, KeyedDoubles({1.0, 2.0, 3.0}), false);
  Table many = KeyedDoubles({nan, 5.0, nan, nan, -1.0, nan, 2.0});
  ExpectSameVerdict(many, Reversed(many), false);
}

TEST(TableTest, SameContentSignedZeroMatchesSortPath) {
  Table pos = KeyedDoubles({0.0, 1.0, 0.0});
  Table neg = KeyedDoubles({-0.0, 1.0, -0.0});
  ExpectSameVerdict(pos, neg, true);
  ExpectSameVerdict(pos, Reversed(neg), true);
  Table mixed = KeyedDoubles({-0.0, 0.0, -0.0, 0.0});
  ExpectSameVerdict(mixed, Reversed(mixed), true);
}

TEST(TableTest, SameContentInt64VersusDoubleMatchesSortPath) {
  Table ints(Schema({{"x", FieldType::kInt64}}));
  Table doubles(Schema({{"x", FieldType::kDouble}}));
  for (int64_t i : {3, -7, 0, 12, 3}) {
    ints.AddRow({i});
    doubles.AddRow({static_cast<double>(i)});
  }
  ExpectSameVerdict(ints, doubles, true);
  ExpectSameVerdict(ints, Reversed(doubles), true);
  Table nudged(Schema({{"x", FieldType::kDouble}}));
  for (double d : {3.0, -7.0, 0.0, 12.5, 3.0}) {
    nudged.AddRow({d});
  }
  ExpectSameVerdict(ints, nudged, false);
  Table strings(Schema({{"x", FieldType::kString}}));
  for (const char* s : {"3", "-7", "0", "12", "3"}) {
    strings.AddRow({std::string(s)});
  }
  ExpectSameVerdict(ints, strings, false);
  ExpectSameVerdict(Table(ints.schema()), Table(strings.schema()), true);
}

TEST(TableTest, SameContentPermutedRowsMatchSortPath) {
  Schema schema({{"id", FieldType::kInt64},
                 {"name", FieldType::kString},
                 {"score", FieldType::kDouble}});
  Table a(schema);
  for (int64_t i = 0; i < 40; ++i) {
    a.AddRow({i % 7, std::string(1, static_cast<char>('a' + i % 5)),
              static_cast<double>(i % 4) * 0.25});
  }
  std::vector<uint32_t> shuffled;
  for (uint32_t i = 0; i < 40; ++i) {
    shuffled.push_back((i * 17) % 40);
  }
  Table b = a.Gather(shuffled);
  ExpectSameVerdict(a, b, true);
  ExpectSameVerdict(a, a, true);
  Table c = b;
  c.AddRow({int64_t{0}, std::string("a"), 0.0});
  Table d = a;
  d.AddRow({int64_t{0}, std::string("b"), 0.0});
  ExpectSameVerdict(c, d, false);
}

TEST(TableTest, SameContentOneUlpApartMatchesSortPath) {
  const double x = 0.1 + 0.2;
  const double up = std::nextafter(x, 1.0);
  const double big = 1e15;
  const double big_up = std::nextafter(big, 2e15);
  Table a = KeyedDoubles({x, 5.0, big, -x});
  Table b = KeyedDoubles({up, 5.0, big_up, std::nextafter(-x, -1.0)});
  ExpectSameVerdict(a, b, true);
  ExpectSameVerdict(a, Reversed(b), true);
  // Beyond the tolerance the verdict flips for both paths.
  Table far = KeyedDoubles({x + 1e-6, 5.0, big, -x});
  ExpectSameVerdict(a, far, false);
}

TEST(TableTest, NominalSizesScale) {
  Table t = PurchasesTable();
  t.set_scale(100.0);
  EXPECT_DOUBLE_EQ(t.nominal_rows(), 500.0);
  EXPECT_GT(t.nominal_bytes(), t.sample_bytes());
}

TEST(CsvTest, RoundTrips) {
  Table t = PurchasesTable();
  std::string text = WriteCsv(t);
  auto back = ParseCsv(text, t.schema());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(Table::SameContent(t, *back));
}

TEST(CsvTest, RejectsMalformedLines) {
  Schema s({{"x", FieldType::kInt64}});
  EXPECT_FALSE(ParseCsv("1\nfoo\n", s).ok());
  EXPECT_FALSE(ParseCsv("1,2\n", s).ok());
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_TRUE(ValuesEqual(Value(int64_t{3}), Value(3.0)));
  EXPECT_EQ(HashValue(Value(int64_t{3})), HashValue(Value(3.0)));
  EXPECT_LT(CompareValues(Value(int64_t{2}), Value(2.5)), 0);
  EXPECT_LT(CompareValues(Value(2.5), Value(std::string("a"))), 0);
}

}  // namespace
}  // namespace musketeer
