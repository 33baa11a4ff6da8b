// Tests for the simplified timely-dataflow runtime (Naiad's generic path).

#include "src/engines/timely_runtime.h"

#include <gtest/gtest.h>

#include "src/base/parallel.h"
#include "src/frontends/frontend.h"
#include "src/workloads/datasets.h"
#include "src/workloads/workflows.h"

namespace musketeer {
namespace {

std::unique_ptr<Dag> Parse(const std::string& src,
                           FrontendLanguage lang = FrontendLanguage::kBeer) {
  auto dag = ParseWorkflow(lang, src);
  EXPECT_TRUE(dag.ok()) << dag.status();
  return std::move(dag).value();
}

TableMap PurchaseBase(int rows) {
  return {{"purchases", MakePurchases(1e6, rows, 8, 77)}};
}

TEST(TimelyRuntimeTest, RowwiseOperatorsStreamWithoutBuffering) {
  auto dag = Parse(
      "f = SELECT * FROM purchases WHERE amount > 100;\n"
      "p = SELECT uid, amount FROM f;\n"
      "m = MAP uid, amount * 2 AS doubled FROM p;\n");
  TableMap base = PurchaseBase(800);
  auto ref = EvaluateDag(*dag, base);
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaTimely(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*(*ref)["m"], *result->relations["m"]));
  // A pure row-wise pipeline never buffers a single record.
  EXPECT_EQ(result->stats.records_buffered, 0);
  EXPECT_GT(result->stats.records_streamed, 0);
}

TEST(TimelyRuntimeTest, StatefulOperatorsFireOnNotification) {
  auto dag = Parse(
      "g = AGG SUM(amount) AS total FROM purchases GROUP BY uid;\n"
      "top = SELECT * FROM g WHERE total > 50;\n");
  TableMap base = PurchaseBase(600);
  auto ref = EvaluateDagRelation(*dag, base, "top");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaTimely(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["top"]));
  EXPECT_EQ(result->stats.records_buffered, 600);  // only the GROUP BY buffers
  EXPECT_GT(result->stats.notifications, 0);
}

TEST(TimelyRuntimeTest, JoinsAndUnionsAgreeWithInterpreter) {
  auto dag = Parse(R"(
    j = JOIN a, b ON a.k = b.k;
    u = UNION a, b;
    both = JOIN j, u ON j.k = u.k;
  )");
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kInt64}});
  auto a = std::make_shared<Table>(s);
  auto b = std::make_shared<Table>(s);
  for (int64_t i = 0; i < 80; ++i) {
    a->AddRow({i % 9, i});
    b->AddRow({i % 6, i});
  }
  TableMap base{{"a", a}, {"b", b}};
  auto ref = EvaluateDag(*dag, base);
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaTimely(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const char* rel : {"j", "u", "both"}) {
    EXPECT_TRUE(Table::SameContent(*(*ref)[rel], *result->relations[rel])) << rel;
  }
}

TEST(TimelyRuntimeTest, LoopsRunAsEpochs) {
  auto dag = Parse(R"(
    WHILE 4 LOOP x = seed UPDATE x2 {
      x2 = AGG SUM(v) AS v FROM x GROUP BY k;
    } YIELD x2 AS out;
  )");
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kDouble}});
  auto seed = std::make_shared<Table>(s);
  for (int64_t i = 0; i < 50; ++i) {
    seed->AddRow({i % 5, 1.0});
  }
  TableMap base{{"seed", seed}};
  auto ref = EvaluateDagRelation(*dag, base, "out");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaTimely(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["out"]));
  EXPECT_EQ(result->stats.epochs, 4);
}

TEST(TimelyRuntimeTest, FixpointLoopsStopEarly) {
  auto dag = Parse(R"(
    WHILE FIXPOINT 30 LOOP x = seed UPDATE x2 {
      x2 = DISTINCT x;
    } YIELD x2 AS out;
  )");
  Schema s({{"k", FieldType::kInt64}});
  auto seed = std::make_shared<Table>(s);
  seed->AddRow({int64_t{1}});
  seed->AddRow({int64_t{1}});
  seed->AddRow({int64_t{2}});
  auto result = ExecuteViaTimely(*dag, {{"seed", seed}});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->relations["out"]->num_rows(), 2u);
  EXPECT_EQ(result->stats.epochs, 2);  // one productive trip + one stable
}

TEST(TimelyRuntimeTest, TpchPipelineMatchesInterpreter) {
  TpchDataset data = MakeTpch(10, 2500);
  auto dag = Parse(TpchQ17Hive(), FrontendLanguage::kHive);
  TableMap base{{"lineitem", data.lineitem}, {"part", data.part}};
  auto ref = EvaluateDagRelation(*dag, base, "q17_result");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaTimely(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["q17_result"]));
}

TEST(TimelyRuntimeTest, BatchPlusLoopWorkflow) {
  CommunityPair pair = MakeOverlappingCommunities();
  auto dag = Parse(CrossCommunityPageRankBeer(3));
  TableMap base{{"lj_edges", pair.a.edges}, {"web_edges", pair.b.edges}};
  auto ref = EvaluateDagRelation(*dag, base, "cc_pagerank");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaTimely(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["cc_pagerank"]));
  EXPECT_EQ(result->stats.epochs, 3);
}

TEST(TimelyRuntimeTest, MixedNumericUnionTakesFirstArmTypes) {
  // The second arm's DOUBLE cells arrive in batches of the union's INT
  // type, so the map downstream reads the truncated values, as in UnionAll.
  auto dag = Parse(R"(
    u = UNION a, b;
    m = MAP k, v * 2 AS w FROM u;
    g = AGG SUM(v) AS total FROM u GROUP BY k;
  )");
  auto a = std::make_shared<Table>(
      Schema({{"k", FieldType::kInt64}, {"v", FieldType::kInt64}}));
  auto b = std::make_shared<Table>(
      Schema({{"k", FieldType::kInt64}, {"v", FieldType::kDouble}}));
  for (int64_t i = 0; i < 30; ++i) {
    a->AddRow({i % 4, i});
    b->AddRow({i % 3, static_cast<double>(i) + 0.75});
  }
  TableMap base{{"a", a}, {"b", b}};
  auto ref = EvaluateDag(*dag, base);
  ASSERT_TRUE(ref.ok()) << ref.status();
  auto result = ExecuteViaTimely(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const char* rel : {"u", "m", "g"}) {
    EXPECT_TRUE(Table::SameContent(*(*ref)[rel], *result->relations[rel]))
        << rel;
    EXPECT_EQ(result->relations[rel]->col(1).type(), FieldType::kInt64) << rel;
  }
}

// Batch-boundary sweep: sources push kMorselRows slices, so inputs just
// below, at and above one slice (and the empty and single-row cases) must
// stream through every operator family exactly as the interpreter computes.
class TimelyBatchBoundaryTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TimelyBatchBoundaryTest, EveryOperatorFamilyMatchesInterpreter) {
  const size_t n = GetParam();
  auto dag = Parse(R"(
    s = SELECT * FROM a WHERE v > 2;
    m = MAP k, v * 2 AS w FROM s;
    u = UNION a, b;
    j = JOIN m, b ON m.k = b.k;
    WHILE 3 LOOP x = a UPDATE x2 {
      x2 = MAP k, v + 1 AS v FROM x;
    } YIELD x2 AS looped;
    WHILE FIXPOINT 10 LOOP y = u UPDATE y2 {
      y2 = DISTINCT y;
    } YIELD y2 AS fixed;
  )");
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kDouble}});
  auto a = std::make_shared<Table>(s);
  auto b = std::make_shared<Table>(s);
  for (size_t i = 0; i < n; ++i) {
    int64_t k = static_cast<int64_t>(i);
    a->AddRow({k, static_cast<double>(i % 7)});
    b->AddRow({k % 5, 0.5 * static_cast<double>(i % 3)});
  }
  TableMap base{{"a", a}, {"b", b}};
  auto ref = EvaluateDag(*dag, base);
  ASSERT_TRUE(ref.ok()) << ref.status();
  auto result = ExecuteViaTimely(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const char* rel : {"s", "m", "u", "j", "looped", "fixed"}) {
    ASSERT_EQ(result->relations.count(rel), 1u) << rel;
    EXPECT_TRUE(Table::SameContent(*(*ref)[rel], *result->relations[rel]))
        << rel << " at " << n << " rows";
  }
  // Counts are in records, whatever the batching: the select and the union
  // see every input row, the map sees the survivors, and each of the three
  // epochs streams the loop state through its map once.
  const auto kept = static_cast<int64_t>((*ref)["s"]->num_rows());
  const auto rows = static_cast<int64_t>(n);
  EXPECT_EQ(result->stats.records_streamed, rows + kept + 2 * rows + 3 * rows);
  EXPECT_EQ(result->stats.epochs, 3 + (n == 0 ? 1 : 2));
}

INSTANTIATE_TEST_SUITE_P(SliceEdges, TimelyBatchBoundaryTest,
                         ::testing::Values(size_t{0}, size_t{1},
                                           kMorselRows - 1, kMorselRows,
                                           kMorselRows + 1));

}  // namespace
}  // namespace musketeer
