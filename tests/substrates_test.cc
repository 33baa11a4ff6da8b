// Tests for the engine substrates: the MapReduce runtime (splits, shuffle,
// combiners), the partitioned RDD runtime (narrow/wide dependencies) and the
// Pregel-style vertex runtime (program extraction, supersteps).

#include <gtest/gtest.h>

#include "src/engines/mapreduce_runtime.h"
#include "src/engines/rdd_runtime.h"
#include "src/engines/vertex_runtime.h"
#include "src/frontends/frontend.h"
#include "src/opt/idiom.h"
#include "src/workloads/datasets.h"
#include "src/workloads/workflows.h"

namespace musketeer {
namespace {

TableMap PurchaseBase(int rows) {
  auto t = MakePurchases(1e6, rows, 8, 77);
  return {{"purchases", t}};
}

std::unique_ptr<Dag> Parse(const std::string& src,
                           FrontendLanguage lang = FrontendLanguage::kBeer) {
  auto dag = ParseWorkflow(lang, src);
  EXPECT_TRUE(dag.ok()) << dag.status();
  return std::move(dag).value();
}

// ---- MapReduce runtime -----------------------------------------------------

TEST(MapReduceRuntimeTest, GroupByMatchesReferenceWithAndWithoutCombiners) {
  auto dag = Parse(
      "stats = AGG SUM(amount) AS total, COUNT(uid) AS n, AVG(amount) AS avg_a,"
      " MIN(amount) AS lo, MAX(amount) AS hi FROM purchases GROUP BY uid;\n");
  TableMap base = PurchaseBase(3000);
  auto ref = EvaluateDagRelation(*dag, base, "stats");
  ASSERT_TRUE(ref.ok());

  for (bool combiners : {false, true}) {
    MapReduceOptions options;
    options.use_combiners = combiners;
    auto result = ExecuteViaMapReduce(*dag, base, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(Table::SameContent(*ref, *result->relations["stats"]))
        << "combiners=" << combiners;
    EXPECT_GT(result->stats.map_tasks, 1);
    EXPECT_GT(result->stats.reduce_tasks, 1);
  }
}

TEST(MapReduceRuntimeTest, CombinersShrinkTheShuffle) {
  auto dag = Parse("t = AGG SUM(amount) AS total FROM purchases GROUP BY region;\n");
  TableMap base = PurchaseBase(4000);

  MapReduceOptions no_comb;
  no_comb.use_combiners = false;
  auto plain = ExecuteViaMapReduce(*dag, base, no_comb);
  ASSERT_TRUE(plain.ok());

  MapReduceOptions with_comb;
  with_comb.use_combiners = true;
  auto combined = ExecuteViaMapReduce(*dag, base, with_comb);
  ASSERT_TRUE(combined.ok());

  // 4000 records reduce to (#mappers x #regions) partials.
  EXPECT_LT(combined->stats.shuffled_records, plain->stats.shuffled_records / 10);
  EXPECT_TRUE(Table::SameContent(*plain->relations["t"], *combined->relations["t"]));
}

TEST(MapReduceRuntimeTest, JoinCoPartitionsBothSides) {
  auto dag = Parse(
      "j = JOIN a, b ON a.k = b.k;\n"
      "counted = AGG COUNT(k) AS n FROM j;\n");
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kInt64}});
  auto a = std::make_shared<Table>(s);
  auto b = std::make_shared<Table>(s);
  for (int64_t i = 0; i < 200; ++i) {
    a->AddRow({i % 23, i});
    b->AddRow({i % 17, i});
  }
  TableMap base{{"a", a}, {"b", b}};
  auto ref = EvaluateDagRelation(*dag, base, "j");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaMapReduce(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["j"]));
}

TEST(MapReduceRuntimeTest, StagesCountShuffles) {
  auto dag = Parse(
      "f = SELECT * FROM purchases WHERE region = 2;\n"
      "g = AGG SUM(amount) AS total FROM f GROUP BY uid;\n"
      "h = SELECT * FROM g WHERE total > 100;\n");
  auto result = ExecuteViaMapReduce(*dag, PurchaseBase(1000));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.stages, 3);  // two map-only + one shuffle stage
}

TEST(MapReduceRuntimeTest, WhileLoopsRunBodyPerIteration) {
  auto dag = Parse(R"(
    WHILE 4 LOOP x = seed UPDATE x2 {
      x2 = AGG SUM(v) AS v FROM x GROUP BY k;
    } YIELD x2 AS out;
  )");
  Schema s({{"k", FieldType::kInt64}, {"v", FieldType::kDouble}});
  auto seed = std::make_shared<Table>(s);
  for (int64_t i = 0; i < 64; ++i) {
    seed->AddRow({i % 4, 1.0});
  }
  TableMap base{{"seed", seed}};
  auto ref = EvaluateDagRelation(*dag, base, "out");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaMapReduce(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["out"]));
  EXPECT_GE(result->stats.stages, 4);
}

TEST(MapReduceRuntimeTest, GlobalAggregateGathersOnOneReducer) {
  auto dag = Parse("t = AGG SUM(amount) AS total FROM purchases;\n");
  TableMap base = PurchaseBase(500);
  auto ref = EvaluateDagRelation(*dag, base, "t");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaMapReduce(*dag, base);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["t"]));
}

TEST(MapReduceRuntimeTest, EmptyInputHandled) {
  auto dag = Parse("t = AGG COUNT(uid) AS n FROM purchases GROUP BY region;\n");
  TableMap base{{"purchases",
                 std::make_shared<Table>(Schema({{"uid", FieldType::kInt64},
                                                 {"region", FieldType::kInt64},
                                                 {"amount", FieldType::kDouble}}))}};
  auto result = ExecuteViaMapReduce(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->relations["t"]->num_rows(), 0u);
}

// ---- RDD runtime -----------------------------------------------------------

TEST(RddRuntimeTest, NarrowOpsAvoidShuffles) {
  auto dag = Parse(
      "f = SELECT * FROM purchases WHERE amount > 100;\n"
      "p = SELECT uid, amount FROM f;\n");
  auto result = ExecuteViaRdd(*dag, PurchaseBase(1000), {.num_partitions = 4});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.wide_stages, 0);
  EXPECT_EQ(result->stats.shuffled_records, 0);
  EXPECT_EQ(result->stats.narrow_tasks, 8);  // 2 ops x 4 partitions
}

TEST(RddRuntimeTest, WideOpsShuffle) {
  auto dag = Parse("g = AGG SUM(amount) AS total FROM purchases GROUP BY uid;\n");
  TableMap base = PurchaseBase(1000);
  auto ref = EvaluateDagRelation(*dag, base, "g");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaRdd(*dag, base, {.num_partitions = 4});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.wide_stages, 1);
  EXPECT_EQ(result->stats.shuffled_records, 1000);
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["g"]));
}

TEST(RddRuntimeTest, SetOperationsCoPartition) {
  auto dag = Parse(
      "i = INTERSECT a, b;\n"
      "d = DIFFERENCE a, b;\n"
      "u = UNION a, b;\n");
  Schema s({{"x", FieldType::kInt64}});
  auto a = std::make_shared<Table>(s);
  auto b = std::make_shared<Table>(s);
  for (int64_t i = 0; i < 100; ++i) {
    a->AddRow({i});
    if (i % 2 == 0) {
      b->AddRow({i});
    }
  }
  TableMap base{{"a", a}, {"b", b}};
  auto ref = EvaluateDag(*dag, base);
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaRdd(*dag, base, {.num_partitions = 3});
  ASSERT_TRUE(result.ok());
  for (const char* rel : {"i", "d", "u"}) {
    EXPECT_TRUE(Table::SameContent(*(*ref)[rel], *result->relations[rel])) << rel;
  }
}

TEST(RddRuntimeTest, SinglePartitionDegeneratesGracefully) {
  auto dag = Parse("g = AGG MAX(amount) AS hi FROM purchases GROUP BY region;\n");
  TableMap base = PurchaseBase(300);
  auto ref = EvaluateDagRelation(*dag, base, "g");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaRdd(*dag, base, {.num_partitions = 1});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["g"]));
}

// ---- Vertex runtime ----------------------------------------------------------

TEST(VertexRuntimeTest, PageRankMatchesDataflowInterpretation) {
  GraphDataset g = OrkutGraph();
  auto dag = Parse(PageRankGas(4), FrontendLanguage::kGas);
  TableMap base{{"vertices", g.vertices}, {"edges", g.edges}};
  auto ref = EvaluateDagRelation(*dag, base, "pagerank");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaVertexRuntime(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["pagerank"]));
  EXPECT_EQ(result->stats.supersteps, 4);
  EXPECT_GT(result->stats.messages_sent, 0);
}

TEST(VertexRuntimeTest, SsspSelfMessagesPreserveState) {
  GraphSpec spec;
  spec.name = "vr-sssp";
  spec.sample_vertices = 80;
  spec.nominal_vertices = 80;
  spec.seed = 3;
  spec.with_costs = true;
  spec.initial_value = 1e18;
  GraphDataset g = MakePowerLawGraph(spec);
  auto dag = Parse(SsspGas(6), FrontendLanguage::kGas);
  TableMap base{{"vertices", g.vertices}, {"edges", g.edges}};
  auto ref = EvaluateDagRelation(*dag, base, "sssp");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaVertexRuntime(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["sssp"]));
}

TEST(VertexRuntimeTest, BeerWrittenPageRankAlsoRuns) {
  // The runtime must accept the relationally-written loop, not just the GAS
  // front-end's lowering (idiom recognition is front-end agnostic, §4.3.1).
  GraphDataset g = LiveJournalGraph();
  auto dag = Parse(PageRankBeer(3));
  TableMap base{{"vertices", g.vertices}, {"edges", g.edges}};
  auto ref = EvaluateDagRelation(*dag, base, "pagerank");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaVertexRuntime(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["pagerank"]));
}

TEST(VertexRuntimeTest, RejectsNonIdiomLoops) {
  KmeansDataset data = MakeKmeans(1e6, 100, 3, 5);
  auto dag = Parse(KmeansBeer(2));
  TableMap base{{"points", data.points}, {"centers", data.centers}};
  auto result = ExecuteViaVertexRuntime(*dag, base);
  EXPECT_FALSE(result.ok());
}

TEST(VertexRuntimeTest, BatchOperatorsAroundTheLoopWork) {
  // The hybrid workflow: INTERSECT + degree derivation feed the loop.
  CommunityPair pair = MakeOverlappingCommunities();
  auto dag = Parse(CrossCommunityPageRankBeer(3));
  TableMap base{{"lj_edges", pair.a.edges}, {"web_edges", pair.b.edges}};
  auto ref = EvaluateDagRelation(*dag, base, "cc_pagerank");
  ASSERT_TRUE(ref.ok());
  auto result = ExecuteViaVertexRuntime(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["cc_pagerank"]));
}

// PageRank over a hand-built graph whose vertex ids are not INT64, so the
// vertex index takes its generic (hash + equality) path. Edges 0..n-1 form
// a ring; `dangling` extra edges leave or enter ids that are not vertices.
struct OddIdGraph {
  TablePtr vertices;
  TablePtr edges;
};

template <typename IdFn, typename EdgeIdFn>
OddIdGraph MakeOddIdGraph(int n, FieldType id_type, FieldType edge_id_type,
                          IdFn id, EdgeIdFn edge_id) {
  auto vertices = std::make_shared<Table>(
      Schema({{"id", id_type},
              {"vertex_value", FieldType::kDouble},
              {"vertex_degree", FieldType::kInt64}}));
  auto edges = std::make_shared<Table>(
      Schema({{"src", edge_id_type}, {"dst", edge_id_type}}));
  for (int i = 0; i < n; ++i) {
    vertices->AddRow({id(i), 1.0 + 0.01 * i, int64_t{2}});
    edges->AddRow({edge_id(i), edge_id((i + 1) % n)});
    edges->AddRow({edge_id(i), edge_id((i * 7 + 3) % n)});
  }
  // Dangling: from a missing vertex, and to a missing vertex.
  edges->AddRow({edge_id(n + 5), edge_id(0)});
  edges->AddRow({edge_id(1), edge_id(n + 9)});
  return {vertices, edges};
}

void ExpectVertexRuntimeMatches(const OddIdGraph& g, int iterations,
                                bool expect_messages = true) {
  auto dag = Parse(PageRankBeer(iterations));
  TableMap base{{"vertices", g.vertices}, {"edges", g.edges}};
  auto ref = EvaluateDagRelation(*dag, base, "pagerank");
  ASSERT_TRUE(ref.ok()) << ref.status();
  auto result = ExecuteViaVertexRuntime(*dag, base);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(Table::SameContent(*ref, *result->relations["pagerank"]))
      << ref->DebugString() << result->relations["pagerank"]->DebugString();
  EXPECT_EQ(result->stats.supersteps, iterations);
  EXPECT_EQ(result->stats.messages_sent > 0, expect_messages);
}

TEST(VertexRuntimeTest, StringVertexIdsWithDanglingEdges) {
  auto name = [](int i) { return Value(std::string("v") + std::to_string(i)); };
  ExpectVertexRuntimeMatches(
      MakeOddIdGraph(40, FieldType::kString, FieldType::kString, name, name),
      4);
}

TEST(VertexRuntimeTest, DoubleVertexIdsWithIntegerEdges) {
  ExpectVertexRuntimeMatches(
      MakeOddIdGraph(
          40, FieldType::kDouble, FieldType::kInt64,
          [](int i) { return Value(static_cast<double>(i)); },
          [](int i) { return Value(static_cast<int64_t>(i)); }),
      3);
}

TEST(VertexRuntimeTest, IntegerVertexIdsWithDoubleEdges) {
  // Double edge ids probe the INT64 index through their double view; the
  // dangling ids are fractional and match nothing.
  ExpectVertexRuntimeMatches(
      MakeOddIdGraph(
          40, FieldType::kInt64, FieldType::kDouble,
          [](int i) { return Value(static_cast<int64_t>(i)); },
          [](int i) { return Value(i < 40 ? i : i + 0.5); }),
      3);
}

TEST(VertexRuntimeTest, IntegerIdsWithDanglingEdgesOnly) {
  // Every edge dangles: no messages arrive, so the rejoin drops every vertex.
  auto vertices = std::make_shared<Table>(
      Schema({{"id", FieldType::kInt64},
              {"vertex_value", FieldType::kDouble},
              {"vertex_degree", FieldType::kInt64}}));
  auto edges = std::make_shared<Table>(
      Schema({{"src", FieldType::kInt64}, {"dst", FieldType::kInt64}}));
  for (int64_t i = 0; i < 10; ++i) {
    vertices->AddRow({i, 1.0, int64_t{1}});
    edges->AddRow({i + 100, i});
  }
  ExpectVertexRuntimeMatches({vertices, edges}, 2, /*expect_messages=*/false);
}

TEST(VertexRuntimeTest, IdiomRejectsKmeansDistanceJoin) {
  // Regression: the distance join in k-means reads loop state on both sides;
  // it must not be classified as vertex-centric (it broke the extractor).
  auto dag = Parse(KmeansBeer(2));
  int while_id = (*dag).ProducerOf("kmeans_centers");
  ASSERT_GE(while_id, 0);
  EXPECT_FALSE(IsGraphIdiom(*dag, while_id));
}

}  // namespace
}  // namespace musketeer
