// Tests for the IR: expressions, DAG construction/validation, schema
// inference, WHILE handling and the reference interpreter.

#include "src/ir/dag.h"

#include <gtest/gtest.h>

#include "src/ir/eval.h"

namespace musketeer {
namespace {

Schema EdgeSchema() {
  return Schema({{"src", FieldType::kInt64}, {"dst", FieldType::kInt64}});
}

TEST(ExprTest, ArithmeticAndComparisonEvaluation) {
  Schema s({{"a", FieldType::kInt64}, {"b", FieldType::kDouble}});
  // (a + 2) * b
  ExprPtr e = Expr::Binary(
      BinOp::kMul,
      Expr::Binary(BinOp::kAdd, Expr::Column("a"), Expr::Literal(int64_t{2})),
      Expr::Column("b"));
  auto proj = e->Compile(s);
  ASSERT_TRUE(proj.ok());
  Row row{int64_t{3}, 2.5};
  EXPECT_DOUBLE_EQ(AsDouble((*proj)(row)), 12.5);

  ExprPtr cmp = Expr::Binary(BinOp::kGe, Expr::Column("b"), Expr::Literal(2.0));
  auto pred = cmp->CompilePredicate(s);
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE((*pred)(row));
}

TEST(ExprTest, TypeInference) {
  Schema s({{"a", FieldType::kInt64},
            {"b", FieldType::kDouble},
            {"s", FieldType::kString}});
  auto t1 = Expr::Binary(BinOp::kAdd, Expr::Column("a"), Expr::Literal(int64_t{1}))
                ->InferType(s);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(*t1, FieldType::kInt64);

  auto t2 = Expr::Binary(BinOp::kDiv, Expr::Column("a"), Expr::Literal(int64_t{2}))
                ->InferType(s);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, FieldType::kDouble);  // division always widens

  auto t3 = Expr::Binary(BinOp::kAdd, Expr::Column("s"), Expr::Literal(int64_t{1}))
                ->InferType(s);
  EXPECT_FALSE(t3.ok());

  auto t4 = Expr::Column("missing")->InferType(s);
  EXPECT_FALSE(t4.ok());
}

TEST(ExprTest, IntegerDivisionByZeroYieldsZero) {
  Schema s({{"a", FieldType::kInt64}});
  ExprPtr e = Expr::Binary(BinOp::kDiv, Expr::Column("a"), Expr::Literal(int64_t{0}));
  auto proj = e->Compile(s);
  ASSERT_TRUE(proj.ok());
  Row row{int64_t{7}};
  EXPECT_DOUBLE_EQ(AsDouble((*proj)(row)), 0.0);
}

TEST(ExprTest, CollectColumnsDeduplicates) {
  ExprPtr e = Expr::Binary(BinOp::kAdd, Expr::Column("x"),
                           Expr::Binary(BinOp::kMul, Expr::Column("x"),
                                        Expr::Column("y")));
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "x");
  EXPECT_EQ(cols[1], "y");
}

TEST(DagTest, ValidationCatchesDuplicateNames) {
  Dag dag;
  int in = dag.AddInput("edges");
  dag.AddNode(OpKind::kDistinct, "out", {in}, DistinctParams{});
  dag.AddNode(OpKind::kDistinct, "out", {in}, DistinctParams{});
  EXPECT_FALSE(dag.Validate().ok());
}

TEST(DagTest, ValidationCatchesArityMismatch) {
  Dag dag;
  int in = dag.AddInput("edges");
  dag.AddNode(OpKind::kJoin, "bad", {in}, JoinParams{"src", "dst"});
  EXPECT_FALSE(dag.Validate().ok());
}

TEST(DagTest, SchemaInferenceJoinLayout) {
  Dag dag;
  int e1 = dag.AddInput("edges");
  int e2 = dag.AddInput("edges2");
  dag.AddNode(OpKind::kJoin, "j", {e1, e2}, JoinParams{"dst", "src"});
  SchemaMap base{{"edges", EdgeSchema()},
                 {"edges2", Schema({{"src", FieldType::kInt64},
                                    {"dst2", FieldType::kInt64}})}};
  auto schemas = dag.InferSchemas(base);
  ASSERT_TRUE(schemas.ok()) << schemas.status();
  const Schema& j = (*schemas)[2];
  ASSERT_EQ(j.num_fields(), 3u);
  EXPECT_EQ(j.field(0).name, "dst");   // join key
  EXPECT_EQ(j.field(1).name, "src");   // left rest
  EXPECT_EQ(j.field(2).name, "dst2");  // right rest
}

TEST(DagTest, SchemaInferenceReportsMissingColumns) {
  Dag dag;
  int in = dag.AddInput("edges");
  dag.AddNode(OpKind::kProject, "p", {in}, ProjectParams{{"nope"}});
  auto schemas = dag.InferSchemas({{"edges", EdgeSchema()}});
  EXPECT_FALSE(schemas.ok());
}

// ---- WHILE scopes in schema inference -------------------------------------
// A WHILE body resolves its INPUTs against the loop's bindings and extra
// inputs first, then the enclosing scope (up to the base map).

WhileParams MakeLoop(std::unique_ptr<Dag> body, std::vector<LoopBinding> bindings,
                     std::string result) {
  WhileParams wp;
  wp.iterations = 2;
  wp.body = std::shared_ptr<const Dag>(body.release());
  wp.bindings = std::move(bindings);
  wp.result = std::move(result);
  return wp;
}

TEST(DagTest, SchemaInferenceLoopBindingShadowsBaseRelation) {
  // The base map also holds a three-column "v"; the body must see the
  // binding's two-column edge schema instead.
  Dag dag;
  int in = dag.AddInput("edges");
  auto body = std::make_unique<Dag>();
  int bv = body->AddInput("v");
  body->AddNode(OpKind::kDistinct, "v_next", {bv}, DistinctParams{});
  int loop = dag.AddNode(OpKind::kWhile, "out", {in},
                         MakeLoop(std::move(body), {{"v", "v_next"}}, "v_next"));
  SchemaMap base{{"edges", EdgeSchema()},
                 {"v", Schema({{"a", FieldType::kInt64},
                               {"b", FieldType::kString},
                               {"c", FieldType::kDouble}})}};
  auto schemas = dag.InferSchemas(base);
  ASSERT_TRUE(schemas.ok()) << schemas.status();
  EXPECT_EQ((*schemas)[loop], EdgeSchema()) << (*schemas)[loop].ToString();
}

TEST(DagTest, SchemaInferenceExtraLoopInputVisibleUnderProducerName) {
  // "weights_sel" is no base relation: the body can only see it as the
  // WHILE's non-binding extra input, named after its outer producer.
  Dag dag;
  int in = dag.AddInput("edges");
  int w = dag.AddInput("weights");
  int sel = dag.AddNode(OpKind::kSelect, "weights_sel", {w},
                        SelectParams{Expr::Binary(BinOp::kGt, Expr::Column("w"),
                                                  Expr::Literal(0.5))});
  auto body = std::make_unique<Dag>();
  int bv = body->AddInput("v");
  int bw = body->AddInput("weights_sel");
  int j = body->AddNode(OpKind::kJoin, "j", {bv, bw}, JoinParams{"src", "src"});
  body->AddNode(OpKind::kProject, "v_next", {j}, ProjectParams{{"src", "dst"}});
  int loop = dag.AddNode(OpKind::kWhile, "out", {in, sel},
                         MakeLoop(std::move(body), {{"v", "v_next"}}, "j"));
  SchemaMap base{{"edges", EdgeSchema()},
                 {"weights", Schema({{"src", FieldType::kInt64},
                                     {"w", FieldType::kDouble}})}};
  auto schemas = dag.InferSchemas(base);
  ASSERT_TRUE(schemas.ok()) << schemas.status();
  EXPECT_EQ((*schemas)[loop], Schema({{"src", FieldType::kInt64},
                                      {"dst", FieldType::kInt64},
                                      {"w", FieldType::kDouble}}))
      << (*schemas)[loop].ToString();
}

TEST(DagTest, SchemaInferenceNestedLoopReadsGrandOuterBaseRelation) {
  // The inner body reads "labels" straight from the base map, two scopes up.
  auto inner_body = std::make_unique<Dag>();
  int bu = inner_body->AddInput("u");
  int bl = inner_body->AddInput("labels");
  int j = inner_body->AddNode(OpKind::kJoin, "j", {bu, bl}, JoinParams{"src", "id"});
  inner_body->AddNode(OpKind::kProject, "u_next", {j}, ProjectParams{{"src", "dst"}});

  auto outer_body = std::make_unique<Dag>();
  int bv = outer_body->AddInput("v");
  int inner = outer_body->AddNode(
      OpKind::kWhile, "inner_out", {bv},
      MakeLoop(std::move(inner_body), {{"u", "u_next"}}, "j"));
  outer_body->AddNode(OpKind::kProject, "v_next", {inner},
                      ProjectParams{{"src", "dst"}});

  Dag dag;
  int in = dag.AddInput("edges");
  int loop = dag.AddNode(OpKind::kWhile, "out", {in},
                         MakeLoop(std::move(outer_body), {{"v", "v_next"}},
                                  "inner_out"));
  SchemaMap base{{"edges", EdgeSchema()},
                 {"labels", Schema({{"id", FieldType::kInt64},
                                    {"name", FieldType::kString}})}};
  auto schemas = dag.InferSchemas(base);
  ASSERT_TRUE(schemas.ok()) << schemas.status();
  EXPECT_EQ((*schemas)[loop], Schema({{"src", FieldType::kInt64},
                                      {"dst", FieldType::kInt64},
                                      {"name", FieldType::kString}}))
      << (*schemas)[loop].ToString();
}

TEST(DagTest, SchemaInferenceMissingRelationInLoopBodyIsNotFound) {
  Dag dag;
  int in = dag.AddInput("edges");
  auto body = std::make_unique<Dag>();
  int bv = body->AddInput("v");
  int bn = body->AddInput("nowhere");
  body->AddNode(OpKind::kUnion, "v_next", {bv, bn}, UnionParams{});
  dag.AddNode(OpKind::kWhile, "out", {in},
              MakeLoop(std::move(body), {{"v", "v_next"}}, "v_next"));
  auto schemas = dag.InferSchemas({{"edges", EdgeSchema()}});
  ASSERT_FALSE(schemas.ok());
  EXPECT_EQ(schemas.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(schemas.status().message(), "base relation 'nowhere' has no schema");
}

TEST(DagTest, SinksAndConsumers) {
  Dag dag;
  int in = dag.AddInput("edges");
  int d = dag.AddNode(OpKind::kDistinct, "d", {in}, DistinctParams{});
  int p = dag.AddNode(OpKind::kProject, "p", {d}, ProjectParams{{"src"}});
  EXPECT_EQ(dag.ConsumersOf(in), std::vector<int>{d});
  EXPECT_EQ(dag.Sinks(), std::vector<int>{p});
}

TEST(DagTest, CloneIsDeep) {
  Dag dag;
  int in = dag.AddInput("x");
  auto body = std::make_unique<Dag>();
  int bi = body->AddInput("v");
  body->AddNode(OpKind::kDistinct, "v_next", {bi}, DistinctParams{});
  WhileParams wp;
  wp.iterations = 2;
  wp.body = std::shared_ptr<const Dag>(body.release());
  wp.bindings = {{"v", "v_next"}};
  wp.result = "v_next";
  dag.AddNode(OpKind::kWhile, "out", {in}, std::move(wp));

  auto clone = dag.Clone();
  ASSERT_EQ(clone->num_nodes(), dag.num_nodes());
  const auto& orig_body = std::get<WhileParams>(dag.node(1).params).body;
  const auto& clone_body = std::get<WhileParams>(clone->node(1).params).body;
  EXPECT_NE(orig_body.get(), clone_body.get());
  EXPECT_EQ(clone_body->num_nodes(), orig_body->num_nodes());
}

TEST(DagTest, TotalOperatorCountRecursesIntoWhile) {
  Dag dag;
  int in = dag.AddInput("x");
  auto body = std::make_unique<Dag>();
  int bi = body->AddInput("v");
  int d = body->AddNode(OpKind::kDistinct, "d", {bi}, DistinctParams{});
  body->AddNode(OpKind::kProject, "v_next", {d}, ProjectParams{{"src"}});
  WhileParams wp;
  wp.iterations = 3;
  wp.body = std::shared_ptr<const Dag>(body.release());
  wp.bindings = {{"v", "v_next"}};
  wp.result = "v_next";
  dag.AddNode(OpKind::kWhile, "out", {in}, std::move(wp));
  EXPECT_EQ(dag.TotalOperatorCount(), 2);
}

TEST(EvalTest, UdfOperatorRuns) {
  Dag dag;
  int in = dag.AddInput("edges");
  UdfParams udf;
  udf.name = "count_rows";
  udf.output_schema = Schema({{"n", FieldType::kInt64}});
  udf.fn = [](const std::vector<const Table*>& inputs) -> StatusOr<Table> {
    Table out(Schema({{"n", FieldType::kInt64}}));
    out.AddRow({static_cast<int64_t>(inputs[0]->num_rows())});
    return out;
  };
  dag.AddNode(OpKind::kUdf, "n", {in}, std::move(udf));

  auto edges = std::make_shared<Table>(EdgeSchema());
  edges->AddRow({int64_t{1}, int64_t{2}});
  edges->AddRow({int64_t{2}, int64_t{3}});
  auto result = EvaluateDagRelation(dag, {{"edges", edges}}, "n");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(AsInt64(result->MaterializeRows()[0][0]), 2);
}

TEST(EvalTest, MissingBaseRelationReported) {
  Dag dag;
  dag.AddInput("ghost");
  auto result = EvaluateDag(dag, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EvalTest, ErrorsNameTheFailingOperator) {
  Dag dag;
  int in = dag.AddInput("edges");
  dag.AddNode(OpKind::kProject, "p", {in}, ProjectParams{{"missing_col"}});
  auto edges = std::make_shared<Table>(EdgeSchema());
  auto result = EvaluateDag(dag, {{"edges", edges}});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("PROJECT"), std::string::npos);
}

TEST(EvalTest, DotExportMentionsAllNodes) {
  Dag dag;
  int in = dag.AddInput("edges");
  dag.AddNode(OpKind::kDistinct, "d", {in}, DistinctParams{});
  std::string dot = dag.ToDot();
  EXPECT_NE(dot.find("INPUT"), std::string::npos);
  EXPECT_NE(dot.find("DISTINCT"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

}  // namespace
}  // namespace musketeer
