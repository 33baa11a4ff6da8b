#include "src/ir/eval.h"

#include <algorithm>
#include <unordered_set>

#include "src/base/cancel.h"
#include "src/relational/ops.h"

namespace musketeer {

namespace {

// Resolves a kGroupBy/kAgg node's column names against `schema`.
Status ResolveGroupArgs(const OperatorNode& node, const Schema& schema,
                        std::vector<int>* group_idx,
                        std::vector<AggSpec>* specs) {
  std::vector<std::string> group_columns;
  std::vector<NamedAgg> aggs;
  if (node.kind == OpKind::kGroupBy) {
    const auto& p = std::get<GroupByParams>(node.params);
    group_columns = p.group_columns;
    aggs = p.aggs;
  } else {
    aggs = std::get<AggParams>(node.params).aggs;
  }
  for (const std::string& c : group_columns) {
    auto idx = schema.IndexOf(c);
    if (!idx.has_value()) {
      return InvalidArgumentError("GROUP BY: no column '" + c + "'");
    }
    group_idx->push_back(*idx);
  }
  for (const NamedAgg& a : aggs) {
    int col = 0;
    if (a.fn != AggFn::kCount) {
      auto idx = schema.IndexOf(a.column);
      if (!idx.has_value()) {
        return InvalidArgumentError("AGG: no column '" + a.column + "'");
      }
      col = *idx;
    }
    specs->push_back(AggSpec{a.fn, col, a.output_name});
  }
  return OkStatus();
}

StatusOr<Table> EvalGroupByLike(const OperatorNode& node, const Table& in) {
  std::vector<int> group_idx;
  std::vector<AggSpec> specs;
  MUSKETEER_RETURN_IF_ERROR(
      ResolveGroupArgs(node, in.schema(), &group_idx, &specs));
  return GroupByAgg(in, group_idx, specs);
}

}  // namespace

Status CompileMapExprs(const MapParams& p, const Schema& schema,
                       Schema* out_schema, std::vector<BatchEval>* exprs) {
  for (const NamedExpr& ne : p.outputs) {
    MUSKETEER_ASSIGN_OR_RETURN(FieldType t, ne.expr->InferType(schema));
    out_schema->AddField({ne.name, t});
    MUSKETEER_ASSIGN_OR_RETURN(BatchEval eval, ne.expr->CompileBatch(schema));
    if (t == FieldType::kDouble) {
      exprs->emplace_back([eval](const Table& in, size_t begin,
                                 size_t end) -> Column {
        Column c = eval(in, begin, end);
        if (c.type() != FieldType::kInt64) {
          return c;
        }
        Column out(FieldType::kDouble);
        std::vector<double>& v = *out.mutable_doubles();
        const std::vector<int64_t>& iv = c.ints();
        v.reserve(iv.size());
        for (int64_t x : iv) v.push_back(static_cast<double>(x));
        return out;
      });
    } else {
      exprs->push_back(eval);
    }
  }
  return OkStatus();
}

StatusOr<Table> EvaluateOperator(const OperatorNode& node,
                                 const std::vector<const Table*>& inputs) {
  switch (node.kind) {
    case OpKind::kInput:
    case OpKind::kWhile:
      return InternalError(std::string(OpKindName(node.kind)) +
                           " must be handled by the DAG executor");
    case OpKind::kSelect: {
      const auto& p = std::get<SelectParams>(node.params);
      // Selection-bitmap predicate evaluation: the compiled mask writes one
      // byte per row and the kernel compacts survivors branch-free — no
      // intermediate 0/1 column (kept set identical to CompilePredicate).
      MUSKETEER_ASSIGN_OR_RETURN(MaskEval pred,
                                 p.condition->CompileMask(inputs[0]->schema()));
      return SelectRowsMask(*inputs[0], {pred});
    }
    case OpKind::kProject: {
      const auto& p = std::get<ProjectParams>(node.params);
      std::vector<int> cols;
      for (const std::string& c : p.columns) {
        auto idx = inputs[0]->schema().IndexOf(c);
        if (!idx.has_value()) {
          return InvalidArgumentError("PROJECT: no column '" + c + "' in " +
                                      inputs[0]->schema().ToString());
        }
        cols.push_back(*idx);
      }
      return ProjectColumns(*inputs[0], cols);
    }
    case OpKind::kMap: {
      const auto& p = std::get<MapParams>(node.params);
      Schema out_schema;
      std::vector<BatchEval> exprs;
      MUSKETEER_RETURN_IF_ERROR(
          CompileMapExprs(p, inputs[0]->schema(), &out_schema, &exprs));
      return MapRowsBatch(*inputs[0], out_schema, exprs);
    }
    case OpKind::kJoin: {
      const auto& p = std::get<JoinParams>(node.params);
      auto li = inputs[0]->schema().IndexOf(p.left_key);
      auto ri = inputs[1]->schema().IndexOf(p.right_key);
      if (!li.has_value() || !ri.has_value()) {
        return InvalidArgumentError("JOIN: key column missing");
      }
      return HashJoin(*inputs[0], *inputs[1], *li, *ri);
    }
    case OpKind::kCrossJoin:
      return CrossJoin(*inputs[0], *inputs[1]);
    case OpKind::kUnion:
      return UnionAll(*inputs[0], *inputs[1]);
    case OpKind::kIntersect:
      return Intersect(*inputs[0], *inputs[1]);
    case OpKind::kDifference:
      return Difference(*inputs[0], *inputs[1]);
    case OpKind::kDistinct:
      return Distinct(*inputs[0]);
    case OpKind::kGroupBy:
    case OpKind::kAgg:
      return EvalGroupByLike(node, *inputs[0]);
    case OpKind::kMax:
    case OpKind::kMin: {
      const auto& p = std::get<ExtremeParams>(node.params);
      auto idx = inputs[0]->schema().IndexOf(p.column);
      if (!idx.has_value()) {
        return InvalidArgumentError("MAX/MIN: no column '" + p.column + "'");
      }
      return ExtremeRow(*inputs[0], *idx, node.kind == OpKind::kMax);
    }
    case OpKind::kTopN: {
      const auto& p = std::get<TopNParams>(node.params);
      auto idx = inputs[0]->schema().IndexOf(p.column);
      if (!idx.has_value()) {
        return InvalidArgumentError("TOP_N: no column '" + p.column + "'");
      }
      return TopNBy(*inputs[0], *idx, static_cast<size_t>(p.n));
    }
    case OpKind::kSort: {
      const auto& p = std::get<SortParams>(node.params);
      std::vector<int> cols;
      for (const std::string& c : p.columns) {
        auto idx = inputs[0]->schema().IndexOf(c);
        if (!idx.has_value()) {
          return InvalidArgumentError("SORT: no column '" + c + "'");
        }
        cols.push_back(*idx);
      }
      return SortBy(*inputs[0], cols);
    }
    case OpKind::kUdf: {
      const auto& p = std::get<UdfParams>(node.params);
      if (!p.fn) {
        return FailedPreconditionError("UDF '" + p.name + "' has no implementation");
      }
      return p.fn(inputs);
    }
    case OpKind::kBlackBox: {
      const auto& p = std::get<BlackBoxParams>(node.params);
      if (!p.fn) {
        return FailedPreconditionError("black-box operator has no simulation hook");
      }
      return p.fn(inputs);
    }
  }
  return InternalError("bad op kind");
}

namespace {

// Relation names a caller will read from the result map. When non-null, any
// intermediate whose output name is NOT in the set may be elided by operator
// fusion; when null, every node output must be materialized (the public
// EvaluateDag contract).
using NeededSet = std::unordered_set<std::string>;

// A fusible chain: selects* → (map | project)? → (group-by | agg)?, linked
// by single-consumer edges, at least two nodes long. Executing it through
// the fused kernels skips materializing every intermediate while staying
// bit-identical to the node-at-a-time pipeline (see FusedSelectTransformAgg
// for why the aggregate's FP merge tree is preserved).
struct FusedChain {
  std::vector<const OperatorNode*> nodes;
  const OperatorNode* last() const { return nodes.back(); }
};

bool IsChainStart(OpKind k) {
  return k == OpKind::kSelect || k == OpKind::kMap || k == OpKind::kProject;
}

// Plans fusible chains for one DAG evaluation. `consumers[id]` counts reader
// edges; a node can be absorbed only when its single consumer is the next
// chain node and its output relation is not in `needed`.
std::vector<FusedChain> PlanFusedChains(const Dag& dag,
                                        const NeededSet& needed) {
  const size_t n = dag.num_nodes();
  std::vector<int> consumers(n, 0);
  std::vector<int> single_consumer(n, -1);
  for (const OperatorNode& node : dag.nodes()) {
    for (int in : node.inputs) {
      ++consumers[in];
      single_consumer[in] = node.id;
    }
  }
  std::vector<FusedChain> chains;
  std::vector<char> absorbed(n, 0);
  for (const OperatorNode& node : dag.nodes()) {
    if (absorbed[node.id] || !IsChainStart(node.kind)) continue;
    if (node.inputs.size() != 1) continue;
    FusedChain chain;
    chain.nodes.push_back(&node);
    bool have_transform = node.kind != OpKind::kSelect;
    const OperatorNode* cur = &node;
    while (true) {
      if (consumers[cur->id] != 1) break;
      if (needed.count(cur->output) != 0) break;
      const OperatorNode& next = dag.node(single_consumer[cur->id]);
      if (next.inputs.size() != 1) break;
      if (next.kind == OpKind::kSelect && !have_transform) {
        chain.nodes.push_back(&next);
        cur = &next;
        continue;
      }
      if ((next.kind == OpKind::kMap || next.kind == OpKind::kProject) &&
          !have_transform) {
        have_transform = true;
        chain.nodes.push_back(&next);
        cur = &next;
        continue;
      }
      if (next.kind == OpKind::kGroupBy || next.kind == OpKind::kAgg) {
        chain.nodes.push_back(&next);  // terminal aggregate
      }
      break;
    }
    if (chain.nodes.size() < 2) continue;
    for (const OperatorNode* c : chain.nodes) absorbed[c->id] = 1;
    chains.push_back(std::move(chain));
  }
  return chains;
}

// Compiles and runs one fused chain against its input table.
StatusOr<Table> EvaluateFusedChain(const FusedChain& chain, const Table& src) {
  const Schema& in_schema = src.schema();
  std::vector<MaskEval> filters;
  size_t j = 0;
  for (; j < chain.nodes.size() && chain.nodes[j]->kind == OpKind::kSelect;
       ++j) {
    const auto& p = std::get<SelectParams>(chain.nodes[j]->params);
    MUSKETEER_ASSIGN_OR_RETURN(MaskEval m, p.condition->CompileMask(in_schema));
    filters.push_back(std::move(m));
  }
  const OperatorNode* transform = nullptr;
  if (j < chain.nodes.size() && (chain.nodes[j]->kind == OpKind::kMap ||
                                 chain.nodes[j]->kind == OpKind::kProject)) {
    transform = chain.nodes[j];
    ++j;
  }
  const OperatorNode* agg = j < chain.nodes.size() ? chain.nodes[j] : nullptr;

  if (transform == nullptr && agg == nullptr) {
    // Pure select chain: one masked pass over the full schema.
    return SelectRowsMask(src, filters);
  }

  // Build the transform stage. The scratch schema holds only the columns the
  // stage actually reads, and expressions are (re)compiled against it — the
  // column values are identical to the unfused evaluation, so the output is
  // too.
  FusedTransform ft;
  auto add_gather = [&](const std::string& name) -> Status {
    auto idx = in_schema.IndexOf(name);
    if (!idx.has_value()) {
      return InvalidArgumentError("no column '" + name + "' in " +
                                  in_schema.ToString());
    }
    ft.gather_cols.push_back(*idx);
    ft.scratch_schema.AddField(in_schema.field(*idx));
    return OkStatus();
  };
  if (transform != nullptr && transform->kind == OpKind::kProject) {
    const auto& p = std::get<ProjectParams>(transform->params);
    if (p.columns.empty()) {
      // Degenerate zero-column projection: the scratch table could not carry
      // a row count, so run the (cheap) two-step form instead.
      Table sel = SelectRowsMask(src, filters);
      if (agg == nullptr) {
        return ProjectColumns(sel, {});
      }
      MUSKETEER_ASSIGN_OR_RETURN(Table proj, ProjectColumns(sel, {}));
      std::vector<int> group_idx;
      std::vector<AggSpec> specs;
      MUSKETEER_RETURN_IF_ERROR(
          ResolveGroupArgs(*agg, proj.schema(), &group_idx, &specs));
      return GroupByAgg(proj, group_idx, specs);
    }
    for (const std::string& c : p.columns) {
      MUSKETEER_RETURN_IF_ERROR(add_gather(c));
    }
    ft.out_schema = ft.scratch_schema;  // identity over the projected columns
  } else if (transform != nullptr) {
    const auto& p = std::get<MapParams>(transform->params);
    std::vector<std::string> used;
    for (const NamedExpr& ne : p.outputs) {
      ne.expr->CollectColumns(&used);
    }
    if (used.empty() && in_schema.num_fields() > 0) {
      // Literal-only outputs: carry one input column so the scratch block
      // keeps the surviving-row count (zero-column tables report 0 rows).
      used.push_back(in_schema.field(0).name);
    }
    for (const std::string& c : used) {
      MUSKETEER_RETURN_IF_ERROR(add_gather(c));
    }
    MUSKETEER_RETURN_IF_ERROR(
        CompileMapExprs(p, ft.scratch_schema, &ft.out_schema, &ft.exprs));
  } else {
    // Aggregate directly over selected input rows: gather the group and
    // aggregate columns (first-use order, deduplicated).
    std::vector<std::string> used;
    auto add_used = [&](const std::string& c) {
      if (std::find(used.begin(), used.end(), c) == used.end()) {
        used.push_back(c);
      }
    };
    if (agg->kind == OpKind::kGroupBy) {
      const auto& p = std::get<GroupByParams>(agg->params);
      for (const std::string& c : p.group_columns) add_used(c);
      for (const NamedAgg& a : p.aggs) {
        if (a.fn != AggFn::kCount) add_used(a.column);
      }
    } else {
      for (const NamedAgg& a : std::get<AggParams>(agg->params).aggs) {
        if (a.fn != AggFn::kCount) add_used(a.column);
      }
    }
    if (used.empty() && in_schema.num_fields() > 0) {
      // Pure COUNT: keep one column so the block carries the row count.
      used.push_back(in_schema.field(0).name);
    }
    for (const std::string& c : used) {
      MUSKETEER_RETURN_IF_ERROR(add_gather(c));
    }
    ft.out_schema = ft.scratch_schema;
  }

  if (agg == nullptr) {
    return FusedSelectTransform(src, filters, ft);
  }
  std::vector<int> group_idx;
  std::vector<AggSpec> specs;
  MUSKETEER_RETURN_IF_ERROR(
      ResolveGroupArgs(*agg, ft.out_schema, &group_idx, &specs));
  return FusedSelectTransformAgg(src, filters, ft, group_idx, specs);
}

// DAG evaluation with optional operator fusion. `needed` == nullptr keeps
// the public EvaluateDag contract (every node output lands in the relation
// map, nothing fuses); a non-null set lets select→map→aggregate chains whose
// intermediates nobody reads run through the fused kernels.
StatusOr<TableMap> EvaluateDagImpl(const Dag& dag, const TableMap& base,
                                   const NeededSet* needed) {
  TableMap relations = base;
  std::vector<TablePtr> by_node(dag.num_nodes());

  std::vector<FusedChain> chains =
      needed != nullptr ? PlanFusedChains(dag, *needed)
                        : std::vector<FusedChain>();
  // chain_at[id]: chain whose FIRST node is id; fused_into[id]: id of the
  // chain's last node for every absorbed node (skip marker).
  std::vector<const FusedChain*> chain_at(dag.num_nodes(), nullptr);
  std::vector<char> absorbed(dag.num_nodes(), 0);
  for (const FusedChain& c : chains) {
    chain_at[c.nodes.front()->id] = &c;
    for (const OperatorNode* n : c.nodes) absorbed[n->id] = 1;
  }

  for (const OperatorNode& node : dag.nodes()) {
    // Cooperative cancellation/deadline checkpoint: one probe per operator
    // batch (and per loop iteration below). No-op unless the executing
    // thread has a ScopedInterrupt installed.
    MUSKETEER_RETURN_IF_ERROR(CheckInterrupt());
    if (node.kind == OpKind::kInput) {
      const auto& p = std::get<InputParams>(node.params);
      auto it = relations.find(p.relation);
      if (it == relations.end()) {
        return NotFoundError("base relation '" + p.relation + "' not provided");
      }
      by_node[node.id] = it->second;
      relations[node.output] = it->second;
      continue;
    }
    if (node.kind == OpKind::kWhile) {
      const auto& p = std::get<WhileParams>(node.params);
      // Seed loop-carried relations from the WHILE node's inputs; pass
      // loop-invariant extra inputs under their producing relation names.
      TableMap body_base = base;
      for (size_t i = 0; i < p.bindings.size(); ++i) {
        body_base[p.bindings[i].loop_input] = by_node[node.inputs[i]];
      }
      for (size_t i = p.bindings.size(); i < node.inputs.size(); ++i) {
        body_base[dag.node(node.inputs[i]).output] = by_node[node.inputs[i]];
      }
      // Body iterations surface only the loop-carried outputs and the result
      // relation, so fusion inside the body is always safe — regardless of
      // the outer call's `needed` contract.
      NeededSet body_needed;
      for (const LoopBinding& b : p.bindings) {
        body_needed.insert(b.body_output);
      }
      body_needed.insert(p.result);
      TableMap iter_state;
      for (int64_t iter = 0; iter < p.iterations; ++iter) {
        MUSKETEER_ASSIGN_OR_RETURN(
            iter_state, EvaluateDagImpl(*p.body, body_base, &body_needed));
        bool stable = p.until_fixpoint;
        for (const LoopBinding& b : p.bindings) {
          TablePtr next = iter_state[b.body_output];
          stable = stable && Table::SameContent(*body_base[b.loop_input], *next);
          body_base[b.loop_input] = std::move(next);
        }
        if (stable) {
          break;
        }
      }
      auto it = iter_state.find(p.result);
      if (it == iter_state.end()) {
        return InternalError("WHILE result relation '" + p.result + "' missing");
      }
      by_node[node.id] = it->second;
      relations[node.output] = it->second;
      continue;
    }
    if (absorbed[node.id]) {
      const FusedChain* chain = chain_at[node.id];
      if (chain == nullptr) {
        continue;  // interior/terminal chain node; handled at the chain head
      }
      auto result =
          EvaluateFusedChain(*chain, *by_node[chain->nodes.front()->inputs[0]]);
      if (!result.ok()) {
        return Status(result.status().code(),
                      chain->last()->DebugString() + " (fused): " +
                          result.status().message());
      }
      auto table = std::make_shared<Table>(std::move(result).value());
      by_node[chain->last()->id] = table;
      relations[chain->last()->output] = table;
      continue;
    }
    std::vector<const Table*> inputs;
    inputs.reserve(node.inputs.size());
    for (int i : node.inputs) {
      inputs.push_back(by_node[i].get());
    }
    auto result = EvaluateOperator(node, inputs);
    if (!result.ok()) {
      return Status(result.status().code(),
                    node.DebugString() + ": " + result.status().message());
    }
    auto table = std::make_shared<Table>(std::move(result).value());
    by_node[node.id] = table;
    relations[node.output] = table;
  }
  return relations;
}

}  // namespace

StatusOr<TableMap> EvaluateDag(const Dag& dag, const TableMap& base) {
  return EvaluateDagImpl(dag, base, nullptr);
}

StatusOr<Table> EvaluateDagRelation(const Dag& dag, const TableMap& base,
                                    const std::string& name) {
  // Only `name` must survive — everything else is fair game for fusion.
  NeededSet needed{name};
  MUSKETEER_ASSIGN_OR_RETURN(TableMap all, EvaluateDagImpl(dag, base, &needed));
  auto it = all.find(name);
  if (it == all.end()) {
    return NotFoundError("relation '" + name + "' not produced by the workflow");
  }
  return *it->second;
}

}  // namespace musketeer
