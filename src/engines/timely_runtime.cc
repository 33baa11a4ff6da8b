#include "src/engines/timely_runtime.h"

#include <algorithm>

#include "src/base/cancel.h"
#include "src/base/parallel.h"
#include "src/relational/ops.h"

// Parallelism note: the dataflow itself is one sequential pass. Operators
// hold mutable per-port state (buffers, notification counts) that every
// delivered batch mutates, as in Naiad's OnRecv. The work inside a batch is
// columnar (compiled masks and batch expressions), and stateful operators
// that evaluate a whole relation at a notification barrier call the shared
// relational kernels, which parallelize internally (see DESIGN.md "Parallel
// data plane").

namespace musketeer {

namespace {

// One message batch in flight: rows [begin, end) of a table that outlives
// the synchronous push (a source relation, an operator's result, or a
// streaming operator's output block). Sources and stateful results travel as
// zero-copy slices of at most kMorselRows rows.
struct Batch {
  const Table* table = nullptr;
  size_t begin = 0;
  size_t end = 0;
  size_t rows() const { return end - begin; }
};

bool SameTypes(const Schema& a, const Schema& b) {
  if (a.num_fields() != b.num_fields()) {
    return false;
  }
  for (size_t c = 0; c < a.num_fields(); ++c) {
    if (a.field(c).type != b.field(c).type) {
      return false;
    }
  }
  return true;
}

// Rows [begin, end) of `src` with `schema`'s column types (numeric casts).
// Every batch an operator emits carries its inferred output types, so the
// compiled evaluators downstream always read the typed vectors they were
// compiled for.
StatusOr<Table> Conform(const Table& src, size_t begin, size_t end,
                        const Schema& schema) {
  if (src.num_fields() != schema.num_fields()) {
    return InternalError("timely: batch arity " +
                         std::to_string(src.num_fields()) + " does not match " +
                         schema.ToString());
  }
  std::vector<Column> cols(schema.num_fields());
  for (size_t c = 0; c < cols.size(); ++c) {
    if (!src.col(c).CastSlice(begin, end, schema.field(c).type, &cols[c])) {
      return InternalError("timely: column " + std::to_string(c) + " of " +
                           src.schema().ToString() + " cannot carry " +
                           schema.ToString());
    }
  }
  Table out = Table::FromColumns(schema, std::move(cols));
  out.set_scale(src.scale());
  return out;
}

// One instantiated dataflow over a DAG (the WHILE bodies get their own
// instantiation per epoch).
class TimelyGraph {
 public:
  TimelyGraph(const Dag& dag, const TableMap& base, TimelyStats* stats)
      : dag_(dag), base_(base), stats_(stats) {}

  Status Run(TableMap* produced) {
    MUSKETEER_RETURN_IF_ERROR(Build());
    // Drive: stream every source, then notify its consumers; stateful
    // operators fire once all of their ports have been notified, so the
    // source order does not matter on an acyclic graph.
    for (const OperatorNode& node : dag_.nodes()) {
      if (node.kind == OpKind::kInput) {
        const auto& p = std::get<InputParams>(node.params);
        auto it = relations_.find(p.relation);
        if (it == relations_.end()) {
          return NotFoundError("base relation '" + p.relation + "' not provided");
        }
        MUSKETEER_RETURN_IF_ERROR(FanoutSlices(node.id, *it->second));
        MUSKETEER_RETURN_IF_ERROR(NotifyDownstream(node.id));
        ops_[node.id].collected = nullptr;  // inputs pass through untouched
        relations_[node.output] = it->second;
        continue;
      }
      if (node.kind == OpKind::kWhile) {
        MUSKETEER_RETURN_IF_ERROR(RunWhile(node, produced));
        continue;
      }
    }
    // Collect every operator's emissions as its relation.
    for (const OperatorNode& node : dag_.nodes()) {
      if (node.kind == OpKind::kInput || node.kind == OpKind::kWhile) {
        continue;
      }
      OpState& op = ops_[node.id];
      if (op.collected == nullptr) {
        return InternalError("operator '" + node.output + "' never fired");
      }
      op.collected->set_scale(OutputScale(node));
      relations_[node.output] = op.collected;
      (*produced)[node.output] = op.collected;
    }
    return OkStatus();
  }

 private:
  struct PortRef {
    int consumer = -1;
    int port = 0;
  };

  struct OpState {
    // Streaming transforms (row-wise operators only), compiled against the
    // operator's input schema.
    MaskEval predicate;              // kSelect
    std::vector<int> columns;        // kProject
    std::vector<BatchEval> exprs;    // kMap
    // Buffers for stateful operators, one per input port.
    std::vector<Table> buffers;
    // Downstream wiring and notification accounting.
    std::vector<PortRef> fanout;
    int ports = 0;
    int ports_notified = 0;
    bool fired = false;
    bool streaming = false;  // forwards batches without buffering
    std::shared_ptr<Table> collected;
    Schema out_schema;
  };

  Status Build() {
    relations_ = base_;
    ops_.resize(dag_.num_nodes());

    // Infer schemas so streaming transforms can be compiled.
    SchemaMap schema_base;
    for (const auto& [name, table] : relations_) {
      schema_base[name] = table->schema();
    }
    MUSKETEER_ASSIGN_OR_RETURN(std::vector<Schema> schemas,
                               dag_.InferSchemas(schema_base));

    for (const OperatorNode& node : dag_.nodes()) {
      OpState& op = ops_[node.id];
      op.ports = static_cast<int>(node.inputs.size());
      op.out_schema = schemas[node.id];
      for (size_t k = 0; k < node.inputs.size(); ++k) {
        ops_[node.inputs[k]].fanout.push_back(
            PortRef{node.id, static_cast<int>(k)});
      }
      if (node.kind == OpKind::kWhile) {
        // Loop ingress: buffer each input port with its proper schema.
        for (int k = 0; k < op.ports; ++k) {
          op.buffers.emplace_back(schemas[node.inputs[k]]);
        }
        continue;
      }
      if (node.kind == OpKind::kInput) {
        continue;
      }
      const Schema& in_schema = schemas[node.inputs[0]];
      switch (node.kind) {
        case OpKind::kSelect: {
          const auto& p = std::get<SelectParams>(node.params);
          MUSKETEER_ASSIGN_OR_RETURN(op.predicate,
                                     p.condition->CompileMask(in_schema));
          op.streaming = true;
          break;
        }
        case OpKind::kProject: {
          const auto& p = std::get<ProjectParams>(node.params);
          for (const std::string& name : p.columns) {
            auto idx = in_schema.IndexOf(name);
            if (!idx.has_value()) {
              return InvalidArgumentError("timely: missing column '" + name + "'");
            }
            op.columns.push_back(*idx);
          }
          op.streaming = true;
          break;
        }
        case OpKind::kMap: {
          Schema compiled;
          MUSKETEER_RETURN_IF_ERROR(CompileMapExprs(
              std::get<MapParams>(node.params), in_schema, &compiled, &op.exprs));
          op.out_schema = std::move(compiled);
          op.streaming = true;
          break;
        }
        case OpKind::kUnion:
          op.streaming = true;  // forwards both ports batch-at-a-time
          break;
        default:
          // Stateful: buffer per port until notified on every port.
          for (int k = 0; k < op.ports; ++k) {
            op.buffers.emplace_back(schemas[node.inputs[k]]);
          }
          break;
      }
      op.collected = std::make_shared<Table>(op.out_schema);
    }
    return OkStatus();
  }

  Status Fanout(int producer, const Batch& batch) {
    for (const PortRef& ref : ops_[producer].fanout) {
      MUSKETEER_RETURN_IF_ERROR(OnRecv(ref.consumer, ref.port, batch));
    }
    return OkStatus();
  }

  // Pushes `table` downstream of `producer` as kMorselRows slices.
  Status FanoutSlices(int producer, const Table& table) {
    for (size_t begin = 0; begin < table.num_rows(); begin += kMorselRows) {
      size_t end = std::min(table.num_rows(), begin + kMorselRows);
      MUSKETEER_RETURN_IF_ERROR(Fanout(producer, Batch{&table, begin, end}));
    }
    return OkStatus();
  }

  // Emits a block a streaming operator built: forward it, then keep it.
  Status EmitOwned(int node, Table block) {
    MUSKETEER_RETURN_IF_ERROR(Fanout(node, Batch{&block, 0, block.num_rows()}));
    ops_[node].collected->AppendTable(std::move(block));
    return OkStatus();
  }

  // Emits a batch unchanged (a select that kept every row, a union arm).
  Status EmitView(int node, const Batch& batch) {
    MUSKETEER_RETURN_IF_ERROR(Fanout(node, batch));
    ops_[node].collected->AppendRange(*batch.table, batch.begin, batch.end);
    return OkStatus();
  }

  Status OnRecv(int node_id, int port, const Batch& batch) {
    const OperatorNode& node = dag_.node(node_id);
    OpState& op = ops_[node_id];
    if (!op.streaming) {
      // Stateful operators and loop ingress buffer at the port.
      op.buffers[port].AppendRange(*batch.table, batch.begin, batch.end);
      stats_->records_buffered += static_cast<int64_t>(batch.rows());
      return OkStatus();
    }
    stats_->records_streamed += static_cast<int64_t>(batch.rows());
    switch (node.kind) {
      case OpKind::kSelect: {
        std::vector<uint8_t> mask(batch.rows());
        op.predicate(*batch.table, batch.begin, batch.end, mask.data());
        std::vector<uint32_t> kept;
        kept.reserve(batch.rows());
        for (size_t k = 0; k < mask.size(); ++k) {
          if (mask[k] != 0) {
            kept.push_back(static_cast<uint32_t>(batch.begin + k));
          }
        }
        if (kept.empty()) {
          return OkStatus();
        }
        if (kept.size() == batch.rows()) {
          return EmitView(node_id, batch);
        }
        return EmitOwned(node_id, batch.table->Gather(kept));
      }
      case OpKind::kProject: {
        std::vector<Column> cols;
        cols.reserve(op.columns.size());
        for (int c : op.columns) {
          cols.push_back(batch.table->col(c).Slice(batch.begin, batch.end));
        }
        return EmitOwned(node_id,
                         Table::FromColumns(op.out_schema, std::move(cols)));
      }
      case OpKind::kMap: {
        std::vector<Column> cols;
        cols.reserve(op.exprs.size());
        for (const BatchEval& eval : op.exprs) {
          cols.push_back(eval(*batch.table, batch.begin, batch.end));
        }
        return EmitOwned(node_id,
                         Table::FromColumns(op.out_schema, std::move(cols)));
      }
      case OpKind::kUnion: {
        if (SameTypes(batch.table->schema(), op.out_schema)) {
          return EmitView(node_id, batch);
        }
        // Mixed numeric union: the second arm takes the first arm's types.
        MUSKETEER_ASSIGN_OR_RETURN(
            Table block,
            Conform(*batch.table, batch.begin, batch.end, op.out_schema));
        return EmitOwned(node_id, std::move(block));
      }
      default:
        return InternalError("streaming flag on stateful operator");
    }
  }

  Status NotifyDownstream(int producer) {
    for (const PortRef& ref : ops_[producer].fanout) {
      MUSKETEER_RETURN_IF_ERROR(OnNotify(ref.consumer));
    }
    return OkStatus();
  }

  Status OnNotify(int node_id) {
    const OperatorNode& node = dag_.node(node_id);
    OpState& op = ops_[node_id];
    ++op.ports_notified;
    ++stats_->notifications;
    if (op.ports_notified < op.ports || op.fired) {
      return OkStatus();
    }
    op.fired = true;
    if (node.kind == OpKind::kWhile) {
      return OkStatus();  // loops fire from Run() once their inputs settled
    }
    if (!op.streaming) {
      // Stateful operator: evaluate the buffered ports, stream the result.
      std::vector<const Table*> inputs;
      for (const Table& t : op.buffers) {
        inputs.push_back(&t);
      }
      MUSKETEER_ASSIGN_OR_RETURN(Table result, EvaluateOperator(node, inputs));
      if (!SameTypes(result.schema(), op.out_schema)) {
        MUSKETEER_ASSIGN_OR_RETURN(
            result, Conform(result, 0, result.num_rows(), op.out_schema));
      }
      op.buffers.clear();
      op.collected = std::make_shared<Table>(std::move(result));
      MUSKETEER_RETURN_IF_ERROR(FanoutSlices(node_id, *op.collected));
    }
    return NotifyDownstream(node_id);
  }

  Status RunWhile(const OperatorNode& node, TableMap* produced) {
    const auto& wp = std::get<WhileParams>(node.params);
    OpState& op = ops_[node.id];
    TableMap body_base = base_;
    for (size_t i = 0; i < wp.bindings.size(); ++i) {
      auto seed = std::make_shared<Table>(std::move(op.buffers[i]));
      seed->set_scale(SourceScale(node.inputs[i]));
      body_base[wp.bindings[i].loop_input] = std::move(seed);
    }
    for (size_t i = wp.bindings.size(); i < node.inputs.size(); ++i) {
      auto inv = std::make_shared<Table>(std::move(op.buffers[i]));
      inv->set_scale(SourceScale(node.inputs[i]));
      body_base[dag_.node(node.inputs[i]).output] = std::move(inv);
    }
    TableMap iter_out;
    for (int64_t iter = 0; iter < wp.iterations; ++iter) {
      MUSKETEER_RETURN_IF_ERROR(CheckInterrupt());
      ++stats_->epochs;
      iter_out.clear();
      TimelyGraph epoch(*wp.body, body_base, stats_);
      MUSKETEER_RETURN_IF_ERROR(epoch.Run(&iter_out));
      bool stable = wp.until_fixpoint;
      for (const LoopBinding& b : wp.bindings) {
        TablePtr next = iter_out.at(b.body_output);
        stable = stable && Table::SameContent(*body_base[b.loop_input], *next);
        body_base[b.loop_input] = std::move(next);
      }
      if (stable) {
        break;
      }
    }
    TablePtr result = iter_out.at(wp.result);
    // Egress: stream the loop result onward with the loop's inferred types.
    TablePtr egress = result;
    if (!SameTypes(result->schema(), op.out_schema)) {
      MUSKETEER_ASSIGN_OR_RETURN(
          Table conformed,
          Conform(*result, 0, result->num_rows(), op.out_schema));
      egress = std::make_shared<const Table>(std::move(conformed));
    }
    MUSKETEER_RETURN_IF_ERROR(FanoutSlices(node.id, *egress));
    MUSKETEER_RETURN_IF_ERROR(NotifyDownstream(node.id));
    op.collected = nullptr;
    relations_[node.output] = result;
    (*produced)[node.output] = result;
    return OkStatus();
  }

  // Nominal-scale propagation, mirroring the kernel's rules.
  double OutputScale(const OperatorNode& node) const {
    switch (OpSizeBehavior(node.kind)) {
      case SizeBehavior::kAdditive: {
        double rows = 0;
        double nominal = 0;
        for (int in : node.inputs) {
          double s = SourceScale(in);
          double n = SourceRows(in);
          rows += n;
          nominal += n * s;
        }
        return rows > 0 ? nominal / rows : 1.0;
      }
      case SizeBehavior::kConstant:
        return 1.0;
      default: {
        double scale = 0;
        for (int in : node.inputs) {
          scale = std::max(scale, SourceScale(in));
        }
        return scale > 0 ? scale : 1.0;
      }
    }
  }

  double SourceScale(int id) const {
    auto it = relations_.find(dag_.node(id).output);
    return it != relations_.end() ? it->second->scale() : 1.0;
  }
  double SourceRows(int id) const {
    auto it = relations_.find(dag_.node(id).output);
    return it != relations_.end() ? static_cast<double>(it->second->num_rows())
                                  : 0.0;
  }

  const Dag& dag_;
  TableMap base_;
  TableMap relations_;
  std::vector<OpState> ops_;
  TimelyStats* stats_;
};

}  // namespace

StatusOr<TimelyResult> ExecuteViaTimely(const Dag& dag, const TableMap& base) {
  TimelyResult result;
  TimelyGraph graph(dag, base, &result.stats);
  MUSKETEER_RETURN_IF_ERROR(graph.Run(&result.relations));
  return result;
}

}  // namespace musketeer
