#include "src/engines/vertex_runtime.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "src/base/cancel.h"
#include "src/base/parallel.h"
#include "src/opt/idiom.h"
#include "src/relational/flat_hash.h"
#include "src/relational/ops.h"

namespace musketeer {

namespace {

// The vertex program extracted from a graph-idiom WHILE body. Columns are
// kept by name and the MAPs as IR: each superstep resolves and compiles them
// against the state's actual schema, as the interpreter does per iteration
// (a loop-carried relation keeps its arity but may change column types).
struct VertexProgram {
  // Scatter: JOIN(edge-side, vertex-side) + message MAP.
  bool vertex_on_left = false;  // which join input carries the loop state
  std::string vertex_key;       // key (id) column in the vertex relation
  std::string edge_key;         // key column in the edge relation
  const MapParams* message = nullptr;       // (destination id, message value)
  const MapParams* self_message = nullptr;  // MIN/MAX gathers (SSSP)
  bool self_message_first = false;  // self arm is the UNION's first input
  // Gather: GROUP BY destination, one aggregate over the message.
  AggFn gather = AggFn::kSum;
  std::string gather_key;
  std::string gather_value;
  // Apply: JOIN(vertex, gathered) + update MAP.
  bool rejoin_vertex_on_left = true;
  const MapParams* apply = nullptr;
  // Edge relation name (loop-invariant input).
  std::string edge_relation;
};

// Walks the idiom body into a VertexProgram. The body must have the shape
// idiom recognition accepted: scatter JOIN -> message MAP [-> UNION with a
// vertex self-message MAP] -> GROUP BY -> rejoin JOIN -> apply MAP.
StatusOr<VertexProgram> ExtractProgram(const Dag& body,
                                       const std::string& loop_input,
                                       const SchemaMap& body_schemas_base) {
  MUSKETEER_ASSIGN_OR_RETURN(std::vector<Schema> schemas,
                             body.InferSchemas(body_schemas_base));

  auto reads_loop = [&](int id, auto&& self) -> bool {
    const OperatorNode& n = body.node(id);
    if (n.kind == OpKind::kInput) {
      return std::get<InputParams>(n.params).relation == loop_input;
    }
    for (int in : n.inputs) {
      if (self(in, self)) {
        return true;
      }
    }
    return false;
  };

  VertexProgram program;

  // 1. The scatter join: a JOIN with exactly one loop-state side.
  const OperatorNode* scatter = nullptr;
  for (const OperatorNode& n : body.nodes()) {
    if (n.kind != OpKind::kJoin) {
      continue;
    }
    bool left_loop = reads_loop(n.inputs[0], reads_loop);
    bool right_loop = reads_loop(n.inputs[1], reads_loop);
    if (left_loop != right_loop) {
      scatter = &n;
      program.vertex_on_left = left_loop;
      break;
    }
  }
  if (scatter == nullptr) {
    return FailedPreconditionError("vertex runtime: no scatter join in loop body");
  }
  {
    const auto& jp = std::get<JoinParams>(scatter->params);
    int vin = scatter->inputs[program.vertex_on_left ? 0 : 1];
    int ein = scatter->inputs[program.vertex_on_left ? 1 : 0];
    program.vertex_key = program.vertex_on_left ? jp.left_key : jp.right_key;
    program.edge_key = program.vertex_on_left ? jp.right_key : jp.left_key;
    if (!schemas[vin].IndexOf(program.vertex_key).has_value() ||
        !schemas[ein].IndexOf(program.edge_key).has_value()) {
      return FailedPreconditionError("vertex runtime: join keys unresolved");
    }
    // Edge relation name: the INPUT the edge side reads.
    const OperatorNode& edge_node = body.node(ein);
    if (edge_node.kind != OpKind::kInput) {
      return FailedPreconditionError(
          "vertex runtime: edge side must be a direct input");
    }
    program.edge_relation = std::get<InputParams>(edge_node.params).relation;
  }

  // 2. Message MAP directly consuming the join.
  std::vector<int> consumers = body.ConsumersOf(scatter->id);
  if (consumers.size() != 1 || body.node(consumers[0]).kind != OpKind::kMap) {
    return FailedPreconditionError("vertex runtime: missing message map");
  }
  const OperatorNode& msg_map = body.node(consumers[0]);
  program.message = &std::get<MapParams>(msg_map.params);
  if (program.message->outputs.size() != 2) {
    return FailedPreconditionError("vertex runtime: message map must be "
                                   "(destination, message)");
  }

  // 3. Optional UNION with vertex self-messages, then the gather GROUP BY.
  int cursor = msg_map.id;
  consumers = body.ConsumersOf(cursor);
  if (consumers.size() == 1 && body.node(consumers[0]).kind == OpKind::kUnion) {
    const OperatorNode& u = body.node(consumers[0]);
    int other = u.inputs[0] == cursor ? u.inputs[1] : u.inputs[0];
    const OperatorNode& self_map = body.node(other);
    if (self_map.kind != OpKind::kMap || !reads_loop(other, reads_loop)) {
      return FailedPreconditionError("vertex runtime: unsupported union arm");
    }
    const auto& sp = std::get<MapParams>(self_map.params);
    if (sp.outputs.size() != 2) {
      return FailedPreconditionError("vertex runtime: self-message map shape");
    }
    const OperatorNode& self_in = body.node(self_map.inputs[0]);
    if (self_in.kind != OpKind::kInput ||
        std::get<InputParams>(self_in.params).relation != loop_input) {
      return FailedPreconditionError(
          "vertex runtime: self-message map must read the vertex relation");
    }
    program.self_message = &sp;
    program.self_message_first = u.inputs[0] == other;
    cursor = u.id;
    consumers = body.ConsumersOf(cursor);
  }
  if (consumers.size() != 1 || body.node(consumers[0]).kind != OpKind::kGroupBy) {
    return FailedPreconditionError("vertex runtime: missing gather group-by");
  }
  const OperatorNode& gather = body.node(consumers[0]);
  {
    const auto& gp = std::get<GroupByParams>(gather.params);
    if (gp.group_columns.size() != 1 || gp.aggs.size() != 1) {
      return FailedPreconditionError("vertex runtime: gather must aggregate one "
                                     "message column by vertex id");
    }
    // The scatter evaluates (destination, message) positionally.
    const Schema& messages = schemas[cursor];
    if (messages.IndexOf(gp.group_columns[0]) != 0 ||
        (gp.aggs[0].fn != AggFn::kCount &&
         messages.IndexOf(gp.aggs[0].column) != 1)) {
      return FailedPreconditionError("vertex runtime: gather must group by the "
                                     "destination and aggregate the message");
    }
    program.gather = gp.aggs[0].fn;
    program.gather_key = gp.group_columns[0];
    program.gather_value = gp.aggs[0].output_name;
  }

  // 4. Rejoin + apply.
  consumers = body.ConsumersOf(gather.id);
  if (consumers.size() != 1 || body.node(consumers[0]).kind != OpKind::kJoin) {
    return FailedPreconditionError("vertex runtime: missing apply join");
  }
  const OperatorNode& rejoin = body.node(consumers[0]);
  program.rejoin_vertex_on_left = reads_loop(rejoin.inputs[0], reads_loop);
  {
    // The rejoin must key the state on the same id the scatter joined on.
    const auto& jp = std::get<JoinParams>(rejoin.params);
    const std::string& vkey =
        program.rejoin_vertex_on_left ? jp.left_key : jp.right_key;
    const std::string& gkey =
        program.rejoin_vertex_on_left ? jp.right_key : jp.left_key;
    if (vkey != program.vertex_key || gkey != program.gather_key) {
      return FailedPreconditionError(
          "vertex runtime: apply join must key on the vertex id");
    }
  }

  consumers = body.ConsumersOf(rejoin.id);
  if (consumers.size() != 1 || body.node(consumers[0]).kind != OpKind::kMap) {
    return FailedPreconditionError("vertex runtime: missing apply map");
  }
  program.apply = &std::get<MapParams>(body.node(consumers[0]).params);
  return program;
}

// Numeric view of a message cell (AsDouble's string sentinel included).
double MessageAt(const Column& c, size_t i) {
  switch (c.type()) {
    case FieldType::kInt64:
      return static_cast<double>(c.ints()[i]);
    case FieldType::kDouble:
      return c.doubles()[i];
    case FieldType::kString:
      break;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// Message accumulator with GroupByAgg-identical semantics.
struct Gathered {
  double sum = 0;
  double min = 1e300;
  double max = -1e300;
  int64_t count = 0;

  void Add(double d) {
    sum += d;
    min = std::min(min, d);
    max = std::max(max, d);
    ++count;
  }

  // Folds another accumulator in (associative; AVG via (sum, count)).
  void Merge(const Gathered& o) {
    sum += o.sum;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    count += o.count;
  }

  // The aggregate in a column of the gathered type (GroupByAgg's rule:
  // COUNT and integer SUM/MIN/MAX are INT, everything else DOUBLE).
  void AppendTo(AggFn fn, Column* out) const {
    double v = 0;
    switch (fn) {
      case AggFn::kSum:
        v = sum;
        break;
      case AggFn::kCount:
        out->mutable_ints()->push_back(count);
        return;
      case AggFn::kMin:
        v = min;
        break;
      case AggFn::kMax:
        v = max;
        break;
      case AggFn::kAvg:
        v = count > 0 ? sum / static_cast<double>(count) : 0.0;
        break;
    }
    if (out->type() == FieldType::kInt64) {
      out->mutable_ints()->push_back(static_cast<int64_t>(v));
    } else {
      out->mutable_doubles()->push_back(v);
    }
  }
};

FieldType GatheredType(AggFn fn, FieldType msg_type) {
  if (fn == AggFn::kCount) {
    return FieldType::kInt64;
  }
  if (fn == AggFn::kAvg) {
    return FieldType::kDouble;
  }
  return msg_type == FieldType::kInt64 ? FieldType::kInt64 : FieldType::kDouble;
}

// Vertex-id index over the state's key column: id -> first state row with
// that id (a duplicate id shares its first row's messages). INT64 ids key a
// FlatMap64 on their value. Other key types hash with Column::HashAt and
// chain colliding ids, comparing with Column::EqualAt, so lookups follow
// ValuesEqual across the numeric types; a NaN id matches nothing.
class VertexIndex {
 public:
  static constexpr uint32_t kNone = FlatMap64::kEmpty;

  explicit VertexIndex(const Column& keys)
      : keys_(keys), int_keys_(keys.type() == FieldType::kInt64) {
    const size_t n = keys.size();
    canonical_.resize(n);
    map_.Reserve(n);
    if (!int_keys_) {
      chain_.assign(n, kNone);
    }
    for (size_t row = 0; row < n; ++row) {
      canonical_[row] = Insert(static_cast<uint32_t>(row));
    }
  }

  // The first state row whose id equals probe[i], or kNone.
  uint32_t Find(const Column& probe, size_t i) const {
    if (probe.type() == FieldType::kDouble && KeyIsNaN(probe.doubles()[i])) {
      return kNone;
    }
    if (!int_keys_) {
      for (uint32_t c = map_.Find(probe.HashAt(i)); c != kNone; c = chain_[c]) {
        if (keys_.EqualAt(c, probe, i)) {
          return c;
        }
      }
      return kNone;
    }
    switch (probe.type()) {
      case FieldType::kInt64:
        return map_.Find(static_cast<uint64_t>(probe.ints()[i]));
      case FieldType::kDouble: {
        // An INT id equals a double through the id's double view.
        const double d = probe.doubles()[i];
        if (d != std::trunc(d)) {
          return kNone;
        }
        if (std::abs(d) < 9007199254740992.0) {  // 2^53: exact conversion
          return map_.Find(static_cast<uint64_t>(static_cast<int64_t>(d)));
        }
        for (size_t row = 0; row < keys_.size(); ++row) {
          if (static_cast<double>(keys_.ints()[row]) == d) {
            return canonical_[row];
          }
        }
        return kNone;
      }
      case FieldType::kString:
        break;
    }
    return kNone;
  }

  // The first state row sharing `row`'s id.
  uint32_t canonical(size_t row) const { return canonical_[row]; }

 private:
  uint32_t Insert(uint32_t row) {
    bool inserted = false;
    if (int_keys_) {
      return *map_.FindOrInsert(static_cast<uint64_t>(keys_.ints()[row]), row,
                                &inserted);
    }
    if (keys_.type() == FieldType::kDouble && KeyIsNaN(keys_.doubles()[row])) {
      return row;  // unreachable by any probe
    }
    uint32_t* head = map_.FindOrInsert(keys_.HashAt(row), row, &inserted);
    if (inserted) {
      return row;
    }
    for (uint32_t c = *head; c != kNone; c = chain_[c]) {
      if (keys_.EqualAt(c, keys_, row)) {
        return c;
      }
    }
    chain_[row] = *head;  // a new id whose hash collides
    *head = row;
    return row;
  }

  const Column& keys_;
  const bool int_keys_;
  FlatMap64 map_;                   // id (or id hash) -> first row
  std::vector<uint32_t> chain_;     // generic path: next id, same hash
  std::vector<uint32_t> canonical_;
};

// One output column of a join in HashJoin's (key, left-rest, right-rest)
// layout: which input it comes from, and that input's column.
struct JoinSlot {
  bool left;
  int col;
};

// The join output schema and its column sources.
Schema JoinLayout(const Schema& left, int lkey, const Schema& right, int rkey,
                  std::vector<JoinSlot>* slots) {
  Schema out;
  slots->clear();
  out.AddField(left.field(lkey));
  slots->push_back({true, lkey});
  for (int c = 0; c < static_cast<int>(left.num_fields()); ++c) {
    if (c != lkey) {
      out.AddField(left.field(c));
      slots->push_back({true, c});
    }
  }
  for (int c = 0; c < static_cast<int>(right.num_fields()); ++c) {
    if (c != rkey) {
      out.AddField(right.field(c));
      slots->push_back({false, c});
    }
  }
  return out;
}

// Gathers the joined rows (left[lidx[k]], right[ridx[k]]) in `slots` layout.
// A null index vector takes the whole side (already row-aligned).
Table GatherJoined(const Schema& schema, const std::vector<JoinSlot>& slots,
                   const Table& left, const std::vector<uint32_t>* lidx,
                   const Table& right, const std::vector<uint32_t>* ridx) {
  std::vector<Column> cols;
  cols.reserve(slots.size());
  for (const JoinSlot& s : slots) {
    const Table& side = s.left ? left : right;
    const std::vector<uint32_t>* idx = s.left ? lidx : ridx;
    cols.push_back(idx != nullptr ? side.col(s.col).Gather(*idx)
                                  : side.col(s.col));
  }
  return Table::FromColumns(schema, std::move(cols));
}

StatusOr<int> ColumnIndex(const Schema& schema, const std::string& name) {
  auto idx = schema.IndexOf(name);
  if (!idx.has_value()) {
    return FailedPreconditionError("vertex runtime: no column '" + name +
                                   "' in " + schema.ToString());
  }
  return *idx;
}

// Per-edge-morsel scatter output: chunk-local accumulators, one slot per
// destination vertex in first-message order.
struct ScatterPart {
  FlatMap64 slots;                 // destination state row -> slot
  std::vector<uint32_t> vertex;    // slot -> destination state row
  std::vector<Gathered> acc;
  int64_t sent = 0;

  void Add(uint32_t dst, double msg) {
    bool inserted = false;
    uint32_t slot = *slots.FindOrInsert(
        dst, static_cast<uint32_t>(vertex.size()), &inserted);
    if (inserted) {
      vertex.push_back(dst);
      acc.emplace_back();
    }
    acc[slot].Add(msg);
  }
};

// One superstep: scatter messages along the edges, gather them per
// destination, apply the update to every vertex that received any. Returns
// the next state.
StatusOr<Table> Superstep(const VertexProgram& program, const Table& state,
                          const Table& edges, int edge_key,
                          VertexRuntimeStats* stats) {
  MUSKETEER_ASSIGN_OR_RETURN(int vertex_key,
                             ColumnIndex(state.schema(), program.vertex_key));
  const VertexIndex index(state.col(vertex_key));

  // Scatter: JOIN(vertex, edge) + message MAP, one edge morsel at a time.
  const Table& sleft = program.vertex_on_left ? state : edges;
  const Table& sright = program.vertex_on_left ? edges : state;
  std::vector<JoinSlot> scatter_slots;
  const Schema scatter_schema = JoinLayout(
      sleft.schema(), program.vertex_on_left ? vertex_key : edge_key,
      sright.schema(), program.vertex_on_left ? edge_key : vertex_key,
      &scatter_slots);
  Schema msg_schema;
  std::vector<BatchEval> msg_exprs;
  MUSKETEER_RETURN_IF_ERROR(CompileMapExprs(*program.message, scatter_schema,
                                            &msg_schema, &msg_exprs));

  // Edge morsels fill chunk-local accumulators in parallel (the state and
  // its index are read-only here); they then merge in chunk order, a fixed
  // tree independent of the thread count.
  const Column& ekeys = edges.col(edge_key);
  auto parts = ParallelMapChunks<ScatterPart>(
      edges.num_rows(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        ScatterPart part;
        std::vector<uint32_t> eidx;
        std::vector<uint32_t> vidx;
        for (size_t e = begin; e < end; ++e) {
          uint32_t v = index.Find(ekeys, e);
          if (v != VertexIndex::kNone) {  // dangling edges send nothing
            eidx.push_back(static_cast<uint32_t>(e));
            vidx.push_back(v);
          }
        }
        if (eidx.empty()) {
          return part;
        }
        const Table joined = GatherJoined(
            scatter_schema, scatter_slots, sleft,
            program.vertex_on_left ? &vidx : &eidx, sright,
            program.vertex_on_left ? &eidx : &vidx);
        const Column dst = msg_exprs[0](joined, 0, joined.num_rows());
        const Column msg = msg_exprs[1](joined, 0, joined.num_rows());
        part.sent = static_cast<int64_t>(joined.num_rows());
        for (size_t k = 0; k < joined.num_rows(); ++k) {
          uint32_t v = index.Find(dst, k);
          if (v != VertexIndex::kNone) {  // unknown destinations never apply
            part.Add(v, MessageAt(msg, k));
          }
        }
        return part;
      });
  std::vector<Gathered> inbox(state.num_rows());
  std::vector<uint8_t> has_mail(state.num_rows(), 0);
  for (const ScatterPart& part : parts) {
    stats->messages_sent += part.sent;
    for (size_t s = 0; s < part.vertex.size(); ++s) {
      inbox[part.vertex[s]].Merge(part.acc[s]);
      has_mail[part.vertex[s]] = 1;
    }
  }

  // Self-messages (extremum gathers keep the current state alive).
  FieldType gathered_key_type = msg_schema.field(0).type;
  FieldType msg_type = msg_schema.field(1).type;
  if (program.self_message != nullptr) {
    Schema self_schema;
    std::vector<BatchEval> self_exprs;
    MUSKETEER_RETURN_IF_ERROR(CompileMapExprs(
        *program.self_message, state.schema(), &self_schema, &self_exprs));
    const Column dst = self_exprs[0](state, 0, state.num_rows());
    const Column msg = self_exprs[1](state, 0, state.num_rows());
    for (size_t r = 0; r < state.num_rows(); ++r) {
      uint32_t v = index.Find(dst, r);
      if (v != VertexIndex::kNone) {
        inbox[v].Add(MessageAt(msg, r));
        has_mail[v] = 1;
      }
    }
    stats->messages_sent += static_cast<int64_t>(state.num_rows());
    if (program.self_message_first) {
      // The UNION's first arm fixes the gathered relation's types.
      gathered_key_type = self_schema.field(0).type;
      msg_type = self_schema.field(1).type;
    }
  }

  // Apply: JOIN(vertex, gathered) + update MAP over state morsels. Per-chunk
  // blocks concatenate in chunk order (= state order).
  Schema gathered_schema;
  gathered_schema.AddField({program.gather_key, gathered_key_type});
  gathered_schema.AddField(
      {program.gather_value, GatheredType(program.gather, msg_type)});
  const bool vleft = program.rejoin_vertex_on_left;
  std::vector<JoinSlot> apply_slots;
  const Schema apply_in = JoinLayout(
      vleft ? state.schema() : gathered_schema, vleft ? vertex_key : 0,
      vleft ? gathered_schema : state.schema(), vleft ? 0 : vertex_key,
      &apply_slots);
  Schema out_schema;
  std::vector<BatchEval> apply_exprs;
  MUSKETEER_RETURN_IF_ERROR(
      CompileMapExprs(*program.apply, apply_in, &out_schema, &apply_exprs));

  const Column& vkeys = state.col(vertex_key);
  auto blocks = ParallelMapChunks<std::vector<Column>>(
      state.num_rows(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        std::vector<uint32_t> rows;
        for (size_t s = begin; s < end; ++s) {
          if (has_mail[index.canonical(s)] != 0) {
            rows.push_back(static_cast<uint32_t>(s));
          }
        }
        std::vector<Column> block;
        if (rows.empty()) {
          return block;  // no messages: dropped by the rejoin (inner join)
        }
        // A row with mail matched its id, so the id and the destination are
        // both numeric or both strings: the cast cannot fail.
        Column key(gathered_key_type);
        vkeys.Gather(rows).CastSlice(0, rows.size(), gathered_key_type, &key);
        Column value(gathered_schema.field(1).type);
        for (uint32_t s : rows) {
          inbox[index.canonical(s)].AppendTo(program.gather, &value);
        }
        std::vector<Column> gcols;
        gcols.push_back(std::move(key));
        gcols.push_back(std::move(value));
        const Table gathered =
            Table::FromColumns(gathered_schema, std::move(gcols));
        const Table joined =
            vleft ? GatherJoined(apply_in, apply_slots, state, &rows, gathered,
                                 nullptr)
                  : GatherJoined(apply_in, apply_slots, gathered, nullptr,
                                 state, &rows);
        block.reserve(apply_exprs.size());
        for (const BatchEval& eval : apply_exprs) {
          block.push_back(eval(joined, 0, joined.num_rows()));
        }
        return block;
      });
  Table next(out_schema);
  for (std::vector<Column>& block : blocks) {
    if (!block.empty()) {
      next.AppendTable(Table::FromColumns(out_schema, std::move(block)));
    }
  }
  stats->vertex_updates += static_cast<int64_t>(next.num_rows());
  return next;
}

// Runs the program for `iterations` supersteps (stopping early at a
// vertex-state fixpoint when requested).
StatusOr<Table> RunSupersteps(const VertexProgram& program, const Table& vertices,
                              const Table& edges, int64_t iterations,
                              bool until_fixpoint, VertexRuntimeStats* stats) {
  MUSKETEER_ASSIGN_OR_RETURN(int edge_key,
                             ColumnIndex(edges.schema(), program.edge_key));
  std::optional<Table> state;  // unset until the first superstep applies
  for (int64_t iter = 0; iter < iterations; ++iter) {
    MUSKETEER_RETURN_IF_ERROR(CheckInterrupt());
    ++stats->supersteps;
    const Table& current = state.has_value() ? *state : vertices;
    MUSKETEER_ASSIGN_OR_RETURN(
        Table next, Superstep(program, current, edges, edge_key, stats));
    const bool stable = until_fixpoint && Table::SameContent(current, next);
    state = std::move(next);
    if (stable) {
      break;
    }
  }
  Table out = state.has_value() ? std::move(*state) : vertices;
  out.set_scale(vertices.scale());
  return out;
}

}  // namespace

StatusOr<VertexRuntimeResult> ExecuteViaVertexRuntime(const Dag& dag,
                                                      const TableMap& base) {
  VertexRuntimeResult result;
  TableMap relations = base;
  std::vector<TablePtr> by_node(dag.num_nodes());

  for (const OperatorNode& node : dag.nodes()) {
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
      if (!IsGraphIdiom(dag, node.id)) {
        return FailedPreconditionError(
            "vertex runtime can only execute graph-idiom loops");
      }
      const auto& wp = std::get<WhileParams>(node.params);
      if (wp.bindings.size() != 1) {
        return FailedPreconditionError(
            "vertex runtime expects one loop-carried vertex relation");
      }
      // Schemas for the body: loop seed + loop-invariant inputs.
      SchemaMap body_base;
      TableMap body_tables;
      body_base[wp.bindings[0].loop_input] = by_node[node.inputs[0]]->schema();
      body_tables[wp.bindings[0].loop_input] = by_node[node.inputs[0]];
      for (size_t i = 1; i < node.inputs.size(); ++i) {
        const std::string& name = dag.node(node.inputs[i]).output;
        body_base[name] = by_node[node.inputs[i]]->schema();
        body_tables[name] = by_node[node.inputs[i]];
      }
      MUSKETEER_ASSIGN_OR_RETURN(
          VertexProgram program,
          ExtractProgram(*wp.body, wp.bindings[0].loop_input, body_base));
      auto edges_it = body_tables.find(program.edge_relation);
      if (edges_it == body_tables.end()) {
        return FailedPreconditionError("vertex runtime: edge relation '" +
                                       program.edge_relation +
                                       "' is not a loop input");
      }
      MUSKETEER_ASSIGN_OR_RETURN(
          Table final_state,
          RunSupersteps(program, *body_tables[wp.bindings[0].loop_input],
                        *edges_it->second, wp.iterations, wp.until_fixpoint,
                        &result.stats));
      auto table = std::make_shared<Table>(std::move(final_state));
      by_node[node.id] = table;
      relations[node.output] = table;
      result.relations[node.output] = table;
      continue;
    }
    // Batch pre/post-processing operators run through the kernel.
    std::vector<const Table*> inputs;
    for (int i : node.inputs) {
      inputs.push_back(by_node[i].get());
    }
    MUSKETEER_ASSIGN_OR_RETURN(Table out, EvaluateOperator(node, inputs));
    auto table = std::make_shared<Table>(std::move(out));
    by_node[node.id] = table;
    relations[node.output] = table;
    result.relations[node.output] = table;
  }
  return result;
}

}  // namespace musketeer
