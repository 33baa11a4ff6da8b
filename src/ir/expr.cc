#include "src/ir/expr.h"

#include <algorithm>
#include <cmath>

namespace musketeer {

namespace {

Value EvalBinary(BinOp op, const Value& a, const Value& b) {
  auto boolean = [](bool v) -> Value { return static_cast<int64_t>(v ? 1 : 0); };
  switch (op) {
    case BinOp::kEq:
      return boolean(ValuesEqual(a, b));
    case BinOp::kNe:
      return boolean(!ValuesEqual(a, b));
    case BinOp::kLt:
      return boolean(CompareValues(a, b) < 0);
    case BinOp::kLe:
      return boolean(CompareValues(a, b) <= 0);
    case BinOp::kGt:
      return boolean(CompareValues(a, b) > 0);
    case BinOp::kGe:
      return boolean(CompareValues(a, b) >= 0);
    case BinOp::kAnd:
      return boolean(IsTruthy(a) && IsTruthy(b));
    case BinOp::kOr:
      return boolean(IsTruthy(a) || IsTruthy(b));
    default:
      break;
  }
  // Arithmetic: stay integral when both sides are ints and op is not division.
  if (a.index() == 0 && b.index() == 0 && op != BinOp::kDiv) {
    int64_t x = std::get<int64_t>(a);
    int64_t y = std::get<int64_t>(b);
    switch (op) {
      case BinOp::kAdd:
        return x + y;
      case BinOp::kSub:
        return x - y;
      case BinOp::kMul:
        return x * y;
      default:
        break;
    }
  }
  double x = AsDouble(a);
  double y = AsDouble(b);
  switch (op) {
    case BinOp::kAdd:
      return x + y;
    case BinOp::kSub:
      return x - y;
    case BinOp::kMul:
      return x * y;
    case BinOp::kDiv:
      return y == 0 ? 0.0 : x / y;
    default:
      return 0.0;
  }
}

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
    case BinOp::kAnd:
    case BinOp::kOr:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "!=";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
  }
  return "?";
}

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumn;
  e->column_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(Value value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(value);
  return e;
}

ExprPtr Expr::Binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kBinary;
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

StatusOr<FieldType> Expr::InferType(const Schema& schema) const {
  switch (kind_) {
    case ExprKind::kColumn: {
      auto idx = schema.IndexOf(column_);
      if (!idx.has_value()) {
        return InvalidArgumentError("unknown column '" + column_ + "' in schema " +
                                    schema.ToString());
      }
      return schema.field(*idx).type;
    }
    case ExprKind::kLiteral:
      return ValueType(literal_);
    case ExprKind::kBinary: {
      if (IsComparison(op_)) {
        return FieldType::kInt64;
      }
      MUSKETEER_ASSIGN_OR_RETURN(FieldType lt, lhs_->InferType(schema));
      MUSKETEER_ASSIGN_OR_RETURN(FieldType rt, rhs_->InferType(schema));
      if (lt == FieldType::kString || rt == FieldType::kString) {
        return InvalidArgumentError("arithmetic on string column in " + ToString());
      }
      if (lt == FieldType::kInt64 && rt == FieldType::kInt64 && op_ != BinOp::kDiv) {
        return FieldType::kInt64;
      }
      return FieldType::kDouble;
    }
  }
  return InternalError("bad expr kind");
}

StatusOr<RowProjector> Expr::Compile(const Schema& schema) const {
  switch (kind_) {
    case ExprKind::kColumn: {
      auto idx = schema.IndexOf(column_);
      if (!idx.has_value()) {
        return InvalidArgumentError("unknown column '" + column_ + "' in schema " +
                                    schema.ToString());
      }
      int i = *idx;
      return RowProjector([i](const Row& row) { return row[i]; });
    }
    case ExprKind::kLiteral: {
      Value v = literal_;
      return RowProjector([v](const Row&) { return v; });
    }
    case ExprKind::kBinary: {
      MUSKETEER_ASSIGN_OR_RETURN(RowProjector l, lhs_->Compile(schema));
      MUSKETEER_ASSIGN_OR_RETURN(RowProjector r, rhs_->Compile(schema));
      BinOp op = op_;
      return RowProjector(
          [op, l, r](const Row& row) { return EvalBinary(op, l(row), r(row)); });
    }
  }
  return InternalError("bad expr kind");
}

StatusOr<RowPredicate> Expr::CompilePredicate(const Schema& schema) const {
  MUSKETEER_ASSIGN_OR_RETURN(RowProjector proj, Compile(schema));
  return RowPredicate([proj](const Row& row) { return IsTruthy(proj(row)); });
}

namespace {

// A compiled expression tree for batch evaluation: columns resolved to
// indices, every node annotated with its static result type (the same rules
// as InferType).
struct BatchNode {
  ExprKind kind = ExprKind::kLiteral;
  FieldType type = FieldType::kInt64;
  int col = -1;
  Value literal = static_cast<int64_t>(0);
  BinOp op = BinOp::kAdd;
  std::unique_ptr<BatchNode> lhs;
  std::unique_ptr<BatchNode> rhs;
};

// A node's evaluation result over rows [begin, end): a borrowed input column
// (indexed begin+k), an owned column of length end-begin (indexed k), or a
// scalar (literal subtrees).
struct EvalOut {
  const Column* borrowed = nullptr;
  Column owned;
  bool is_scalar = false;
  Value scalar = static_cast<int64_t>(0);
};

Value EvalOutValueAt(const EvalOut& e, size_t begin, size_t k) {
  if (e.is_scalar) {
    return e.scalar;
  }
  const Column& c = e.borrowed != nullptr ? *e.borrowed : e.owned;
  size_t off = e.borrowed != nullptr ? begin : 0;
  return c.ValueAt(off + k);
}

// Invokes fn with a `double(size_t k)` accessor over a numeric operand
// (scalar, borrowed or owned; int64 cells widen like AsDouble).
template <typename Fn>
auto WithDoubleAcc(const EvalOut& e, size_t begin, Fn&& fn) {
  if (e.is_scalar) {
    double s = AsDouble(e.scalar);
    return fn([s](size_t) { return s; });
  }
  const Column& c = e.borrowed != nullptr ? *e.borrowed : e.owned;
  size_t off = e.borrowed != nullptr ? begin : 0;
  if (c.type() == FieldType::kInt64) {
    const int64_t* p = c.ints().data() + off;
    return fn([p](size_t k) { return static_cast<double>(p[k]); });
  }
  const double* p = c.doubles().data() + off;
  return fn([p](size_t k) { return p[k]; });
}

// Invokes fn with an `int64_t(size_t k)` accessor; only valid when the
// operand's static type is kInt64.
template <typename Fn>
auto WithInt64Acc(const EvalOut& e, size_t begin, Fn&& fn) {
  if (e.is_scalar) {
    int64_t s = AsInt64(e.scalar);
    return fn([s](size_t) { return s; });
  }
  const Column& c = e.borrowed != nullptr ? *e.borrowed : e.owned;
  size_t off = e.borrowed != nullptr ? begin : 0;
  const int64_t* p = c.ints().data() + off;
  return fn([p](size_t k) { return p[k]; });
}

bool IsArithmetic(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
      return true;
    default:
      return false;
  }
}

EvalOut EvalNode(const BatchNode& n, const Table& t, size_t begin, size_t end);

// kBinary evaluation with typed loops. Semantics mirror EvalBinary exactly:
// int-int comparisons are exact, mixed comparisons go through the double
// view, AND/OR use IsTruthy, arithmetic stays integral for int-int non-DIV,
// DIV by zero yields 0.0. Any string operand takes the per-cell slow path
// (only comparisons and logic can carry strings past InferType).
Column EvalBinaryBatch(const BatchNode& n, const EvalOut& l, const EvalOut& r,
                       size_t begin, size_t end) {
  const size_t len = end - begin;
  const FieldType lt = n.lhs->type;
  const FieldType rt = n.rhs->type;

  if (lt == FieldType::kString || rt == FieldType::kString) {
    Column out(FieldType::kInt64);
    std::vector<int64_t>& v = *out.mutable_ints();
    v.resize(len);
    for (size_t k = 0; k < len; ++k) {
      v[k] = AsInt64(EvalBinary(n.op, EvalOutValueAt(l, begin, k),
                                EvalOutValueAt(r, begin, k)));
    }
    return out;
  }

  const bool both_int = lt == FieldType::kInt64 && rt == FieldType::kInt64;

  if (IsArithmetic(n.op)) {
    if (both_int && n.op != BinOp::kDiv) {
      Column out(FieldType::kInt64);
      std::vector<int64_t>& v = *out.mutable_ints();
      v.resize(len);
      WithInt64Acc(l, begin, [&](auto la) {
        WithInt64Acc(r, begin, [&](auto ra) {
          switch (n.op) {
            case BinOp::kAdd:
              for (size_t k = 0; k < len; ++k) v[k] = la(k) + ra(k);
              break;
            case BinOp::kSub:
              for (size_t k = 0; k < len; ++k) v[k] = la(k) - ra(k);
              break;
            default:  // kMul
              for (size_t k = 0; k < len; ++k) v[k] = la(k) * ra(k);
              break;
          }
        });
      });
      return out;
    }
    Column out(FieldType::kDouble);
    std::vector<double>& v = *out.mutable_doubles();
    v.resize(len);
    WithDoubleAcc(l, begin, [&](auto la) {
      WithDoubleAcc(r, begin, [&](auto ra) {
        switch (n.op) {
          case BinOp::kAdd:
            for (size_t k = 0; k < len; ++k) v[k] = la(k) + ra(k);
            break;
          case BinOp::kSub:
            for (size_t k = 0; k < len; ++k) v[k] = la(k) - ra(k);
            break;
          case BinOp::kMul:
            for (size_t k = 0; k < len; ++k) v[k] = la(k) * ra(k);
            break;
          default:  // kDiv; division by zero yields 0.0 like EvalBinary
            for (size_t k = 0; k < len; ++k) {
              double y = ra(k);
              v[k] = y == 0 ? 0.0 : la(k) / y;
            }
            break;
        }
      });
    });
    return out;
  }

  // Comparisons and logic produce an int64 0/1 mask.
  Column out(FieldType::kInt64);
  std::vector<int64_t>& v = *out.mutable_ints();
  v.resize(len);
  auto fill = [&](auto la, auto ra) {
    switch (n.op) {
      case BinOp::kEq:
        for (size_t k = 0; k < len; ++k) v[k] = la(k) == ra(k) ? 1 : 0;
        break;
      case BinOp::kNe:
        for (size_t k = 0; k < len; ++k) v[k] = la(k) != ra(k) ? 1 : 0;
        break;
      case BinOp::kLt:
        for (size_t k = 0; k < len; ++k) v[k] = la(k) < ra(k) ? 1 : 0;
        break;
      case BinOp::kLe:
        for (size_t k = 0; k < len; ++k) v[k] = la(k) <= ra(k) ? 1 : 0;
        break;
      case BinOp::kGt:
        for (size_t k = 0; k < len; ++k) v[k] = la(k) > ra(k) ? 1 : 0;
        break;
      case BinOp::kGe:
        for (size_t k = 0; k < len; ++k) v[k] = la(k) >= ra(k) ? 1 : 0;
        break;
      case BinOp::kAnd:
        // Numeric truthiness: != 0. Nonzero int64 never rounds to 0.0, so
        // the double view is exact here.
        for (size_t k = 0; k < len; ++k)
          v[k] = la(k) != 0 && ra(k) != 0 ? 1 : 0;
        break;
      default:  // kOr
        for (size_t k = 0; k < len; ++k)
          v[k] = la(k) != 0 || ra(k) != 0 ? 1 : 0;
        break;
    }
  };
  if (both_int && n.op != BinOp::kAnd && n.op != BinOp::kOr) {
    // Exact integer comparison (CompareValues compares int-int exactly, not
    // through the double view).
    WithInt64Acc(l, begin,
                 [&](auto la) { WithInt64Acc(r, begin, [&](auto ra) { fill(la, ra); }); });
  } else {
    WithDoubleAcc(l, begin,
                  [&](auto la) { WithDoubleAcc(r, begin, [&](auto ra) { fill(la, ra); }); });
  }
  return out;
}

EvalOut EvalNode(const BatchNode& n, const Table& t, size_t begin, size_t end) {
  EvalOut out;
  switch (n.kind) {
    case ExprKind::kColumn:
      out.borrowed = &t.col(n.col);
      return out;
    case ExprKind::kLiteral:
      out.is_scalar = true;
      out.scalar = n.literal;
      return out;
    case ExprKind::kBinary: {
      EvalOut l = EvalNode(*n.lhs, t, begin, end);
      EvalOut r = EvalNode(*n.rhs, t, begin, end);
      out.owned = EvalBinaryBatch(n, l, r, begin, end);
      return out;
    }
  }
  return out;
}

StatusOr<std::unique_ptr<BatchNode>> BuildBatchNode(const Expr& e,
                                                    const Schema& schema) {
  auto n = std::make_unique<BatchNode>();
  n->kind = e.kind();
  MUSKETEER_ASSIGN_OR_RETURN(n->type, e.InferType(schema));
  switch (e.kind()) {
    case ExprKind::kColumn:
      n->col = static_cast<int>(*schema.IndexOf(e.column_name()));
      return n;
    case ExprKind::kLiteral:
      n->literal = e.literal();
      return n;
    case ExprKind::kBinary: {
      n->op = e.op();
      MUSKETEER_ASSIGN_OR_RETURN(n->lhs, BuildBatchNode(*e.lhs(), schema));
      MUSKETEER_ASSIGN_OR_RETURN(n->rhs, BuildBatchNode(*e.rhs(), schema));
      return n;
    }
  }
  return InternalError("bad expr kind");
}

// Materializes an EvalOut into a standalone column of length end-begin.
Column MaterializeEvalOut(EvalOut&& e, FieldType type, size_t begin,
                          size_t end) {
  if (e.borrowed != nullptr) {
    return e.borrowed->Slice(begin, end);
  }
  if (!e.is_scalar) {
    return std::move(e.owned);
  }
  const size_t len = end - begin;
  Column out(type);
  switch (type) {
    case FieldType::kInt64:
      out.mutable_ints()->assign(len, AsInt64(e.scalar));
      break;
    case FieldType::kDouble:
      out.mutable_doubles()->assign(len, AsDouble(e.scalar));
      break;
    case FieldType::kString:
      out.mutable_strings()->assign(len, std::get<std::string>(e.scalar));
      break;
  }
  return out;
}

// Fills mask[0 .. end-begin) with the truthiness of `n` over rows
// [begin, end). Comparisons fill the mask directly from the typed operand
// accessors (same exact-int / double-view dispatch as EvalBinaryBatch, so
// the kept set matches bit for bit); AND/OR combine child masks byte-wise.
// Everything else falls back to evaluating the node and testing truthiness
// of the result column — value-identical to IsTruthy(EvalBinary(...)).
void MaskFromNode(const BatchNode& n, const Table& t, size_t begin, size_t end,
                  uint8_t* mask) {
  const size_t len = end - begin;
  if (n.kind == ExprKind::kBinary && n.lhs->type != FieldType::kString &&
      n.rhs->type != FieldType::kString) {
    if (n.op == BinOp::kAnd || n.op == BinOp::kOr) {
      // Child masks are the children's truthiness, which is exactly what
      // EvalBinary's IsTruthy(a) && IsTruthy(b) consumes.
      MaskFromNode(*n.lhs, t, begin, end, mask);
      std::vector<uint8_t> tmp(len);
      MaskFromNode(*n.rhs, t, begin, end, tmp.data());
      if (n.op == BinOp::kAnd) {
        for (size_t k = 0; k < len; ++k) mask[k] &= tmp[k];
      } else {
        for (size_t k = 0; k < len; ++k) mask[k] |= tmp[k];
      }
      return;
    }
    if (!IsArithmetic(n.op)) {
      // Comparison: write the 0/1 result straight into the byte mask.
      EvalOut l = EvalNode(*n.lhs, t, begin, end);
      EvalOut r = EvalNode(*n.rhs, t, begin, end);
      const bool both_int = n.lhs->type == FieldType::kInt64 &&
                            n.rhs->type == FieldType::kInt64;
      auto fill = [&](auto la, auto ra) {
        switch (n.op) {
          case BinOp::kEq:
            for (size_t k = 0; k < len; ++k) mask[k] = la(k) == ra(k) ? 1 : 0;
            break;
          case BinOp::kNe:
            for (size_t k = 0; k < len; ++k) mask[k] = la(k) != ra(k) ? 1 : 0;
            break;
          case BinOp::kLt:
            for (size_t k = 0; k < len; ++k) mask[k] = la(k) < ra(k) ? 1 : 0;
            break;
          case BinOp::kLe:
            for (size_t k = 0; k < len; ++k) mask[k] = la(k) <= ra(k) ? 1 : 0;
            break;
          case BinOp::kGt:
            for (size_t k = 0; k < len; ++k) mask[k] = la(k) > ra(k) ? 1 : 0;
            break;
          default:  // kGe
            for (size_t k = 0; k < len; ++k) mask[k] = la(k) >= ra(k) ? 1 : 0;
            break;
        }
      };
      if (both_int) {
        WithInt64Acc(l, begin, [&](auto la) {
          WithInt64Acc(r, begin, [&](auto ra) { fill(la, ra); });
        });
      } else {
        WithDoubleAcc(l, begin, [&](auto la) {
          WithDoubleAcc(r, begin, [&](auto ra) { fill(la, ra); });
        });
      }
      return;
    }
  }

  // Fallback: evaluate the node, then test truthiness per cell (non-zero
  // numeric; strings are falsy — IsTruthy's rules).
  EvalOut out = EvalNode(n, t, begin, end);
  if (out.is_scalar) {
    std::fill(mask, mask + len, static_cast<uint8_t>(IsTruthy(out.scalar)));
    return;
  }
  const Column& c = out.borrowed != nullptr ? *out.borrowed : out.owned;
  const size_t off = out.borrowed != nullptr ? begin : 0;
  switch (c.type()) {
    case FieldType::kInt64: {
      const int64_t* v = c.ints().data() + off;
      for (size_t k = 0; k < len; ++k) mask[k] = v[k] != 0 ? 1 : 0;
      return;
    }
    case FieldType::kDouble: {
      const double* v = c.doubles().data() + off;
      for (size_t k = 0; k < len; ++k) mask[k] = v[k] != 0 ? 1 : 0;
      return;
    }
    case FieldType::kString:
      std::fill(mask, mask + len, static_cast<uint8_t>(0));
      return;
  }
}

}  // namespace

StatusOr<MaskEval> Expr::CompileMask(const Schema& schema) const {
  MUSKETEER_ASSIGN_OR_RETURN(std::unique_ptr<BatchNode> built,
                             BuildBatchNode(*this, schema));
  std::shared_ptr<const BatchNode> root = std::move(built);
  return MaskEval(
      [root](const Table& t, size_t begin, size_t end, uint8_t* mask) {
        MaskFromNode(*root, t, begin, end, mask);
      });
}

StatusOr<BatchEval> Expr::CompileBatch(const Schema& schema) const {
  MUSKETEER_ASSIGN_OR_RETURN(std::unique_ptr<BatchNode> built,
                             BuildBatchNode(*this, schema));
  std::shared_ptr<const BatchNode> root = std::move(built);
  return BatchEval(
      [root](const Table& t, size_t begin, size_t end) -> musketeer::Column {
        EvalOut out = EvalNode(*root, t, begin, end);
        return MaterializeEvalOut(std::move(out), root->type, begin, end);
      });
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return column_;
    case ExprKind::kLiteral:
      return ValueToString(literal_);
    case ExprKind::kBinary: {
      std::string out = "(";
      out += lhs_->ToString();
      out += ' ';
      out += BinOpName(op_);
      out += ' ';
      out += rhs_->ToString();
      out += ')';
      return out;
    }
  }
  return "?";
}

bool Expr::ResolvesAgainst(const Schema& schema) const {
  switch (kind_) {
    case ExprKind::kColumn:
      return schema.IndexOf(column_).has_value();
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kBinary:
      return lhs_->ResolvesAgainst(schema) && rhs_->ResolvesAgainst(schema);
  }
  return false;
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  switch (kind_) {
    case ExprKind::kColumn:
      if (std::find(out->begin(), out->end(), column_) == out->end()) {
        out->push_back(column_);
      }
      return;
    case ExprKind::kLiteral:
      return;
    case ExprKind::kBinary:
      lhs_->CollectColumns(out);
      rhs_->CollectColumns(out);
      return;
  }
}

}  // namespace musketeer
