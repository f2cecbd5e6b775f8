#include "sql/expression.h"

#include <cmath>
#include <type_traits>

#include "common/strings.h"

namespace qy::sql {

BoundExprPtr MakeBoundColumnRef(int col_idx, DataType type) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExprKind::kColumnRef;
  e->type = type;
  e->col_idx = col_idx;
  return e;
}

BoundExprPtr MakeBoundLiteral(Value v) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExprKind::kLiteral;
  e->type = v.type();
  e->literal = std::move(v);
  return e;
}

void CollectColumnRefs(const BoundExpr& e, std::vector<int>* out) {
  if (e.kind == BoundExprKind::kColumnRef) out->push_back(e.col_idx);
  for (const auto& c : e.children) CollectColumnRefs(*c, out);
}

std::unique_ptr<BoundExpr> BoundExpr::Clone() const {
  auto e = std::make_unique<BoundExpr>();
  e->kind = kind;
  e->type = type;
  e->col_idx = col_idx;
  e->literal = literal;
  e->op = op;
  e->func = func;
  e->case_has_else = case_has_else;
  e->children.reserve(children.size());
  for (const auto& c : children) e->children.push_back(c->Clone());
  return e;
}

// Operands. An operator evaluates its children as operands rather than as
// owned copies:
// - a column reference of the type a kernel reads is borrowed from the input
//   chunk;
// - a non-NULL literal on the right of an arithmetic, bitwise or comparison
//   operator is read as one scalar (a literal on the left stays a column);
// - an arithmetic or bitwise node, and NOT, negation and bitwise NOT,
//   evaluate their left (or only) operand into their own output and finish
//   there in place. AND/OR never do: their three-valued pass re-reads both
//   inputs after the values are written. A comparison cannot: its BOOLEAN
//   output never has its operands' type.
// A right operand never lives in the output, so no kernel reads a value it
// has already overwritten.

namespace {

template <typename T>
const std::vector<T>& TypedData(const ColumnVector& v);
template <>
const std::vector<uint8_t>& TypedData<uint8_t>(const ColumnVector& v) {
  return v.bool_data();
}
template <>
const std::vector<int64_t>& TypedData<int64_t>(const ColumnVector& v) {
  return v.i64_data();
}
template <>
const std::vector<int128_t>& TypedData<int128_t>(const ColumnVector& v) {
  return v.i128_data();
}
template <>
const std::vector<double>& TypedData<double>(const ColumnVector& v) {
  return v.f64_data();
}
template <>
const std::vector<std::string>& TypedData<std::string>(const ColumnVector& v) {
  return v.str_data();
}

template <typename T>
std::vector<T>& MutableTypedData(ColumnVector& v);
template <>
std::vector<uint8_t>& MutableTypedData<uint8_t>(ColumnVector& v) {
  return v.mutable_bool_data();
}
template <>
std::vector<int64_t>& MutableTypedData<int64_t>(ColumnVector& v) {
  return v.mutable_i64_data();
}
template <>
std::vector<int128_t>& MutableTypedData<int128_t>(ColumnVector& v) {
  return v.mutable_i128_data();
}
template <>
std::vector<double>& MutableTypedData<double>(ColumnVector& v) {
  return v.mutable_f64_data();
}

/// The payload of a non-NULL scalar of type T.
template <typename T>
T ScalarAs(const Value& v) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return v.bigint_value();
  } else if constexpr (std::is_same_v<T, int128_t>) {
    return v.hugeint_value();
  } else {
    return v.double_value();
  }
}

/// Mark NULL in `out` every row that is NULL in `src` (same row count).
void AndValidity(const ColumnVector& src, ColumnVector* out) {
  const std::vector<uint8_t>& valid = src.validity();
  for (size_t i = 0; i < valid.size(); ++i) {
    if (valid[i] == 0) out->SetNull(i);
  }
}

/// Cast `col` to `target` where it is (a no-op when it has that type).
Status CastInPlace(DataType target, ColumnVector* col) {
  if (col->type() == target) return Status::OK();
  QY_ASSIGN_OR_RETURN(ColumnVector cast, col->CastTo(target));
  *col = std::move(cast);
  return Status::OK();
}

/// Borrow `src` as `target` type: when the type already matches, the column
/// is used in place; otherwise the cast materializes into `*storage` and
/// that is returned.
Result<const ColumnVector*> BorrowAs(const ColumnVector& src, DataType target,
                                     ColumnVector* storage) {
  if (src.type() == target) return &src;
  QY_ASSIGN_OR_RETURN(*storage, src.CastTo(target));
  return storage;
}

/// `child` as a column of `target`: a column reference of that type is
/// borrowed from `input`; anything else is evaluated into `*storage` and
/// cast there. Passing the caller's own output as `storage` evaluates the
/// operand in place.
Result<const ColumnVector*> EvaluateColumn(const BoundExpr& child,
                                           const DataChunk& input,
                                           DataType target,
                                           ColumnVector* storage) {
  if (child.kind == BoundExprKind::kColumnRef && child.type == target) {
    const ColumnVector& src = input.columns[child.col_idx];
    if (src.type() == target) return &src;
  }
  QY_RETURN_IF_ERROR(child.Evaluate(input, storage));
  QY_RETURN_IF_ERROR(CastInPlace(target, storage));
  return storage;
}

/// The right-hand input of a kernel: a column, or one scalar that stands
/// for every row.
struct RightOperand {
  const ColumnVector* column = nullptr;  ///< null: read `scalar`
  Value scalar;
};

/// `child` as the right operand of a kernel over `target`: a non-NULL
/// literal that casts to `target` is read as a scalar; anything else goes
/// through EvaluateColumn, so a literal whose cast fails still fails the way
/// a column of it does.
Status EvaluateRight(const BoundExpr& child, const DataChunk& input,
                     DataType target, ColumnVector* storage,
                     RightOperand* r) {
  if (child.kind == BoundExprKind::kLiteral && !child.literal.is_null() &&
      child.literal.type() == child.type) {
    Result<Value> scalar = child.literal.CastTo(target);
    if (scalar.ok()) {
      r->column = nullptr;
      r->scalar = std::move(scalar).value();
      return Status::OK();
    }
  }
  QY_ASSIGN_OR_RETURN(r->column, EvaluateColumn(child, input, target, storage));
  return Status::OK();
}

template <typename T>
struct ColumnReader {
  const T* data;
  T operator[](size_t i) const { return data[i]; }
};

template <typename T>
struct ScalarReader {
  T value;
  T operator[](size_t) const { return value; }
};

/// Size `out` as a D column with `a`'s rows and NULLs and return its data.
/// When `a` is `out` (the operand was evaluated into it) the kernel finishes
/// in place; a bitmap the operand carried without any NULL is dropped, as a
/// newly computed column has none.
template <typename D>
D* PrepareOutput(const ColumnVector& a, ColumnVector* out) {
  if (&a == out) {
    out->CompactValidity();
  } else {
    MutableTypedData<D>(*out).resize(a.size());
    out->SetSizeFromData();
    AndValidity(a, out);
  }
  return MutableTypedData<D>(*out).data();
}

/// out[i] = fn(a[i]) for every row of `a`; a row is NULL where `a`'s is or
/// where fn returns false. `a` may be `out`.
template <typename A, typename D, typename Fn>
void UnaryKernel(const ColumnVector& a, ColumnVector* out, Fn fn) {
  D* dst = PrepareOutput<D>(a, out);
  const A* src = TypedData<A>(a).data();
  for (size_t i = 0; i < a.size(); ++i) {
    if (!fn(src[i], &dst[i])) {
      dst[i] = D();
      out->SetNull(i);
    }
  }
}

/// out[i] = fn(l[i], r[i]) for every row, with `r` a column or one scalar;
/// a row is NULL where an input's is or where fn returns false. `l` may be
/// `out`; `r` never is.
template <typename A, typename B, typename D, typename Fn>
void BinaryKernel(const ColumnVector& l, const RightOperand& r,
                  ColumnVector* out, Fn fn) {
  D* dst = PrepareOutput<D>(l, out);
  const A* a = TypedData<A>(l).data();
  const size_t n = l.size();
  auto run = [&](auto b) {
    for (size_t i = 0; i < n; ++i) {
      if (!fn(a[i], b[i], &dst[i])) {
        dst[i] = D();
        out->SetNull(i);
      }
    }
  };
  if (r.column == nullptr) {
    run(ScalarReader<B>{ScalarAs<B>(r.scalar)});
  } else {
    AndValidity(*r.column, out);
    run(ColumnReader<B>{TypedData<B>(*r.column).data()});
  }
}

/// x + y, x - y or x * y into *z; false when an integer result overflows T.
template <OpCode kOp, typename T>
bool Checked(T x, T y, T* z) {
  if constexpr (std::is_same_v<T, double>) {
    *z = kOp == OpCode::kAdd ? x + y : kOp == OpCode::kSub ? x - y : x * y;
    return true;
  } else if constexpr (kOp == OpCode::kAdd) {
    return !__builtin_add_overflow(x, y, z);
  } else if constexpr (kOp == OpCode::kSub) {
    return !__builtin_sub_overflow(x, y, z);
  } else {
    return !__builtin_mul_overflow(x, y, z);
  }
}

/// -x into *z; false when an integer result overflows T.
template <typename T>
bool Negated(T x, T* z) {
  if constexpr (std::is_same_v<T, double>) {
    *z = -x;  // not 0 - x, which gives +0.0 for x = +0.0
    return true;
  } else {
    return !__builtin_sub_overflow(T(0), x, z);
  }
}

/// Arithmetic or bitwise `op` over T into `out`. Integer overflow, x / 0,
/// x % 0 and a shift count outside [0, bit width) give NULL: in C++ each is
/// undefined or traps.
template <typename T>
Status ArithOrBitwise(OpCode op, const ColumnVector& l, const RightOperand& r,
                      ColumnVector* out) {
  auto run = [&](auto fn) {
    BinaryKernel<T, T, T>(l, r, out, fn);
    return Status::OK();
  };
  switch (op) {
    case OpCode::kAdd:
      return run([](T x, T y, T* z) { return Checked<OpCode::kAdd>(x, y, z); });
    case OpCode::kSub:
      return run([](T x, T y, T* z) { return Checked<OpCode::kSub>(x, y, z); });
    case OpCode::kMul:
      return run([](T x, T y, T* z) { return Checked<OpCode::kMul>(x, y, z); });
    default:
      break;
  }
  if constexpr (std::is_same_v<T, double>) {
    switch (op) {
      case OpCode::kDiv:
        return run([](T x, T y, T* z) {
          if (y == 0.0) return false;
          *z = x / y;
          return true;
        });
      case OpCode::kMod:
        return run([](T x, T y, T* z) {
          *z = std::fmod(x, y);
          return true;
        });
      default:
        break;
    }
  } else {
    constexpr T kBits = static_cast<T>(sizeof(T) * 8);
    switch (op) {
      case OpCode::kMod:
        return run([](T x, T y, T* z) {
          if (y == 0) return false;
          *z = y == -1 ? 0 : x % y;  // x % -1 traps at the type's minimum
          return true;
        });
      case OpCode::kBitAnd:
        return run([](T x, T y, T* z) { *z = x & y; return true; });
      case OpCode::kBitOr:
        return run([](T x, T y, T* z) { *z = x | y; return true; });
      case OpCode::kBitXor:
        return run([](T x, T y, T* z) { *z = x ^ y; return true; });
      case OpCode::kShl:
        return run([](T x, T y, T* z) {
          if (y < 0 || y >= kBits) return false;
          *z = x << y;
          return true;
        });
      case OpCode::kShr:
        return run([](T x, T y, T* z) {
          if (y < 0 || y >= kBits) return false;
          *z = x >> y;
          return true;
        });
      default:
        break;
    }
  }
  return Status::Internal("unexpected arithmetic or bitwise opcode");
}

/// ArithOrBitwise over the node type `type`.
Status ArithOrBitwiseAs(DataType type, OpCode op, const ColumnVector& l,
                        const RightOperand& r, ColumnVector* out) {
  switch (type) {
    case DataType::kBigInt: return ArithOrBitwise<int64_t>(op, l, r, out);
    case DataType::kHugeInt: return ArithOrBitwise<int128_t>(op, l, r, out);
    case DataType::kDouble: return ArithOrBitwise<double>(op, l, r, out);
    default: return Status::Internal("arith promotion failed");
  }
}

/// Comparison over promoted numeric type T -> BOOLEAN.
template <typename T>
Status CompareNumbers(OpCode op, const ColumnVector& l, const RightOperand& r,
                      ColumnVector* out) {
  auto run = [&](auto cmp) {
    BinaryKernel<T, T, uint8_t>(l, r, out, [cmp](T x, T y, uint8_t* z) {
      *z = cmp(x, y) ? 1 : 0;
      return true;
    });
    return Status::OK();
  };
  switch (op) {
    case OpCode::kEq: return run([](T x, T y) { return x == y; });
    case OpCode::kNe: return run([](T x, T y) { return x != y; });
    case OpCode::kLt: return run([](T x, T y) { return x < y; });
    case OpCode::kLe: return run([](T x, T y) { return x <= y; });
    case OpCode::kGt: return run([](T x, T y) { return x > y; });
    case OpCode::kGe: return run([](T x, T y) { return x >= y; });
    default:
      return Status::Internal("CompareKernel: unexpected opcode");
  }
}

Status CompareStrings(OpCode op, const ColumnVector& l, const ColumnVector& r,
                      ColumnVector* out) {
  const auto& a = l.str_data();
  const auto& b = r.str_data();
  auto& dst = out->mutable_bool_data();
  size_t n = a.size();
  dst.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].compare(b[i]);
    bool v = false;
    switch (op) {
      case OpCode::kEq: v = c == 0; break;
      case OpCode::kNe: v = c != 0; break;
      case OpCode::kLt: v = c < 0; break;
      case OpCode::kLe: v = c <= 0; break;
      case OpCode::kGt: v = c > 0; break;
      case OpCode::kGe: v = c >= 0; break;
      default: break;
    }
    dst[i] = v ? 1 : 0;
  }
  out->SetSizeFromData();
  AndValidity(l, out);
  AndValidity(r, out);
  return Status::OK();
}

/// AND/OR over BOOLEAN columns, never in place (see the operand rules).
Status LogicKernel(OpCode op, const ColumnVector& l, const ColumnVector& r,
                   ColumnVector* out) {
  const auto& a = l.bool_data();
  const auto& b = r.bool_data();
  auto& dst = out->mutable_bool_data();
  dst.resize(a.size());
  if (op == OpCode::kAnd) {
    for (size_t i = 0; i < a.size(); ++i) dst[i] = (a[i] && b[i]) ? 1 : 0;
  } else {
    for (size_t i = 0; i < a.size(); ++i) dst[i] = (a[i] || b[i]) ? 1 : 0;
  }
  out->SetSizeFromData();
  if (l.validity().empty() && r.validity().empty()) return Status::OK();
  // Three-valued logic: a row with a NULL side is NULL unless the other
  // side decides it, as a non-NULL FALSE decides an AND and a non-NULL TRUE
  // an OR.
  bool decisive = op == OpCode::kOr;
  for (size_t i = 0; i < a.size(); ++i) {
    bool l_null = l.IsNull(i);
    bool r_null = r.IsNull(i);
    if (!l_null && !r_null) continue;
    if ((!l_null && (a[i] != 0) == decisive) ||
        (!r_null && (b[i] != 0) == decisive)) {
      continue;
    }
    out->SetNull(i);
  }
  return Status::OK();
}

bool IsComparison(OpCode op) {
  return op == OpCode::kEq || op == OpCode::kNe || op == OpCode::kLt ||
         op == OpCode::kLe || op == OpCode::kGt || op == OpCode::kGe;
}

}  // namespace

Status BoundExpr::Evaluate(const DataChunk& input, ColumnVector* out) const {
  out->Reset(type);
  size_t rows = input.NumRows();
  switch (kind) {
    case BoundExprKind::kColumnRef: {
      const ColumnVector& src = input.columns[col_idx];
      if (src.type() != type) {
        QY_ASSIGN_OR_RETURN(*out, src.CastTo(type));
        return Status::OK();
      }
      *out = src;
      return Status::OK();
    }
    case BoundExprKind::kLiteral: {
      if (literal.is_null() || literal.type() != type) {
        out->Reserve(rows);
        for (size_t i = 0; i < rows; ++i) {
          QY_RETURN_IF_ERROR(out->AppendValue(literal));
        }
        return Status::OK();
      }
      switch (type) {
        case DataType::kBool:
          out->mutable_bool_data().assign(rows, literal.bool_value() ? 1 : 0);
          break;
        case DataType::kBigInt:
          out->mutable_i64_data().assign(rows, literal.bigint_value());
          break;
        case DataType::kHugeInt:
          out->mutable_i128_data().assign(rows, literal.hugeint_value());
          break;
        case DataType::kDouble:
          out->mutable_f64_data().assign(rows, literal.double_value());
          break;
        case DataType::kVarchar:
          out->mutable_str_data().assign(rows, literal.varchar_value());
          break;
      }
      out->SetSizeFromData();
      return Status::OK();
    }
    case BoundExprKind::kCast: {
      // Cast straight from a borrowed column; anything else casts in place.
      QY_ASSIGN_OR_RETURN(
          const ColumnVector* inner,
          EvaluateColumn(*children[0], input, children[0]->type, out));
      if (inner == out) return CastInPlace(type, out);
      QY_ASSIGN_OR_RETURN(*out, inner->CastTo(type));
      return Status::OK();
    }
    case BoundExprKind::kUnary:
      return EvaluateUnary(input, out);
    case BoundExprKind::kBinary:
      return EvaluateBinary(input, out);
    case BoundExprKind::kFunction:
      return EvaluateFunction(input, out);
    case BoundExprKind::kCase:
      return EvaluateCase(input, out);
  }
  return Status::Internal("unhandled bound expression kind");
}

Status BoundExpr::EvaluateConstant(Value* out) const {
  ColumnVector result(type);
  // Build a chunk with one row by using a dummy column.
  DataChunk one_row;
  one_row.columns.emplace_back(DataType::kBigInt);
  one_row.columns[0].AppendBigInt(0);
  QY_RETURN_IF_ERROR(Evaluate(one_row, &result));
  if (result.size() != 1) {
    return Status::Internal("constant expression did not yield one value");
  }
  *out = result.GetValue(0);
  return Status::OK();
}

Status BoundExpr::EvaluateUnary(const DataChunk& input,
                                ColumnVector* out) const {
  const BoundExpr& child = *children[0];
  if (op == OpCode::kIsNull) {
    ColumnVector storage;
    QY_ASSIGN_OR_RETURN(const ColumnVector* a,
                        EvaluateColumn(child, input, child.type, &storage));
    auto& dst = out->mutable_bool_data();
    dst.resize(a->size());
    for (size_t i = 0; i < a->size(); ++i) dst[i] = a->IsNull(i) ? 1 : 0;
    out->SetSizeFromData();
    return Status::OK();
  }
  QY_ASSIGN_OR_RETURN(const ColumnVector* a,
                      EvaluateColumn(child, input, type, out));
  switch (op) {
    case OpCode::kNot:
      UnaryKernel<uint8_t, uint8_t>(*a, out, [](uint8_t x, uint8_t* z) {
        *z = x ? 0 : 1;
        return true;
      });
      return Status::OK();
    case OpCode::kNeg:
      switch (type) {
        case DataType::kBigInt:
          UnaryKernel<int64_t, int64_t>(*a, out, Negated<int64_t>);
          return Status::OK();
        case DataType::kHugeInt:
          UnaryKernel<int128_t, int128_t>(*a, out, Negated<int128_t>);
          return Status::OK();
        case DataType::kDouble:
          UnaryKernel<double, double>(*a, out, Negated<double>);
          return Status::OK();
        default:
          return Status::BindError("cannot negate non-numeric value");
      }
    case OpCode::kBitNot: {
      auto bit_not = [](auto x, auto* z) {
        *z = ~x;
        return true;
      };
      if (type == DataType::kBigInt) {
        UnaryKernel<int64_t, int64_t>(*a, out, bit_not);
      } else {
        UnaryKernel<int128_t, int128_t>(*a, out, bit_not);
      }
      return Status::OK();
    }
    default:
      return Status::Internal("unexpected unary opcode");
  }
}

Status BoundExpr::EvaluateBinary(const DataChunk& input,
                                 ColumnVector* out) const {
  const BoundExpr& lhs = *children[0];
  const BoundExpr& rhs = *children[1];
  ColumnVector ls, rs;
  if (op == OpCode::kAnd || op == OpCode::kOr) {
    QY_ASSIGN_OR_RETURN(const ColumnVector* l,
                        EvaluateColumn(lhs, input, DataType::kBool, &ls));
    QY_ASSIGN_OR_RETURN(const ColumnVector* r,
                        EvaluateColumn(rhs, input, DataType::kBool, &rs));
    return LogicKernel(op, *l, *r, out);
  }
  if (op == OpCode::kConcat ||
      (IsComparison(op) && (lhs.type == DataType::kVarchar ||
                            rhs.type == DataType::kVarchar))) {
    QY_ASSIGN_OR_RETURN(const ColumnVector* l,
                        EvaluateColumn(lhs, input, DataType::kVarchar, &ls));
    QY_ASSIGN_OR_RETURN(const ColumnVector* r,
                        EvaluateColumn(rhs, input, DataType::kVarchar, &rs));
    if (op != OpCode::kConcat) return CompareStrings(op, *l, *r, out);
    out->Reserve(l->size());
    for (size_t i = 0; i < l->size(); ++i) {
      if (l->IsNull(i) || r->IsNull(i)) {
        out->AppendNull();
      } else {
        out->AppendVarchar(l->str_data()[i] + r->str_data()[i]);
      }
    }
    return Status::OK();
  }
  if (IsComparison(op)) {
    QY_ASSIGN_OR_RETURN(DataType common, CommonNumericType(lhs.type, rhs.type));
    if (common == DataType::kBool) common = DataType::kBigInt;
    QY_ASSIGN_OR_RETURN(const ColumnVector* l,
                        EvaluateColumn(lhs, input, common, &ls));
    RightOperand r;
    QY_RETURN_IF_ERROR(EvaluateRight(rhs, input, common, &rs, &r));
    switch (common) {
      case DataType::kBigInt: return CompareNumbers<int64_t>(op, *l, r, out);
      case DataType::kHugeInt: return CompareNumbers<int128_t>(op, *l, r, out);
      case DataType::kDouble: return CompareNumbers<double>(op, *l, r, out);
      default: return Status::Internal("comparison promotion failed");
    }
  }
  // Arithmetic and bitwise operators read both operands as the node's type;
  // the left one is evaluated into `out` unless it is borrowed.
  QY_ASSIGN_OR_RETURN(const ColumnVector* l,
                      EvaluateColumn(lhs, input, type, out));
  RightOperand r;
  QY_RETURN_IF_ERROR(EvaluateRight(rhs, input, type, &rs, &r));
  return ArithOrBitwiseAs(type, op, *l, r, out);
}

Status BoundExpr::EvaluateCase(const DataChunk& input,
                               ColumnVector* out) const {
  size_t pairs = (children.size() - (case_has_else ? 1 : 0)) / 2;
  std::vector<ColumnVector> storage(children.size());
  std::vector<const ColumnVector*> cols(children.size());
  for (size_t c = 0; c < children.size(); ++c) {
    // WHEN conditions are BOOLEAN; THEN and ELSE values take the CASE's type.
    bool is_cond = c % 2 == 0 && c / 2 < pairs;
    QY_ASSIGN_OR_RETURN(
        cols[c], EvaluateColumn(*children[c], input,
                                is_cond ? children[c]->type : type,
                                &storage[c]));
  }
  size_t rows = input.NumRows();
  out->Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const ColumnVector* pick = case_has_else ? cols.back() : nullptr;
    for (size_t p = 0; p < pairs; ++p) {
      const ColumnVector& cond = *cols[2 * p];
      if (!cond.IsNull(i) && cond.bool_data()[i] != 0) {
        pick = cols[2 * p + 1];
        break;
      }
    }
    if (pick != nullptr) {
      out->AppendFrom(*pick, i);
    } else {
      out->AppendNull();
    }
  }
  return Status::OK();
}

Status BoundExpr::EvaluateFunction(const DataChunk& input,
                                   ColumnVector* out) const {
  std::vector<ColumnVector> storage(children.size());
  std::vector<const ColumnVector*> args(children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    QY_ASSIGN_OR_RETURN(args[i], EvaluateColumn(*children[i], input,
                                                children[i]->type,
                                                &storage[i]));
  }
  size_t rows = input.NumRows();
  // Argument i as type t: borrowed when it has that type, else cast.
  std::vector<ColumnVector> casts(children.size());
  auto arg = [&](size_t i, DataType t) {
    return BorrowAs(*args[i], t, &casts[i]);
  };
  auto unary_double = [&](auto f) -> Status {
    QY_ASSIGN_OR_RETURN(const ColumnVector* a, arg(0, DataType::kDouble));
    UnaryKernel<double, double>(*a, out, [f](double x, double* z) {
      *z = f(x);
      return true;
    });
    return Status::OK();
  };
  switch (func) {
    case ScalarFunc::kAbs: {
      if (type == DataType::kDouble) {
        return unary_double([](double x) { return std::abs(x); });
      }
      QY_ASSIGN_OR_RETURN(const ColumnVector* a, arg(0, type));
      auto abs = [](auto x, auto* z) {
        if (x >= 0) {
          *z = x;
          return true;
        }
        return Negated(x, z);
      };
      switch (type) {
        case DataType::kBigInt:
          UnaryKernel<int64_t, int64_t>(*a, out, abs);
          return Status::OK();
        case DataType::kHugeInt:
          UnaryKernel<int128_t, int128_t>(*a, out, abs);
          return Status::OK();
        default:
          return Status::Internal("ABS over a non-numeric type");
      }
    }
    case ScalarFunc::kSqrt: return unary_double([](double x) { return std::sqrt(x); });
    case ScalarFunc::kFloor: return unary_double([](double x) { return std::floor(x); });
    case ScalarFunc::kCeil: return unary_double([](double x) { return std::ceil(x); });
    case ScalarFunc::kLn: return unary_double([](double x) { return std::log(x); });
    case ScalarFunc::kExp: return unary_double([](double x) { return std::exp(x); });
    case ScalarFunc::kSin: return unary_double([](double x) { return std::sin(x); });
    case ScalarFunc::kCos: return unary_double([](double x) { return std::cos(x); });
    case ScalarFunc::kPow: {
      QY_ASSIGN_OR_RETURN(const ColumnVector* a, arg(0, DataType::kDouble));
      RightOperand b;
      QY_ASSIGN_OR_RETURN(b.column, arg(1, DataType::kDouble));
      BinaryKernel<double, double, double>(
          *a, b, out, [](double x, double y, double* z) {
            *z = std::pow(x, y);
            return true;
          });
      return Status::OK();
    }
    case ScalarFunc::kRound: {
      // Each row rounds to its own digits; ROUND(x) rounds to 0 digits.
      QY_ASSIGN_OR_RETURN(const ColumnVector* a, arg(0, DataType::kDouble));
      RightOperand digits;
      digits.scalar = Value::BigInt(0);
      if (args.size() > 1) {
        QY_ASSIGN_OR_RETURN(digits.column, arg(1, DataType::kBigInt));
      }
      BinaryKernel<double, int64_t, double>(
          *a, digits, out, [](double x, int64_t d, double* z) {
            double scale = std::pow(10.0, static_cast<double>(d));
            *z = std::round(x * scale) / scale;
            return true;
          });
      return Status::OK();
    }
    case ScalarFunc::kMod: {
      // The '%' kernel, over both arguments as columns of the result type.
      QY_ASSIGN_OR_RETURN(const ColumnVector* a, arg(0, type));
      RightOperand b;
      QY_ASSIGN_OR_RETURN(b.column, arg(1, type));
      return ArithOrBitwiseAs(type, OpCode::kMod, *a, b, out);
    }
    case ScalarFunc::kSubstr: {
      QY_ASSIGN_OR_RETURN(const ColumnVector* s, arg(0, DataType::kVarchar));
      QY_ASSIGN_OR_RETURN(const ColumnVector* st, arg(1, DataType::kBigInt));
      const ColumnVector* len = nullptr;
      if (args.size() > 2) {
        QY_ASSIGN_OR_RETURN(len, arg(2, DataType::kBigInt));
      }
      out->Reserve(rows);
      for (size_t i = 0; i < rows; ++i) {
        if (s->IsNull(i)) {
          out->AppendNull();
          continue;
        }
        const std::string& str = s->str_data()[i];
        int64_t start = st->i64_data()[i];  // SQL: 1-based
        int64_t from = start >= 1 ? start - 1 : 0;
        if (from >= static_cast<int64_t>(str.size())) {
          out->AppendVarchar("");
          continue;
        }
        int64_t count = len != nullptr
                            ? len->i64_data()[i]
                            : static_cast<int64_t>(str.size()) - from;
        if (count < 0) count = 0;
        out->AppendVarchar(str.substr(static_cast<size_t>(from),
                                      static_cast<size_t>(count)));
      }
      return Status::OK();
    }
    case ScalarFunc::kConcat: {
      std::vector<const ColumnVector*> strs(args.size());
      for (size_t i = 0; i < args.size(); ++i) {
        QY_ASSIGN_OR_RETURN(strs[i], arg(i, DataType::kVarchar));
      }
      out->Reserve(rows);
      for (size_t r = 0; r < rows; ++r) {
        std::string acc;
        for (const ColumnVector* c : strs) {
          if (!c->IsNull(r)) acc += c->str_data()[r];
        }
        out->AppendVarchar(std::move(acc));
      }
      return Status::OK();
    }
    case ScalarFunc::kLength: {
      QY_ASSIGN_OR_RETURN(const ColumnVector* s, arg(0, DataType::kVarchar));
      UnaryKernel<std::string, int64_t>(
          *s, out, [](const std::string& x, int64_t* z) {
            *z = static_cast<int64_t>(x.size());
            return true;
          });
      return Status::OK();
    }
  }
  return Status::Internal("unhandled scalar function");
}

}  // namespace qy::sql
