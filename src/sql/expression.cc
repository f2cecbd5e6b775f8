#include "sql/expression.h"

#include <cmath>

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

namespace {

/// Combined validity of two inputs (empty = all valid).
std::vector<uint8_t> MergeValidity(const ColumnVector& a,
                                   const ColumnVector& b) {
  if (a.validity().empty() && b.validity().empty()) return {};
  std::vector<uint8_t> out(a.size(), 1);
  if (!a.validity().empty()) {
    for (size_t i = 0; i < out.size(); ++i) out[i] &= a.validity()[i];
  }
  if (!b.validity().empty()) {
    for (size_t i = 0; i < out.size(); ++i) out[i] &= b.validity()[i];
  }
  return out;
}

void SetValidity(ColumnVector* v, std::vector<uint8_t> validity) {
  if (validity.empty()) return;
  for (size_t i = 0; i < validity.size(); ++i) {
    if (validity[i] == 0) v->SetNull(i);
  }
}

template <typename T>
const std::vector<T>& TypedData(const ColumnVector& v);
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

template <typename T>
std::vector<T>& MutableTypedData(ColumnVector& v);
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

template <typename T>
constexpr DataType TypeTag();
template <>
constexpr DataType TypeTag<int64_t>() { return DataType::kBigInt; }
template <>
constexpr DataType TypeTag<int128_t>() { return DataType::kHugeInt; }
template <>
constexpr DataType TypeTag<double>() { return DataType::kDouble; }

/// Arithmetic kernel over a numeric type T producing T.
template <typename T>
Status ArithKernel(OpCode op, const ColumnVector& l, const ColumnVector& r,
                   ColumnVector* out) {
  const auto& a = TypedData<T>(l);
  const auto& b = TypedData<T>(r);
  auto& dst = MutableTypedData<T>(*out);
  size_t n = a.size();
  dst.resize(n);
  std::vector<uint8_t> validity = MergeValidity(l, r);
  switch (op) {
    case OpCode::kAdd:
      for (size_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
      break;
    case OpCode::kSub:
      for (size_t i = 0; i < n; ++i) dst[i] = a[i] - b[i];
      break;
    case OpCode::kMul:
      for (size_t i = 0; i < n; ++i) dst[i] = a[i] * b[i];
      break;
    case OpCode::kMod:
      if constexpr (std::is_integral_v<T> || std::is_same_v<T, int128_t>) {
        if (validity.empty()) validity.assign(n, 1);
        for (size_t i = 0; i < n; ++i) {
          if (b[i] == 0) {
            validity[i] = 0;  // x % 0 -> NULL
            dst[i] = 0;
          } else if (b[i] == -1) {
            dst[i] = 0;  // a % -1 would trap at the type's minimum
          } else {
            dst[i] = a[i] % b[i];
          }
        }
      } else {
        for (size_t i = 0; i < n; ++i) dst[i] = std::fmod(a[i], b[i]);
      }
      break;
    default:
      return Status::Internal("ArithKernel: unexpected opcode");
  }
  out->SetSizeFromData();
  SetValidity(out, std::move(validity));
  return Status::OK();
}

/// Bitwise kernel over integer type T.
template <typename T>
Status BitKernel(OpCode op, const ColumnVector& l, const ColumnVector& r,
                 ColumnVector* out) {
  const auto& a = TypedData<T>(l);
  const auto& b = TypedData<T>(r);
  auto& dst = MutableTypedData<T>(*out);
  size_t n = a.size();
  dst.resize(n);
  std::vector<uint8_t> validity = MergeValidity(l, r);
  // A shift count outside [0, bit width) is undefined in C++; it gives NULL,
  // as x / 0 does.
  auto shift = [&](auto fn) {
    constexpr T kBits = static_cast<T>(sizeof(T) * 8);
    for (size_t i = 0; i < n; ++i) {
      if (b[i] < 0 || b[i] >= kBits) {
        if (validity.empty()) validity.assign(n, 1);
        validity[i] = 0;
        dst[i] = 0;
      } else {
        dst[i] = fn(a[i], b[i]);
      }
    }
  };
  switch (op) {
    case OpCode::kBitAnd:
      for (size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
      break;
    case OpCode::kBitOr:
      for (size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
      break;
    case OpCode::kBitXor:
      for (size_t i = 0; i < n; ++i) dst[i] = a[i] ^ b[i];
      break;
    case OpCode::kShl:
      shift([](T x, T c) { return x << c; });
      break;
    case OpCode::kShr:
      shift([](T x, T c) { return x >> c; });
      break;
    default:
      return Status::Internal("BitKernel: unexpected opcode");
  }
  out->SetSizeFromData();
  SetValidity(out, std::move(validity));
  return Status::OK();
}

/// Comparison kernel over promoted numeric type T -> BOOLEAN.
template <typename T>
Status CompareKernel(OpCode op, const ColumnVector& l, const ColumnVector& r,
                     ColumnVector* out) {
  const auto& a = TypedData<T>(l);
  const auto& b = TypedData<T>(r);
  auto& dst = out->mutable_bool_data();
  size_t n = a.size();
  dst.resize(n);
  auto apply = [&](auto cmp) {
    for (size_t i = 0; i < n; ++i) dst[i] = cmp(a[i], b[i]) ? 1 : 0;
  };
  switch (op) {
    case OpCode::kEq: apply([](T x, T y) { return x == y; }); break;
    case OpCode::kNe: apply([](T x, T y) { return x != y; }); break;
    case OpCode::kLt: apply([](T x, T y) { return x < y; }); break;
    case OpCode::kLe: apply([](T x, T y) { return x <= y; }); break;
    case OpCode::kGt: apply([](T x, T y) { return x > y; }); break;
    case OpCode::kGe: apply([](T x, T y) { return x >= y; }); break;
    default:
      return Status::Internal("CompareKernel: unexpected opcode");
  }
  out->SetSizeFromData();
  SetValidity(out, MergeValidity(l, r));
  return Status::OK();
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
  SetValidity(out, MergeValidity(l, r));
  return Status::OK();
}

bool IsComparison(OpCode op) {
  return op == OpCode::kEq || op == OpCode::kNe || op == OpCode::kLt ||
         op == OpCode::kLe || op == OpCode::kGt || op == OpCode::kGe;
}

bool IsBitwise(OpCode op) {
  return op == OpCode::kBitAnd || op == OpCode::kBitOr ||
         op == OpCode::kBitXor || op == OpCode::kShl || op == OpCode::kShr;
}

bool IsArith(OpCode op) {
  return op == OpCode::kAdd || op == OpCode::kSub || op == OpCode::kMul ||
         op == OpCode::kDiv || op == OpCode::kMod;
}

/// Borrow `src` as `target` type: when the type already matches, the column
/// is used in place (the promotion paths below used to deep-copy both
/// operands even when no cast was needed); otherwise the cast materializes
/// into `*storage` and that is returned.
Result<const ColumnVector*> BorrowAs(const ColumnVector& src, DataType target,
                                     ColumnVector* storage) {
  if (src.type() == target) return &src;
  QY_ASSIGN_OR_RETURN(*storage, src.CastTo(target));
  return storage;
}

}  // namespace

Status BoundExpr::Evaluate(const DataChunk& input, ColumnVector* out) const {
  *out = ColumnVector(type);
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
      ColumnVector inner;
      QY_RETURN_IF_ERROR(children[0]->Evaluate(input, &inner));
      QY_ASSIGN_OR_RETURN(*out, inner.CastTo(type));
      return Status::OK();
    }
    case BoundExprKind::kUnary: {
      ColumnVector operand;
      QY_RETURN_IF_ERROR(children[0]->Evaluate(input, &operand));
      return EvaluateUnaryOp(op, operand, out);
    }
    case BoundExprKind::kBinary: {
      ColumnVector l, r;
      QY_RETURN_IF_ERROR(children[0]->Evaluate(input, &l));
      QY_RETURN_IF_ERROR(children[1]->Evaluate(input, &r));
      return EvaluateBinaryOp(op, l, r, out);
    }
    case BoundExprKind::kFunction:
      return EvaluateFunction(input, out);
    case BoundExprKind::kCase: {
      size_t pairs = (children.size() - (case_has_else ? 1 : 0)) / 2;
      std::vector<ColumnVector> conds(pairs), thens(pairs);
      for (size_t p = 0; p < pairs; ++p) {
        QY_RETURN_IF_ERROR(children[2 * p]->Evaluate(input, &conds[p]));
        ColumnVector raw;
        QY_RETURN_IF_ERROR(children[2 * p + 1]->Evaluate(input, &raw));
        QY_ASSIGN_OR_RETURN(thens[p], raw.CastTo(type));
      }
      ColumnVector else_col(type);
      if (case_has_else) {
        ColumnVector raw;
        QY_RETURN_IF_ERROR(children.back()->Evaluate(input, &raw));
        QY_ASSIGN_OR_RETURN(else_col, raw.CastTo(type));
      }
      out->Reserve(rows);
      for (size_t i = 0; i < rows; ++i) {
        bool matched = false;
        for (size_t p = 0; p < pairs && !matched; ++p) {
          if (!conds[p].IsNull(i) && conds[p].bool_data()[i] != 0) {
            out->AppendFrom(thens[p], i);
            matched = true;
          }
        }
        if (!matched) {
          if (case_has_else) {
            out->AppendFrom(else_col, i);
          } else {
            out->AppendNull();
          }
        }
      }
      return Status::OK();
    }
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

Status BoundExpr::EvaluateUnaryOp(OpCode opcode, const ColumnVector& operand,
                                  ColumnVector* out) const {
  size_t n = operand.size();
  switch (opcode) {
    case OpCode::kIsNull: {
      auto& dst = out->mutable_bool_data();
      dst.resize(n);
      for (size_t i = 0; i < n; ++i) dst[i] = operand.IsNull(i) ? 1 : 0;
      out->SetSizeFromData();
      return Status::OK();
    }
    case OpCode::kNot: {
      auto& dst = out->mutable_bool_data();
      const auto& src = operand.bool_data();
      dst.resize(n);
      for (size_t i = 0; i < n; ++i) dst[i] = src[i] ? 0 : 1;
      out->SetSizeFromData();
      SetValidity(out, MergeValidity(operand, operand));
      return Status::OK();
    }
    case OpCode::kNeg: {
      QY_ASSIGN_OR_RETURN(ColumnVector promoted, operand.CastTo(type));
      switch (type) {
        case DataType::kBigInt: {
          auto& dst = out->mutable_i64_data();
          dst = promoted.i64_data();
          for (auto& v : dst) v = -v;
          break;
        }
        case DataType::kHugeInt: {
          auto& dst = out->mutable_i128_data();
          dst = promoted.i128_data();
          for (auto& v : dst) v = -v;
          break;
        }
        case DataType::kDouble: {
          auto& dst = out->mutable_f64_data();
          dst = promoted.f64_data();
          for (auto& v : dst) v = -v;
          break;
        }
        default:
          return Status::BindError("cannot negate non-numeric value");
      }
      out->SetSizeFromData();
      SetValidity(out, MergeValidity(operand, operand));
      return Status::OK();
    }
    case OpCode::kBitNot: {
      QY_ASSIGN_OR_RETURN(ColumnVector promoted, operand.CastTo(type));
      if (type == DataType::kBigInt) {
        auto& dst = out->mutable_i64_data();
        dst = promoted.i64_data();
        for (auto& v : dst) v = ~v;
      } else {
        auto& dst = out->mutable_i128_data();
        dst = promoted.i128_data();
        for (auto& v : dst) v = ~v;
      }
      out->SetSizeFromData();
      SetValidity(out, MergeValidity(operand, operand));
      return Status::OK();
    }
    default:
      return Status::Internal("unexpected unary opcode");
  }
}

Status BoundExpr::EvaluateBinaryOp(OpCode opcode, const ColumnVector& l,
                                   const ColumnVector& r,
                                   ColumnVector* out) const {
  if (opcode == OpCode::kAnd || opcode == OpCode::kOr) {
    const auto& a = l.bool_data();
    const auto& b = r.bool_data();
    auto& dst = out->mutable_bool_data();
    dst.resize(a.size());
    if (opcode == OpCode::kAnd) {
      for (size_t i = 0; i < a.size(); ++i) dst[i] = (a[i] && b[i]) ? 1 : 0;
    } else {
      for (size_t i = 0; i < a.size(); ++i) dst[i] = (a[i] || b[i]) ? 1 : 0;
    }
    out->SetSizeFromData();
    // Three-valued logic: a non-NULL FALSE decides an AND and a non-NULL
    // TRUE decides an OR, whatever the other side is.
    std::vector<uint8_t> validity = MergeValidity(l, r);
    bool decisive = opcode == OpCode::kOr;
    for (size_t i = 0; i < validity.size(); ++i) {
      if ((!l.IsNull(i) && (a[i] != 0) == decisive) ||
          (!r.IsNull(i) && (b[i] != 0) == decisive)) {
        validity[i] = 1;
      }
    }
    SetValidity(out, std::move(validity));
    return Status::OK();
  }
  if (opcode == OpCode::kConcat) {
    QY_ASSIGN_OR_RETURN(ColumnVector a, l.CastTo(DataType::kVarchar));
    QY_ASSIGN_OR_RETURN(ColumnVector b, r.CastTo(DataType::kVarchar));
    out->Reserve(a.size());
    for (size_t i = 0; i < a.size(); ++i) {
      if (a.IsNull(i) || b.IsNull(i)) {
        out->AppendNull();
      } else {
        out->AppendVarchar(a.str_data()[i] + b.str_data()[i]);
      }
    }
    return Status::OK();
  }
  if (IsComparison(opcode)) {
    if (l.type() == DataType::kVarchar || r.type() == DataType::kVarchar) {
      QY_ASSIGN_OR_RETURN(ColumnVector a, l.CastTo(DataType::kVarchar));
      QY_ASSIGN_OR_RETURN(ColumnVector b, r.CastTo(DataType::kVarchar));
      return CompareStrings(opcode, a, b, out);
    }
    QY_ASSIGN_OR_RETURN(DataType common, CommonNumericType(l.type(), r.type()));
    if (common == DataType::kBool) common = DataType::kBigInt;
    ColumnVector la, rb;
    QY_ASSIGN_OR_RETURN(const ColumnVector* a, BorrowAs(l, common, &la));
    QY_ASSIGN_OR_RETURN(const ColumnVector* b, BorrowAs(r, common, &rb));
    switch (common) {
      case DataType::kBigInt:
        return CompareKernel<int64_t>(opcode, *a, *b, out);
      case DataType::kHugeInt:
        return CompareKernel<int128_t>(opcode, *a, *b, out);
      case DataType::kDouble:
        return CompareKernel<double>(opcode, *a, *b, out);
      default: return Status::Internal("comparison promotion failed");
    }
  }
  if (IsBitwise(opcode)) {
    ColumnVector la, rb;
    QY_ASSIGN_OR_RETURN(const ColumnVector* a, BorrowAs(l, type, &la));
    QY_ASSIGN_OR_RETURN(const ColumnVector* b, BorrowAs(r, type, &rb));
    if (type == DataType::kBigInt) {
      return BitKernel<int64_t>(opcode, *a, *b, out);
    }
    return BitKernel<int128_t>(opcode, *a, *b, out);
  }
  if (opcode == OpCode::kDiv) {
    ColumnVector la, rb;
    QY_ASSIGN_OR_RETURN(const ColumnVector* pa,
                        BorrowAs(l, DataType::kDouble, &la));
    QY_ASSIGN_OR_RETURN(const ColumnVector* pb,
                        BorrowAs(r, DataType::kDouble, &rb));
    const ColumnVector& a = *pa;
    const ColumnVector& b = *pb;
    const auto& x = a.f64_data();
    const auto& y = b.f64_data();
    auto& dst = out->mutable_f64_data();
    dst.resize(x.size());
    std::vector<uint8_t> validity = MergeValidity(a, b);
    if (validity.empty()) validity.assign(x.size(), 1);
    for (size_t i = 0; i < x.size(); ++i) {
      if (y[i] == 0.0) {
        validity[i] = 0;  // x / 0 -> NULL
        dst[i] = 0.0;
      } else {
        dst[i] = x[i] / y[i];
      }
    }
    out->SetSizeFromData();
    SetValidity(out, std::move(validity));
    return Status::OK();
  }
  if (IsArith(opcode)) {
    ColumnVector la, rb;
    QY_ASSIGN_OR_RETURN(const ColumnVector* a, BorrowAs(l, type, &la));
    QY_ASSIGN_OR_RETURN(const ColumnVector* b, BorrowAs(r, type, &rb));
    switch (type) {
      case DataType::kBigInt: return ArithKernel<int64_t>(opcode, *a, *b, out);
      case DataType::kHugeInt:
        return ArithKernel<int128_t>(opcode, *a, *b, out);
      case DataType::kDouble: return ArithKernel<double>(opcode, *a, *b, out);
      default: return Status::Internal("arith promotion failed");
    }
  }
  return Status::Internal("unexpected binary opcode");
}

Status BoundExpr::EvaluateFunction(const DataChunk& input,
                                   ColumnVector* out) const {
  std::vector<ColumnVector> args(children.size());
  for (size_t i = 0; i < children.size(); ++i) {
    QY_RETURN_IF_ERROR(children[i]->Evaluate(input, &args[i]));
  }
  size_t rows = input.NumRows();
  auto unary_double = [&](auto f) -> Status {
    QY_ASSIGN_OR_RETURN(ColumnVector a, args[0].CastTo(DataType::kDouble));
    auto& dst = out->mutable_f64_data();
    dst.resize(rows);
    const auto& src = a.f64_data();
    for (size_t i = 0; i < rows; ++i) dst[i] = f(src[i]);
    out->SetSizeFromData();
    SetValidity(out, MergeValidity(a, a));
    return Status::OK();
  };
  switch (func) {
    case ScalarFunc::kAbs: {
      if (type == DataType::kDouble) {
        return unary_double([](double x) { return std::abs(x); });
      }
      QY_ASSIGN_OR_RETURN(ColumnVector a, args[0].CastTo(type));
      if (type == DataType::kBigInt) {
        auto& dst = out->mutable_i64_data();
        dst = a.i64_data();
        for (auto& v : dst) v = v < 0 ? -v : v;
      } else {
        auto& dst = out->mutable_i128_data();
        dst = a.i128_data();
        for (auto& v : dst) v = v < 0 ? -v : v;
      }
      out->SetSizeFromData();
      SetValidity(out, MergeValidity(a, a));
      return Status::OK();
    }
    case ScalarFunc::kSqrt: return unary_double([](double x) { return std::sqrt(x); });
    case ScalarFunc::kFloor: return unary_double([](double x) { return std::floor(x); });
    case ScalarFunc::kCeil: return unary_double([](double x) { return std::ceil(x); });
    case ScalarFunc::kLn: return unary_double([](double x) { return std::log(x); });
    case ScalarFunc::kExp: return unary_double([](double x) { return std::exp(x); });
    case ScalarFunc::kSin: return unary_double([](double x) { return std::sin(x); });
    case ScalarFunc::kCos: return unary_double([](double x) { return std::cos(x); });
    case ScalarFunc::kPow: {
      QY_ASSIGN_OR_RETURN(ColumnVector a, args[0].CastTo(DataType::kDouble));
      QY_ASSIGN_OR_RETURN(ColumnVector b, args[1].CastTo(DataType::kDouble));
      auto& dst = out->mutable_f64_data();
      dst.resize(rows);
      for (size_t i = 0; i < rows; ++i) {
        dst[i] = std::pow(a.f64_data()[i], b.f64_data()[i]);
      }
      out->SetSizeFromData();
      SetValidity(out, MergeValidity(a, b));
      return Status::OK();
    }
    case ScalarFunc::kRound: {
      QY_ASSIGN_OR_RETURN(ColumnVector a, args[0].CastTo(DataType::kDouble));
      double scale = 1.0;
      if (args.size() > 1) {
        QY_ASSIGN_OR_RETURN(ColumnVector d, args[1].CastTo(DataType::kBigInt));
        if (!d.i64_data().empty()) {
          scale = std::pow(10.0, static_cast<double>(d.i64_data()[0]));
        }
      }
      auto& dst = out->mutable_f64_data();
      dst.resize(rows);
      for (size_t i = 0; i < rows; ++i) {
        dst[i] = std::round(a.f64_data()[i] * scale) / scale;
      }
      out->SetSizeFromData();
      SetValidity(out, MergeValidity(a, a));
      return Status::OK();
    }
    case ScalarFunc::kMod: {
      BoundExpr tmp;
      tmp.type = type;
      return tmp.EvaluateBinaryOp(OpCode::kMod, args[0], args[1], out);
    }
    case ScalarFunc::kSubstr: {
      QY_ASSIGN_OR_RETURN(ColumnVector s, args[0].CastTo(DataType::kVarchar));
      QY_ASSIGN_OR_RETURN(ColumnVector st, args[1].CastTo(DataType::kBigInt));
      ColumnVector len;
      bool has_len = args.size() > 2;
      if (has_len) {
        QY_ASSIGN_OR_RETURN(len, args[2].CastTo(DataType::kBigInt));
      }
      out->Reserve(rows);
      for (size_t i = 0; i < rows; ++i) {
        if (s.IsNull(i)) {
          out->AppendNull();
          continue;
        }
        const std::string& str = s.str_data()[i];
        int64_t start = st.i64_data()[i];  // SQL: 1-based
        int64_t from = start >= 1 ? start - 1 : 0;
        if (from >= static_cast<int64_t>(str.size())) {
          out->AppendVarchar("");
          continue;
        }
        int64_t count = has_len ? len.i64_data()[i]
                                : static_cast<int64_t>(str.size()) - from;
        if (count < 0) count = 0;
        out->AppendVarchar(str.substr(static_cast<size_t>(from),
                                      static_cast<size_t>(count)));
      }
      return Status::OK();
    }
    case ScalarFunc::kConcat: {
      std::vector<ColumnVector> cast(args.size());
      for (size_t i = 0; i < args.size(); ++i) {
        QY_ASSIGN_OR_RETURN(cast[i], args[i].CastTo(DataType::kVarchar));
      }
      out->Reserve(rows);
      for (size_t r = 0; r < rows; ++r) {
        std::string acc;
        for (const auto& c : cast) {
          if (!c.IsNull(r)) acc += c.str_data()[r];
        }
        out->AppendVarchar(std::move(acc));
      }
      return Status::OK();
    }
    case ScalarFunc::kLength: {
      QY_ASSIGN_OR_RETURN(ColumnVector s, args[0].CastTo(DataType::kVarchar));
      auto& dst = out->mutable_i64_data();
      dst.resize(rows);
      for (size_t i = 0; i < rows; ++i) {
        dst[i] = static_cast<int64_t>(s.str_data()[i].size());
      }
      out->SetSizeFromData();
      SetValidity(out, MergeValidity(s, s));
      return Status::OK();
    }
  }
  return Status::Internal("unhandled scalar function");
}

}  // namespace qy::sql
