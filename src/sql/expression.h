/// \file expression.h
/// Bound (typed, resolved) expressions and their vectorized evaluation.
///
/// Bound expressions reference input columns by physical index; evaluation
/// runs column-at-a-time over DataChunks with type-specialized kernels.
/// Bitwise operators on BIGINT/HUGEINT are first-class citizens — they are
/// the primitive Qymera's qubit addressing compiles to (Table 1 of the
/// paper).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sql/column_vector.h"
#include "sql/value.h"

namespace qy::sql {

enum class OpCode {
  // arithmetic
  kAdd, kSub, kMul, kDiv, kMod,
  // bitwise (integers)
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  // comparison -> BOOLEAN
  kEq, kNe, kLt, kLe, kGt, kGe,
  // logical
  kAnd, kOr,
  // string
  kConcat,
  // unary
  kNeg, kBitNot, kNot, kIsNull,
};

/// Scalar (non-aggregate) builtin functions.
enum class ScalarFunc {
  kAbs, kSqrt, kPow, kFloor, kCeil, kRound, kLn, kExp, kSin, kCos,
  kSubstr, kConcat, kLength, kMod,
};

enum class BoundExprKind {
  kColumnRef,  ///< physical column index in the input chunk
  kLiteral,
  kUnary,
  kBinary,
  kFunction,
  kCase,
  kCast,
};

/// A typed, resolved expression tree ready for execution.
struct BoundExpr {
  BoundExprKind kind;
  DataType type;  ///< result type

  int col_idx = -1;               // kColumnRef
  Value literal;                  // kLiteral
  OpCode op = OpCode::kAdd;       // kUnary / kBinary
  ScalarFunc func = ScalarFunc::kAbs;  // kFunction
  bool case_has_else = false;     // kCase
  std::vector<std::unique_ptr<BoundExpr>> children;

  /// Evaluate over `input` into `out`, which holds `input.NumRows()` values
  /// of `type` afterwards. `out` is reset first but keeps its buffers, so a
  /// caller that evaluates chunk after chunk into one column reuses them;
  /// it must not be one of `input`'s columns.
  Status Evaluate(const DataChunk& input, ColumnVector* out) const;

  /// Convenience: evaluate against a 0-column chunk of `rows` rows
  /// (constant expressions, VALUES lists).
  Status EvaluateConstant(Value* out) const;

  std::unique_ptr<BoundExpr> Clone() const;

 private:
  // Per-kind evaluation behind Evaluate (see expression.cc for the operand
  // rules: borrowed columns, scalar literals, in-place finishing).
  Status EvaluateUnary(const DataChunk& input, ColumnVector* out) const;
  Status EvaluateBinary(const DataChunk& input, ColumnVector* out) const;
  Status EvaluateFunction(const DataChunk& input, ColumnVector* out) const;
  Status EvaluateCase(const DataChunk& input, ColumnVector* out) const;
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

BoundExprPtr MakeBoundColumnRef(int col_idx, DataType type);
BoundExprPtr MakeBoundLiteral(Value v);

/// Append the column index of every column reference in `e` to `out`, once
/// per reference.
void CollectColumnRefs(const BoundExpr& e, std::vector<int>* out);

}  // namespace qy::sql
