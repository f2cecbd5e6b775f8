/// \file column_vector.h
/// Columnar value storage: the unit of vectorized execution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/int128.h"
#include "sql/types.h"
#include "sql/value.h"

namespace qy::sql {

/// A typed column of values with an optional validity (non-NULL) bitmap.
/// When `validity` is empty, all rows are valid — the common case in the
/// quantum workload, which never produces NULLs.
class ColumnVector {
 public:
  ColumnVector() : type_(DataType::kBigInt) {}
  explicit ColumnVector(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear();
  /// Clear and retype, keeping the buffers' capacity for the next fill.
  void Reset(DataType type) {
    type_ = type;
    Clear();
  }
  void Reserve(size_t n);

  // -- typed append (fast paths) --
  void AppendBool(bool v) { EnsureValid(); bools_.push_back(v ? 1 : 0); ++size_; }
  void AppendBigInt(int64_t v) { EnsureValid(); i64_.push_back(v); ++size_; }
  void AppendHugeInt(int128_t v) { EnsureValid(); i128_.push_back(v); ++size_; }
  void AppendDouble(double v) { EnsureValid(); f64_.push_back(v); ++size_; }
  void AppendVarchar(std::string v) {
    EnsureValid();
    str_bytes_ += v.size();
    str_.push_back(std::move(v));
    ++size_;
  }
  void AppendNull();

  /// Append a Value (must match column type or be NULL).
  Status AppendValue(const Value& v);

  /// Append row `row` of `other` (same type).
  void AppendFrom(const ColumnVector& other, size_t row);

  /// Bulk-append the rows of `src` (same type) selected by sel[0..count), in
  /// selection order. One type switch per call instead of per row; NULLs are
  /// carried through the validity bitmap (payload slots of NULL rows hold the
  /// zero default, so payloads gather unconditionally).
  void AppendGather(const ColumnVector& src, const uint32_t* sel, size_t count);

  /// Bulk-append rows [offset, offset + count) of `src` (same type).
  void AppendRange(const ColumnVector& src, size_t offset, size_t count);

  // -- access --
  bool IsNull(size_t i) const {
    return !validity_.empty() && validity_[i] == 0;
  }
  bool AnyNull() const;
  Value GetValue(size_t i) const;

  // raw data (valid only for the matching type)
  const std::vector<uint8_t>& bool_data() const { return bools_; }
  const std::vector<int64_t>& i64_data() const { return i64_; }
  const std::vector<int128_t>& i128_data() const { return i128_; }
  const std::vector<double>& f64_data() const { return f64_; }
  const std::vector<std::string>& str_data() const { return str_; }
  std::vector<uint8_t>& mutable_bool_data() { return bools_; }
  std::vector<int64_t>& mutable_i64_data() { return i64_; }
  std::vector<int128_t>& mutable_i128_data() { return i128_; }
  std::vector<double>& mutable_f64_data() { return f64_; }
  std::vector<std::string>& mutable_str_data() { return str_; }
  const std::vector<uint8_t>& validity() const { return validity_; }

  /// Bulk-append `n` rows of raw data (sets size; caller appended to the raw
  /// vector directly).
  void SetSizeFromData();

  /// Mark row i invalid (materializes the validity bitmap).
  void SetNull(size_t i);

  /// Drop a materialized validity bitmap that marks no row NULL (a copy or
  /// a cast carries its source's bitmap over), so a computed column holds a
  /// bitmap only when some row is NULL.
  void CompactValidity() {
    if (!validity_.empty() && !AnyNull()) validity_.clear();
  }

  /// Approximate heap bytes, for memory accounting.
  uint64_t ApproxBytes() const;

  /// Copy of this column promoted/cast to `target` type (numeric widening or
  /// exact same type). NULLs preserved. Error on unsupported conversion.
  Result<ColumnVector> CastTo(DataType target) const;

 private:
  void EnsureValid() {
    if (!validity_.empty()) validity_.push_back(1);
  }
  void MaterializeValidity();

  DataType type_;
  size_t size_ = 0;
  std::vector<uint8_t> validity_;  // empty => all valid
  std::vector<uint8_t> bools_;
  std::vector<int64_t> i64_;
  std::vector<int128_t> i128_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
  uint64_t str_bytes_ = 0;
};

/// A batch of rows: one ColumnVector per output column.
struct DataChunk {
  std::vector<ColumnVector> columns;

  size_t NumRows() const { return columns.empty() ? 0 : columns[0].size(); }
  size_t NumColumns() const { return columns.size(); }
  void Clear() {
    for (auto& c : columns) c.Clear();
  }
  uint64_t ApproxBytes() const {
    uint64_t b = 0;
    for (const auto& c : columns) b += c.ApproxBytes();
    return b;
  }
};

}  // namespace qy::sql
