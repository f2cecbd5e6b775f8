#include "sql/hash_kernels.h"

#include <cstring>

#include "sql/spill.h"

namespace qy::sql {

void NormalizeIntKeyColumn(const ColumnVector& col,
                           std::vector<int128_t>* values) {
  size_t n = col.size();
  values->resize(n);
  int128_t* dst = values->data();
  if (col.type() == DataType::kBigInt) {
    const int64_t* src = col.i64_data().data();
    for (size_t i = 0; i < n; ++i) dst[i] = static_cast<int128_t>(src[i]);
  } else {
    const int128_t* src = col.i128_data().data();
    for (size_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

void HashIntKeyColumn(const ColumnVector& col,
                      const std::vector<int128_t>& values,
                      std::vector<uint64_t>* hashes) {
  size_t n = col.size();
  hashes->resize(n);
  uint64_t* dst = hashes->data();
  for (size_t i = 0; i < n; ++i) dst[i] = HashIntKey(values[i]);
  if (!col.validity().empty()) {
    const uint8_t* valid = col.validity().data();
    for (size_t i = 0; i < n; ++i) {
      if (valid[i] == 0) dst[i] = kIntNullKeyHash;
    }
  }
}

bool KeysAreFixedWidth(const std::vector<ColumnVector>& keys) {
  for (const auto& kc : keys) {
    if (kc.type() == DataType::kVarchar) return false;
  }
  return true;
}

size_t FixedKeyStride(const std::vector<ColumnVector>& keys) {
  size_t stride = 0;
  for (const auto& kc : keys) {
    stride += 1 + static_cast<size_t>(TypeWidthBytes(kc.type()));
  }
  return stride;
}

namespace {

/// Write column `kc` into the fixed-stride row buffer at byte offset `off`
/// of every row: [valid][payload] with the payload zeroed for NULLs (the
/// buffer starts zero-filled, so NULL rows only need the valid byte left 0).
void EncodeFixedColumn(const ColumnVector& kc, size_t n, size_t stride,
                       size_t off, char* base) {
  const uint8_t* valid =
      kc.validity().empty() ? nullptr : kc.validity().data();
  auto slot = [&](size_t r) { return base + r * stride + off; };
  switch (kc.type()) {
    case DataType::kBool: {
      const uint8_t* src = kc.bool_data().data();
      for (size_t r = 0; r < n; ++r) {
        char* p = slot(r);
        if (valid != nullptr && valid[r] == 0) continue;
        p[0] = 1;
        p[1] = static_cast<char>(src[r]);
      }
      break;
    }
    case DataType::kBigInt: {
      const int64_t* src = kc.i64_data().data();
      for (size_t r = 0; r < n; ++r) {
        char* p = slot(r);
        if (valid != nullptr && valid[r] == 0) continue;
        p[0] = 1;
        std::memcpy(p + 1, &src[r], sizeof(int64_t));
      }
      break;
    }
    case DataType::kHugeInt: {
      const int128_t* src = kc.i128_data().data();
      for (size_t r = 0; r < n; ++r) {
        char* p = slot(r);
        if (valid != nullptr && valid[r] == 0) continue;
        p[0] = 1;
        std::memcpy(p + 1, &src[r], sizeof(int128_t));
      }
      break;
    }
    case DataType::kDouble: {
      const double* src = kc.f64_data().data();
      for (size_t r = 0; r < n; ++r) {
        char* p = slot(r);
        if (valid != nullptr && valid[r] == 0) continue;
        p[0] = 1;
        std::memcpy(p + 1, &src[r], sizeof(double));
      }
      break;
    }
    case DataType::kVarchar:
      break;  // unreachable: fixed-width layout excludes VARCHAR
  }
}

}  // namespace

void EncodeKeyRows(const std::vector<ColumnVector>& keys, size_t n,
                   EncodedKeyRows* out) {
  out->num_rows = n;
  out->bytes.clear();
  out->offsets.clear();
  out->fixed_width = KeysAreFixedWidth(keys);
  if (out->fixed_width) {
    out->stride = FixedKeyStride(keys);
    out->bytes.assign(n * out->stride, '\0');
    size_t off = 0;
    for (const auto& kc : keys) {
      EncodeFixedColumn(kc, n, out->stride, off, out->bytes.data());
      off += 1 + static_cast<size_t>(TypeWidthBytes(kc.type()));
    }
    return;
  }
  out->stride = 0;
  out->offsets.reserve(n + 1);
  for (size_t r = 0; r < n; ++r) {
    out->offsets.push_back(static_cast<uint32_t>(out->bytes.size()));
    for (const auto& kc : keys) SerializeValue(kc, r, &out->bytes);
  }
  out->offsets.push_back(static_cast<uint32_t>(out->bytes.size()));
}

void HashEncodedRows(const EncodedKeyRows& rows,
                     std::vector<uint64_t>* hashes) {
  hashes->resize(rows.num_rows);
  for (size_t i = 0; i < rows.num_rows; ++i) {
    (*hashes)[i] = HashBytes64(rows.RowPtr(i), rows.RowLen(i));
  }
}

void MaskToSelection(const ColumnVector& mask, std::vector<uint32_t>* sel) {
  sel->clear();
  size_t n = mask.size();
  sel->reserve(n);
  const uint8_t* data = mask.bool_data().data();
  if (mask.validity().empty()) {
    for (size_t i = 0; i < n; ++i) {
      if (data[i] != 0) sel->push_back(static_cast<uint32_t>(i));
    }
    return;
  }
  const uint8_t* valid = mask.validity().data();
  for (size_t i = 0; i < n; ++i) {
    if (valid[i] != 0 && data[i] != 0) sel->push_back(static_cast<uint32_t>(i));
  }
}

}  // namespace qy::sql
