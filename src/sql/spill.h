/// \file spill.h
/// Binary row (de)serialization for out-of-core spill partitions.
///
/// Format per value: [valid:u8][payload], payload fixed-width for numeric
/// types, length-prefixed (u32) for VARCHAR. Rows are concatenated into
/// length-framed records, and records are batched into checksummed pages:
///
///   page   := [magic:u32][payload_len:u32][crc32c:u32] payload
///   payload:= ([record_len:u32] record)*
///
/// The writer flushes a page at record boundaries (every ~1 MiB), so a
/// record never straddles pages. The reader verifies the magic and CRC32C of
/// every page before parsing records; torn writes, truncation and bit flips
/// surface as a clean kDataLoss Status instead of garbage rows or UB.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/temp_file.h"
#include "sql/column_vector.h"
#include "sql/schema.h"

namespace qy::sql {

/// Serialize value at `row` of `col` into `buf`.
void SerializeValue(const ColumnVector& col, size_t row, std::string* buf);

/// Serialize a raw Value (same format).
void SerializeRawValue(const Value& v, std::string* buf);

/// Cursor-based reader over a byte buffer.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  /// Read the next value and append it to `col`, whose type it was
  /// written from.
  Status ReadInto(ColumnVector* col);
  Status ReadValue(DataType type, Value* out);
  Status ReadBytes(void* dst, size_t n);
  bool AtEnd() const { return pos_ >= size_; }
  size_t position() const { return pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Magic marking the start of every spill page ("QYPG", little-endian).
inline constexpr uint32_t kSpillPageMagic = 0x47505951u;

/// Buffered writer of length-framed records into a TempFile, one checksummed
/// page per flush.
class RecordWriter {
 public:
  explicit RecordWriter(TempFile* file) : file_(file) {}

  /// Append one record (arbitrary bytes). Flushes every ~1 MiB.
  Status Write(const std::string& record);
  Status Flush();
  uint64_t records_written() const { return records_; }

 private:
  TempFile* file_;
  std::string buffer_;
  uint64_t records_ = 0;
};

/// Streaming reader of records framed by RecordWriter. Every page's CRC32C
/// is verified when it is loaded; corruption is reported as kDataLoss.
class RecordReader {
 public:
  explicit RecordReader(TempFile* file) : file_(file) {}

  /// Read the next record; *eof=true at end.
  Status Read(std::string* record, bool* eof);

 private:
  /// Load and verify the next page into page_; *eof at clean end-of-file.
  Status LoadPage(bool* eof);

  TempFile* file_;
  std::string page_;
  size_t pos_ = 0;
};

}  // namespace qy::sql
