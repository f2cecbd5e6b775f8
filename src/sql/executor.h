/// \file executor.h
/// Vectorized Volcano execution over physical plans.
///
/// Operators pull DataChunks from children via Next() until `done`. The hash
/// aggregate spills partial states to temp-file partitions under memory
/// pressure (Grace-style), which is what gives Qymera its out-of-core
/// capability (paper Sec. 3.3).
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/temp_file.h"
#include "common/thread_pool.h"
#include "sql/plan.h"

namespace qy::sql {

/// Cumulative statistics for one physical operator kind.
/// `seconds` is coordinator-side wall time and is inclusive of children
/// (Volcano pull), so the top operator of a pipeline bounds the total.
struct OperatorProfile {
  std::string name;
  uint64_t invocations = 0;  ///< operator instances torn down
  uint64_t rows_out = 0;     ///< rows emitted to the parent
  double seconds = 0;        ///< wall time in Init() + Next()
};

/// Thread-safe per-operator stats sink, aggregated by operator name across
/// all queries executed against one Database. Lets the morsel-driven
/// parallel speedup be observed per operator rather than only end-to-end.
class QueryProfile {
 public:
  void Record(const char* name, uint64_t rows_out, double seconds);
  std::vector<OperatorProfile> Snapshot() const;
  /// One line per operator: name, invocations, rows, seconds.
  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  std::vector<OperatorProfile> ops_;
};

/// Shared execution services and settings.
struct ExecContext {
  MemoryTracker* tracker = nullptr;        ///< required
  TempFileManager* temp_files = nullptr;   ///< required when spilling enabled
  size_t chunk_size = 2048;
  bool enable_spill = true;
  /// Morsel-driven parallelism: operators fan work out over `pool` when it
  /// is non-null and num_threads > 1; with num_threads == 1 every operator
  /// takes its serial path (byte-identical legacy behavior).
  size_t num_threads = 1;
  ThreadPool* pool = nullptr;
  /// Optional per-operator stats sink.
  QueryProfile* profile = nullptr;
  /// Optional cancellation/deadline context; polled once per morsel/chunk
  /// by every operator loop.
  const QueryContext* query = nullptr;
  /// Execution statistics (cumulative across operators).
  uint64_t rows_spilled = 0;
  uint64_t spill_partitions = 0;

  /// kCancelled / kDeadlineExceeded when the query should stop, OK else.
  Status CheckInterrupt() const {
    return query != nullptr ? query->Check() : Status::OK();
  }
};

/// Per-node row/time counters, flushed to the context profile on operator
/// teardown (when the plan's ExecNode tree is destroyed).
struct NodeStats {
  NodeStats(const char* name, ExecContext* ctx)
      : name(name), profile(ctx->profile) {}
  ~NodeStats() {
    if (profile != nullptr) profile->Record(name, rows_out, seconds);
  }
  const char* name;
  QueryProfile* profile;
  uint64_t rows_out = 0;
  double seconds = 0;
};

/// Accumulates elapsed wall time into `*acc` on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* acc)
      : acc_(acc), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    *acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
  }

 private:
  double* acc_;
  std::chrono::steady_clock::time_point start_;
};

/// A physical operator instance.
class ExecNode {
 public:
  virtual ~ExecNode() = default;

  /// Prepare (may consume build-side children).
  virtual Status Init() = 0;

  /// Produce the next chunk. Sets *done=true (with an empty chunk) when
  /// exhausted. A returned chunk may hold more rows than ctx->chunk_size
  /// (joins can expand).
  virtual Status Next(DataChunk* out, bool* done) = 0;
};

/// Instantiate the operator tree for `plan`.
Result<std::unique_ptr<ExecNode>> CreateExecNode(const PlanNode& plan,
                                                 ExecContext* ctx);

/// Run `plan` to completion, appending all rows into `sink` (whose schema
/// must match the plan output).
Status ExecutePlan(const PlanNode& plan, ExecContext* ctx, Table* sink);

}  // namespace qy::sql
