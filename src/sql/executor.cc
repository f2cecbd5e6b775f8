#include "sql/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>

#include "common/strings.h"
#include "sql/hash_kernels.h"
#include "sql/join_hash_table.h"

namespace qy::sql {

void QueryProfile::Record(const char* name, uint64_t rows_out,
                          double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (OperatorProfile& op : ops_) {
    if (op.name == name) {
      ++op.invocations;
      op.rows_out += rows_out;
      op.seconds += seconds;
      return;
    }
  }
  ops_.push_back({name, 1, rows_out, seconds});
}

std::vector<OperatorProfile> QueryProfile::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

std::string QueryProfile::ToString() const {
  std::string out;
  for (const OperatorProfile& op : Snapshot()) {
    out += op.name + ": invocations=" + std::to_string(op.invocations) +
           " rows_out=" + std::to_string(op.rows_out) +
           " seconds=" + std::to_string(op.seconds) + "\n";
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// Materialize rows [offset, offset+count) of `table` into `out` — the
/// morsel primitive shared by the serial scan and the parallel probe source.
void MaterializeRange(const Table& table, uint64_t offset, uint64_t count,
                      DataChunk* out) {
  out->columns.clear();
  out->columns.reserve(table.schema().NumColumns());
  for (size_t c = 0; c < table.schema().NumColumns(); ++c) {
    ColumnVector col(table.schema().column(c).type);
    col.Reserve(count);
    table.ScanColumn(c, offset, count, &col);
    out->columns.push_back(std::move(col));
  }
}

class ScanNode : public ExecNode {
 public:
  ScanNode(const PlanNode& plan, ExecContext* ctx)
      : plan_(plan), ctx_(ctx), stats_("Scan", ctx) {}

  Status Init() override { return Status::OK(); }

  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    const Table& table = *plan_.table;
    out->columns.clear();
    if (offset_ >= table.NumRows()) {
      *done = true;
      return Status::OK();
    }
    *done = false;
    uint64_t count = std::min<uint64_t>(ctx_->chunk_size,
                                        table.NumRows() - offset_);
    MaterializeRange(table, offset_, count, out);
    offset_ += count;
    stats_.rows_out += count;
    return Status::OK();
  }

 private:
  const PlanNode& plan_;
  ExecContext* ctx_;
  NodeStats stats_;
  uint64_t offset_ = 0;
};

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

/// Keep the rows of `chunk` where `mask` (a BOOLEAN column) is true, using
/// `sel` as scratch. A mask that keeps every row leaves the chunk as it is
/// rather than gathering a copy of it.
void FilterRows(const ColumnVector& mask, std::vector<uint32_t>* sel,
                DataChunk* chunk) {
  MaskToSelection(mask, sel);
  if (sel->size() == chunk->NumRows()) return;
  DataChunk kept;
  kept.columns.reserve(chunk->columns.size());
  for (const auto& col : chunk->columns) {
    kept.columns.emplace_back(col.type());
    kept.columns.back().AppendGather(col, sel->data(), sel->size());
  }
  *chunk = std::move(kept);
}

class FilterNode : public ExecNode {
 public:
  FilterNode(const PlanNode& plan, std::unique_ptr<ExecNode> child,
             ExecContext* ctx)
      : plan_(plan), child_(std::move(child)), ctx_(ctx),
        stats_("Filter", ctx) {}

  Status Init() override { return child_->Init(); }

  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    out->columns.clear();
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      DataChunk in;
      bool child_done = false;
      QY_RETURN_IF_ERROR(child_->Next(&in, &child_done));
      if (child_done) {
        *done = true;
        return Status::OK();
      }
      if (in.NumRows() == 0) continue;
      QY_RETURN_IF_ERROR(plan_.predicate->Evaluate(in, &mask_));
      FilterRows(mask_, &sel_, &in);
      if (in.NumRows() > 0) {
        stats_.rows_out += in.NumRows();
        *out = std::move(in);
        *done = false;
        return Status::OK();
      }
      // else: keep pulling
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  NodeStats stats_;
  ColumnVector mask_;          ///< predicate values, buffers reused per chunk
  std::vector<uint32_t> sel_;  ///< kept rows, buffer reused per chunk
};

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

class ProjectNode : public ExecNode {
 public:
  ProjectNode(const PlanNode& plan, std::unique_ptr<ExecNode> child,
              ExecContext* ctx)
      : plan_(plan), child_(std::move(child)), stats_("Project", ctx) {
    // An input column that exactly one projection references, as a bare
    // column reference, moves to the output instead of being copied.
    std::vector<int> refs;
    for (const auto& proj : plan_.projections) CollectColumnRefs(*proj, &refs);
    move_from_.assign(plan_.projections.size(), -1);
    for (size_t p = 0; p < plan_.projections.size(); ++p) {
      const BoundExpr& e = *plan_.projections[p];
      if (e.kind == BoundExprKind::kColumnRef &&
          std::count(refs.begin(), refs.end(), e.col_idx) == 1) {
        move_from_[p] = e.col_idx;
      }
    }
  }

  Status Init() override {
    return child_ ? child_->Init() : Status::OK();
  }

  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    out->columns.clear();
    DataChunk in;
    bool child_done = false;
    if (child_) {
      QY_RETURN_IF_ERROR(child_->Next(&in, &child_done));
      if (child_done) {
        *done = true;
        return Status::OK();
      }
    } else {
      // SELECT of constants: synthesize exactly one dummy row once.
      if (emitted_dual_) {
        *done = true;
        return Status::OK();
      }
      emitted_dual_ = true;
      in.columns.emplace_back(DataType::kBigInt);
      in.columns[0].AppendBigInt(0);
    }
    *done = false;
    size_t n = plan_.projections.size();
    auto moves = [&](size_t p) {
      int from = move_from_[p];
      return from >= 0 && in.columns[from].type() == plan_.projections[p]->type;
    };
    out->columns.resize(n);
    for (size_t p = 0; p < n; ++p) {
      if (moves(p)) continue;
      QY_RETURN_IF_ERROR(plan_.projections[p]->Evaluate(in, &out->columns[p]));
    }
    // Moves go last: evaluation reads the row count off the input columns.
    for (size_t p = 0; p < n; ++p) {
      if (moves(p)) out->columns[p] = std::move(in.columns[move_from_[p]]);
    }
    stats_.rows_out += out->NumRows();
    return Status::OK();
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<ExecNode> child_;
  NodeStats stats_;
  bool emitted_dual_ = false;
  std::vector<int> move_from_;  ///< per projection: input column moved, or -1
};

// ---------------------------------------------------------------------------
// Limit
// ---------------------------------------------------------------------------

class LimitNode : public ExecNode {
 public:
  LimitNode(const PlanNode& plan, std::unique_ptr<ExecNode> child)
      : remaining_(plan.limit), child_(std::move(child)) {}

  Status Init() override { return child_->Init(); }

  Status Next(DataChunk* out, bool* done) override {
    out->columns.clear();
    if (remaining_ <= 0) {
      *done = true;
      return Status::OK();
    }
    bool child_done = false;
    QY_RETURN_IF_ERROR(child_->Next(out, &child_done));
    if (child_done) {
      *done = true;
      return Status::OK();
    }
    *done = false;
    int64_t rows = static_cast<int64_t>(out->NumRows());
    if (rows > remaining_) {
      // Truncate chunk to the remaining row budget.
      DataChunk truncated;
      for (const auto& col : out->columns) {
        truncated.columns.emplace_back(col.type());
      }
      for (size_t c = 0; c < out->columns.size(); ++c) {
        truncated.columns[c].AppendRange(out->columns[c], 0,
                                         static_cast<size_t>(remaining_));
      }
      *out = std::move(truncated);
      remaining_ = 0;
    } else {
      remaining_ -= rows;
    }
    return Status::OK();
  }

 private:
  int64_t remaining_;
  std::unique_ptr<ExecNode> child_;
};

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

class SortNode : public ExecNode {
 public:
  SortNode(const PlanNode& plan, std::unique_ptr<ExecNode> child,
           ExecContext* ctx)
      : plan_(plan), child_(std::move(child)), ctx_(ctx),
        reservation_(ctx->tracker), stats_("Sort", ctx) {}

  Status Init() override {
    ScopedTimer timer(&stats_.seconds);
    QY_RETURN_IF_ERROR(child_->Init());
    // Materialize input.
    DataChunk all;
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      DataChunk in;
      bool child_done = false;
      QY_RETURN_IF_ERROR(child_->Next(&in, &child_done));
      if (child_done) break;
      if (all.columns.empty()) {
        for (const auto& col : in.columns) {
          all.columns.emplace_back(col.type());
        }
      }
      QY_RETURN_IF_ERROR(reservation_.Reserve(in.ApproxBytes()));
      for (size_t c = 0; c < in.columns.size(); ++c) {
        all.columns[c].AppendRange(in.columns[c], 0, in.NumRows());
      }
    }
    size_t n = all.NumRows();
    // Evaluate sort keys over the full materialized input.
    std::vector<ColumnVector> keys(plan_.sort_keys.size());
    if (n > 0) {
      for (size_t k = 0; k < plan_.sort_keys.size(); ++k) {
        QY_RETURN_IF_ERROR(plan_.sort_keys[k].expr->Evaluate(all, &keys[k]));
      }
    }
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       for (size_t k = 0; k < keys.size(); ++k) {
                         int c = keys[k].GetValue(a).Compare(keys[k].GetValue(b));
                         if (c != 0) {
                           return plan_.sort_keys[k].ascending ? c < 0 : c > 0;
                         }
                       }
                       return false;
                     });
    sorted_ = std::move(all);
    order_ = std::move(order);
    return Status::OK();
  }

  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    out->columns.clear();
    size_t n = order_.size();
    if (cursor_ >= n) {
      *done = true;
      return Status::OK();
    }
    *done = false;
    size_t count = std::min(ctx_->chunk_size, n - cursor_);
    for (size_t c = 0; c < sorted_.columns.size(); ++c) {
      out->columns.emplace_back(sorted_.columns[c].type());
      out->columns[c].AppendGather(sorted_.columns[c], order_.data() + cursor_,
                                   count);
    }
    cursor_ += count;
    stats_.rows_out += count;
    return Status::OK();
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  ScopedReservation reservation_;
  NodeStats stats_;
  DataChunk sorted_;
  std::vector<uint32_t> order_;
  size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Hash join (equi) / cross product
// ---------------------------------------------------------------------------

/// Equi-join over a flat open-addressing row table (join_hash_table.h).
///
/// Two key layouts: a single integer key (BIGINT/HUGEINT, the Qymera gate
/// join) is normalized to int128 so mixed widths compare equal; any other key
/// shape goes through the canonical binary encoding of hash_kernels.h and
/// compares by memcmp. Rows with NULL keys are dropped on both the build and
/// the probe side before they ever reach the table (SQL equi-join semantics:
/// NULL = NULL is not true), so key equality needs no null handling.
class HashJoinNode : public ExecNode {
 public:
  HashJoinNode(const PlanNode& plan, std::unique_ptr<ExecNode> left,
               std::unique_ptr<ExecNode> right, ExecContext* ctx)
      : plan_(plan), left_(std::move(left)), right_(std::move(right)),
        ctx_(ctx), reservation_(ctx->tracker), stats_("HashJoin", ctx) {}

  ~HashJoinNode() override {
    if (ctx_->profile != nullptr && probe_rows_.load() > 0) {
      ctx_->profile->Record("HashJoinProbe", probe_rows_.load(), 0.0);
    }
  }

  Status Init() override {
    ScopedTimer timer(&stats_.seconds);
    QY_RETURN_IF_ERROR(left_->Init());
    QY_RETURN_IF_ERROR(right_->Init());
    // Build phase: materialize right side.
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      DataChunk in;
      bool child_done = false;
      QY_RETURN_IF_ERROR(right_->Next(&in, &child_done));
      if (child_done) break;
      if (build_.columns.empty()) {
        for (const auto& col : in.columns) {
          build_.columns.emplace_back(col.type());
        }
      }
      uint64_t requested = in.ApproxBytes() + 64;
      Status reserve = reservation_.Reserve(requested);
      if (!reserve.ok()) {
        // Drop the partially materialized build side and give the budget
        // back before failing, so the error does not leave the tracker
        // charged for data that will never be probed.
        uint64_t held = reservation_.held();
        uint64_t rows = build_.NumRows();
        build_ = DataChunk();
        reservation_.ReleaseAll();
        return Status::OutOfMemory(
            "hash join build side exceeds memory budget: requested " +
            std::to_string(requested) + " more bytes with " +
            std::to_string(held) + " bytes already held (" +
            std::to_string(rows) +
            " rows materialized); Qymera gate tables are expected to be "
            "small");
      }
      for (size_t c = 0; c < in.columns.size(); ++c) {
        build_.columns[c].AppendRange(in.columns[c], 0, in.NumRows());
      }
    }
    if (build_.columns.empty()) {
      for (const auto& col : plan_.children[1]->output_schema.columns()) {
        build_.columns.emplace_back(col.type);
      }
    }
    size_t n = build_.NumRows();
    if (!plan_.right_keys.empty()) {
      use_fast_key_ = plan_.right_keys.size() == 1 &&
                      IsInteger(plan_.right_keys[0]->type);
      // Reset even for an empty build side: probing consults the slot
      // arrays, which must exist (at minimum capacity) to report no match.
      table_.Reset(n);
    }
    if (!plan_.right_keys.empty() && n > 0) {
      std::vector<ColumnVector> keys(plan_.right_keys.size());
      for (size_t k = 0; k < plan_.right_keys.size(); ++k) {
        QY_RETURN_IF_ERROR(plan_.right_keys[k]->Evaluate(build_, &keys[k]));
      }
      if (use_fast_key_) {
        const ColumnVector& kc = keys[0];
        NormalizeIntKeyColumn(kc, &build_int_keys_);
        std::vector<uint64_t> hashes;
        HashIntKeyColumn(kc, build_int_keys_, &hashes);
        for (size_t r = 0; r < n; ++r) {
          if (kc.IsNull(r)) continue;  // NULL keys never match
          int128_t key = build_int_keys_[r];
          table_.Insert(hashes[r], static_cast<uint32_t>(r),
                        [&](uint32_t head) {
                          return build_int_keys_[head] == key;
                        });
        }
      } else {
        EncodeKeyRows(keys, n, &build_enc_);
        std::vector<uint64_t> hashes;
        HashEncodedRows(build_enc_, &hashes);
        for (size_t r = 0; r < n; ++r) {
          if (AnyKeyNull(keys, r)) continue;  // NULL keys never match
          const char* key = build_enc_.RowPtr(r);
          size_t len = build_enc_.RowLen(r);
          table_.Insert(hashes[r], static_cast<uint32_t>(r),
                        [&](uint32_t head) {
                          return build_enc_.RowEquals(head, key, len);
                        });
        }
      }
    }
    if (table_.num_keys() > 0) {
      // Capped, so a skewed build side cannot make every probe chunk reserve
      // its worst case.
      rows_per_key_ = std::min<size_t>(
          (n + table_.num_keys() - 1) / table_.num_keys(), 16);
    }
    if (ctx_->profile != nullptr) {
      ctx_->profile->Record("HashJoinBuild", n, 0.0);
    }
    // Morsel-driven parallel probe: enabled for equi-joins when a pool is
    // available. When the probe child is a bare table scan the workers pull
    // row-range morsels straight from the table; otherwise chunks are pulled
    // serially from the child and only probed in parallel.
    parallel_ = ctx_->pool != nullptr && ctx_->num_threads > 1 &&
                !plan_.right_keys.empty();
    if (parallel_ && plan_.children[0]->kind == PlanNode::Kind::kScan) {
      scan_source_ = plan_.children[0]->table;
      if (scan_source_->NumRows() <= ctx_->chunk_size) {
        parallel_ = false;  // a single morsel parallelizes nothing
        scan_source_ = nullptr;
      }
    }
    return Status::OK();
  }

  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    out->columns.clear();
    if (parallel_) return NextParallel(out, done);
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      DataChunk probe;
      bool child_done = false;
      QY_RETURN_IF_ERROR(left_->Next(&probe, &child_done));
      if (child_done) {
        *done = true;
        return Status::OK();
      }
      if (probe.NumRows() == 0) continue;
      DataChunk joined;
      QY_RETURN_IF_ERROR(ProbeAndFilter(probe, &joined));
      if (joined.NumRows() > 0) {
        stats_.rows_out += joined.NumRows();
        *out = std::move(joined);
        *done = false;
        return Status::OK();
      }
    }
  }

 private:
  static bool AnyKeyNull(const std::vector<ColumnVector>& keys, size_t r) {
    for (const auto& kc : keys) {
      if (kc.IsNull(r)) return true;
    }
    return false;
  }

  /// Probe one chunk and apply the residual predicate. Thread-safe after
  /// Init(): reads only the shared immutable build state.
  Status ProbeAndFilter(const DataChunk& probe, DataChunk* out) const {
    DataChunk joined;
    QY_RETURN_IF_ERROR(ProbeChunk(probe, &joined));
    if (plan_.residual && joined.NumRows() > 0) {
      ColumnVector mask;
      QY_RETURN_IF_ERROR(plan_.residual->Evaluate(joined, &mask));
      std::vector<uint32_t> sel;
      FilterRows(mask, &sel, &joined);
    }
    *out = std::move(joined);
    return Status::OK();
  }

  /// Parallel probe with ordered emission: each round dispatches a bounded
  /// batch of morsels to the pool, then emits the per-morsel outputs in
  /// morsel order. Output is therefore byte-identical to the serial path at
  /// any thread count, and the in-flight footprint stays bounded by the
  /// batch size (no full materialization of the join output).
  Status NextParallel(DataChunk* out, bool* done) {
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      if (ready_pos_ < ready_.size()) {
        DataChunk chunk = std::move(ready_[ready_pos_++]);
        if (chunk.NumRows() == 0) continue;
        stats_.rows_out += chunk.NumRows();
        *out = std::move(chunk);
        *done = false;
        return Status::OK();
      }
      ready_.clear();
      ready_pos_ = 0;
      bool exhausted = false;
      QY_RETURN_IF_ERROR(FillBatch(&exhausted));
      if (exhausted && ready_.empty()) {
        *done = true;
        return Status::OK();
      }
    }
  }

  Status FillBatch(bool* exhausted) {
    const size_t batch = ctx_->num_threads * 4;
    struct MorselRange {
      uint64_t offset;
      uint64_t count;
    };
    std::vector<MorselRange> morsels;
    std::vector<std::shared_ptr<DataChunk>> pulled;
    if (scan_source_ != nullptr) {
      uint64_t total = scan_source_->NumRows();
      while (morsels.size() < batch && scan_offset_ < total) {
        uint64_t count =
            std::min<uint64_t>(ctx_->chunk_size, total - scan_offset_);
        morsels.push_back({scan_offset_, count});
        scan_offset_ += count;
      }
    } else {
      while (pulled.size() < batch) {
        QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
        auto in = std::make_shared<DataChunk>();
        bool child_done = false;
        QY_RETURN_IF_ERROR(left_->Next(in.get(), &child_done));
        if (child_done) break;
        if (in->NumRows() == 0) continue;
        pulled.push_back(std::move(in));
      }
    }
    size_t n = scan_source_ != nullptr ? morsels.size() : pulled.size();
    if (n == 0) {
      *exhausted = true;
      return Status::OK();
    }
    ready_.assign(n, DataChunk());
    TaskGroup group(ctx_->pool, ctx_->query);
    for (size_t i = 0; i < n; ++i) {
      group.Spawn([this, i, &morsels, &pulled]() -> Status {
        QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
        DataChunk probe;
        if (scan_source_ != nullptr) {
          MaterializeRange(*scan_source_, morsels[i].offset, morsels[i].count,
                           &probe);
        } else {
          probe = std::move(*pulled[i]);
        }
        return ProbeAndFilter(probe, &ready_[i]);
      });
    }
    *exhausted = false;
    return group.Wait();
  }

  /// Match a probe chunk against the build table into parallel selection
  /// vectors (probe row index, build row index), in probe-row order with each
  /// probe row's matches in build insertion order, then gather every output
  /// column in bulk. Thread-safe: all scratch is local, the table and key
  /// stores are immutable after Init().
  Status ProbeChunk(const DataChunk& probe, DataChunk* out) const {
    size_t left_cols = probe.columns.size();
    size_t right_cols = build_.columns.size();
    out->columns.clear();
    for (const auto& col : probe.columns) {
      out->columns.emplace_back(col.type());
    }
    for (const auto& col : build_.columns) {
      out->columns.emplace_back(col.type());
    }
    size_t n = probe.NumRows();
    std::vector<uint32_t> probe_sel;
    std::vector<uint32_t> build_sel;
    if (plan_.right_keys.empty()) {
      // Cross product.
      size_t build_rows = build_.NumRows();
      probe_sel.reserve(n * build_rows);
      build_sel.reserve(n * build_rows);
      for (size_t r = 0; r < n; ++r) {
        for (uint32_t b = 0; b < build_rows; ++b) {
          probe_sel.push_back(static_cast<uint32_t>(r));
          build_sel.push_back(b);
        }
      }
    } else {
      // A probe row matches about the build side's rows per key.
      probe_sel.reserve(n * rows_per_key_);
      build_sel.reserve(n * rows_per_key_);
      std::vector<ColumnVector> keys(plan_.left_keys.size());
      for (size_t k = 0; k < plan_.left_keys.size(); ++k) {
        QY_RETURN_IF_ERROR(plan_.left_keys[k]->Evaluate(probe, &keys[k]));
      }
      auto match = [&](size_t r, uint32_t b) {
        probe_sel.push_back(static_cast<uint32_t>(r));
        build_sel.push_back(b);
      };
      if (use_fast_key_) {
        const ColumnVector& kc = keys[0];
        // The probe key may bind as BIGINT while build is HUGEINT (or vice
        // versa); normalizing to int128 makes mixed widths compare equal.
        std::vector<int128_t> values;
        NormalizeIntKeyColumn(kc, &values);
        std::vector<uint64_t> hashes;
        HashIntKeyColumn(kc, values, &hashes);
        for (size_t r = 0; r < n; ++r) {
          if (kc.IsNull(r)) continue;  // NULL keys never match
          int128_t key = values[r];
          table_.ForEachMatch(
              hashes[r],
              [&](uint32_t head) { return build_int_keys_[head] == key; },
              [&](uint32_t b) { match(r, b); });
        }
      } else {
        EncodedKeyRows enc;
        EncodeKeyRows(keys, n, &enc);
        std::vector<uint64_t> hashes;
        HashEncodedRows(enc, &hashes);
        for (size_t r = 0; r < n; ++r) {
          if (AnyKeyNull(keys, r)) continue;  // NULL keys never match
          const char* key = enc.RowPtr(r);
          size_t len = enc.RowLen(r);
          table_.ForEachMatch(
              hashes[r],
              [&](uint32_t head) {
                return build_enc_.RowEquals(head, key, len);
              },
              [&](uint32_t b) { match(r, b); });
        }
      }
    }
    probe_rows_ += n;
    if (probe_sel.empty()) return Status::OK();
    for (size_t c = 0; c < left_cols; ++c) {
      out->columns[c].AppendGather(probe.columns[c], probe_sel.data(),
                                   probe_sel.size());
    }
    for (size_t c = 0; c < right_cols; ++c) {
      out->columns[left_cols + c].AppendGather(
          build_.columns[c], build_sel.data(), build_sel.size());
    }
    return Status::OK();
  }

  const PlanNode& plan_;
  std::unique_ptr<ExecNode> left_, right_;
  ExecContext* ctx_;
  ScopedReservation reservation_;
  NodeStats stats_;
  DataChunk build_;
  bool use_fast_key_ = false;
  JoinRowTable table_;
  size_t rows_per_key_ = 0;  ///< selection reservation per probe row
  std::vector<int128_t> build_int_keys_;  ///< fast path: key of each build row
  EncodedKeyRows build_enc_;              ///< generic path: encoded key rows
  mutable std::atomic<uint64_t> probe_rows_{0};
  // Parallel probe state.
  bool parallel_ = false;
  const Table* scan_source_ = nullptr;  ///< morsel source when probe is a scan
  uint64_t scan_offset_ = 0;
  std::vector<DataChunk> ready_;  ///< current batch outputs, emitted in order
  size_t ready_pos_ = 0;
};

}  // namespace

// Defined in exec_agg.cc.
Result<std::unique_ptr<ExecNode>> CreateHashAggNode(
    const PlanNode& plan, std::unique_ptr<ExecNode> child, ExecContext* ctx);

Result<std::unique_ptr<ExecNode>> CreateExecNode(const PlanNode& plan,
                                                 ExecContext* ctx) {
  switch (plan.kind) {
    case PlanNode::Kind::kScan:
      return std::unique_ptr<ExecNode>(new ScanNode(plan, ctx));
    case PlanNode::Kind::kFilter: {
      QY_ASSIGN_OR_RETURN(auto child, CreateExecNode(*plan.children[0], ctx));
      return std::unique_ptr<ExecNode>(
          new FilterNode(plan, std::move(child), ctx));
    }
    case PlanNode::Kind::kProject: {
      std::unique_ptr<ExecNode> child;
      if (!plan.children.empty() && plan.children[0]) {
        QY_ASSIGN_OR_RETURN(child, CreateExecNode(*plan.children[0], ctx));
      }
      return std::unique_ptr<ExecNode>(
          new ProjectNode(plan, std::move(child), ctx));
    }
    case PlanNode::Kind::kJoin: {
      QY_ASSIGN_OR_RETURN(auto left, CreateExecNode(*plan.children[0], ctx));
      QY_ASSIGN_OR_RETURN(auto right, CreateExecNode(*plan.children[1], ctx));
      return std::unique_ptr<ExecNode>(
          new HashJoinNode(plan, std::move(left), std::move(right), ctx));
    }
    case PlanNode::Kind::kAggregate: {
      QY_ASSIGN_OR_RETURN(auto child, CreateExecNode(*plan.children[0], ctx));
      return CreateHashAggNode(plan, std::move(child), ctx);
    }
    case PlanNode::Kind::kSort: {
      QY_ASSIGN_OR_RETURN(auto child, CreateExecNode(*plan.children[0], ctx));
      return std::unique_ptr<ExecNode>(
          new SortNode(plan, std::move(child), ctx));
    }
    case PlanNode::Kind::kLimit: {
      QY_ASSIGN_OR_RETURN(auto child, CreateExecNode(*plan.children[0], ctx));
      return std::unique_ptr<ExecNode>(new LimitNode(plan, std::move(child)));
    }
  }
  return Status::Internal("unhandled plan node kind");
}

Status ExecutePlan(const PlanNode& plan, ExecContext* ctx, Table* sink) {
  QY_ASSIGN_OR_RETURN(auto root, CreateExecNode(plan, ctx));
  QY_RETURN_IF_ERROR(root->Init());
  while (true) {
    QY_RETURN_IF_ERROR(ctx->CheckInterrupt());
    DataChunk chunk;
    bool done = false;
    QY_RETURN_IF_ERROR(root->Next(&chunk, &done));
    if (done) break;
    if (chunk.NumRows() > 0) {
      QY_RETURN_IF_ERROR(sink->AppendChunk(chunk));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

std::string PlanNode::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string line = pad;
  switch (kind) {
    case Kind::kScan:
      line += "Scan " + (table ? table->name() : std::string("?")) + " [" +
              output_schema.ToString() + "]";
      break;
    case Kind::kJoin:
      line += "HashJoin keys=" + std::to_string(left_keys.size()) +
              (residual ? " +residual" : "");
      break;
    case Kind::kFilter:
      line += "Filter";
      break;
    case Kind::kProject:
      line += "Project [" + output_schema.ToString() + "]";
      break;
    case Kind::kAggregate:
      line += "HashAggregate keys=" + std::to_string(group_keys.size()) +
              " aggs=" + std::to_string(aggs.size());
      break;
    case Kind::kSort:
      line += "Sort keys=" + std::to_string(sort_keys.size());
      break;
    case Kind::kLimit:
      line += "Limit " + std::to_string(limit);
      break;
  }
  line += "\n";
  for (const auto& child : children) {
    if (child) line += child->ToString(indent + 1);
  }
  return line;
}

}  // namespace qy::sql
