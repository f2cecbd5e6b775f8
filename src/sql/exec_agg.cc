/// \file exec_agg.cc
/// Hash aggregation with partitioned disk spill.
///
/// A pass folds its input into an in-memory group table. When the table
/// outgrows the memory budget (MemoryTracker), every group's partial state
/// is written to one of 16 hash partitions on disk and the table starts
/// over; this repeats as needed. A pass that spilled ends by writing its
/// remaining groups too, and each partition is then merged back by the same
/// pass over its records, routed one level of hash bits deeper (partial
/// aggregate states are algebraic: SUM/COUNT/MIN/MAX combine, AVG =
/// sum+count), spilling again if it still does not fit. This mirrors classic
/// Grace/hybrid hash aggregation and is the mechanism behind Qymera's
/// out-of-core simulation (paper Sec. 3.3).
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>

#include "sql/executor.h"
#include "sql/hash_kernels.h"
#include "sql/join_hash_table.h"
#include "sql/spill.h"

namespace qy::sql {

namespace {

constexpr int kNumPartitions = 16;
constexpr int kMaxDepth = 4;

/// Row `i` of a BIGINT or HUGEINT key column, widened to 128 bits (0 for a
/// NULL row, whose payload slot holds the zero default).
int128_t IntKeyAt(const ColumnVector& col, size_t i) {
  return col.type() == DataType::kBigInt
             ? static_cast<int128_t>(col.i64_data()[i])
             : col.i128_data()[i];
}

/// The partial states of one aggregate, as parallel arrays indexed by group
/// id. Only the arrays the function needs are filled; the rest stay empty:
///
///   COUNT(*), COUNT   count
///   SUM(DOUBLE)       f64, has
///   SUM(integer)      i128, has
///   AVG               f64, count   (a group has input iff count > 0)
///   MIN, MAX          minmax       (NULL until the first non-NULL input)
///
/// A spill record still carries every field, the unused ones as zero, so
/// its layout does not depend on the function.
struct AggStates {
  explicit AggStates(const BoundAggSpec& spec)
      : func(spec.func), result_type(spec.result_type) {
    bool sum = func == AggFunc::kSum;
    uses_f64 = (sum && spec.result_type == DataType::kDouble) ||
               func == AggFunc::kAvg;
    uses_i128 = sum && !uses_f64;
    uses_count = func == AggFunc::kCountStar || func == AggFunc::kCount ||
                 func == AggFunc::kAvg;
    uses_has = sum;
    uses_minmax = func == AggFunc::kMin || func == AggFunc::kMax;
  }

  void Resize(size_t groups) {
    if (uses_f64) f64.resize(groups);
    if (uses_i128) i128.resize(groups);
    if (uses_count) count.resize(groups);
    if (uses_has) has.resize(groups);
    if (uses_minmax) minmax.resize(groups);
  }

  uint64_t BytesPerGroup() const {
    return (uses_f64 ? sizeof(double) : 0) +
           (uses_i128 ? sizeof(int128_t) : 0) +
           (uses_count ? sizeof(int64_t) : 0) + (uses_has ? 1 : 0) +
           (uses_minmax ? sizeof(Value) : 0);
  }

  /// Whether group `g` has seen a non-NULL input (never for COUNT).
  bool Has(uint32_t g) const {
    if (uses_has) return has[g] != 0;
    if (uses_minmax) return !minmax[g].is_null();
    return func == AggFunc::kAvg && count[g] > 0;
  }

  /// Fold a non-NULL value into group `g`'s MIN/MAX.
  void FoldMinMax(uint32_t g, const Value& v) {
    Value& cur = minmax[g];
    if (cur.is_null()) {
      cur = v;
      return;
    }
    int c = v.Compare(cur);
    if ((func == AggFunc::kMin && c < 0) || (func == AggFunc::kMax && c > 0)) {
      cur = v;
    }
  }

  /// SUM/AVG over a numeric argument. Rows are applied in order, so each
  /// group's floating-point accumulation order is the input order.
  template <typename T>
  void Accumulate(const uint32_t* groups, const ColumnVector& arg,
                  const T* v, size_t n) {
    for (size_t r = 0; r < n; ++r) {
      if (arg.IsNull(r)) continue;
      uint32_t g = groups[r];
      if (uses_f64) f64[g] += static_cast<double>(v[r]);
      if (uses_i128) i128[g] += static_cast<int128_t>(v[r]);
      if (uses_count) ++count[g];
      if (uses_has) has[g] = 1;
    }
  }

  /// Fold row `r` of `src`, a partial state of the same aggregate, into
  /// group `g`.
  void MergeRow(uint32_t g, const AggStates& src, size_t r) {
    if (uses_f64) f64[g] += src.f64[r];
    if (uses_i128) i128[g] += src.i128[r];
    if (uses_count) count[g] += src.count[r];
    if (uses_has) has[g] |= src.has[r];
    if (uses_minmax && !src.minmax[r].is_null()) FoldMinMax(g, src.minmax[r]);
  }

  /// Append group `g`'s spill fields: has, f64, i128, count, then the
  /// MIN/MAX value.
  void Serialize(uint32_t g, std::string* buf) const {
    double f = uses_f64 ? f64[g] : 0;
    int128_t i = uses_i128 ? i128[g] : 0;
    int64_t c = uses_count ? count[g] : 0;
    buf->push_back(Has(g) ? 1 : 0);
    buf->append(reinterpret_cast<const char*>(&f), sizeof(double));
    buf->append(reinterpret_cast<const char*>(&i), sizeof(int128_t));
    buf->append(reinterpret_cast<const char*>(&c), sizeof(int64_t));
    if (uses_minmax) SerializeRawValue(minmax[g], buf);
  }

  /// Read the fields Serialize wrote into row `r`.
  Status Deserialize(ByteReader* reader, size_t r) {
    uint8_t h = 0;
    double f = 0;
    int128_t i = 0;
    int64_t c = 0;
    QY_RETURN_IF_ERROR(reader->ReadBytes(&h, 1));
    QY_RETURN_IF_ERROR(reader->ReadBytes(&f, sizeof(double)));
    QY_RETURN_IF_ERROR(reader->ReadBytes(&i, sizeof(int128_t)));
    QY_RETURN_IF_ERROR(reader->ReadBytes(&c, sizeof(int64_t)));
    if (uses_f64) f64[r] = f;
    if (uses_i128) i128[r] = i;
    if (uses_count) count[r] = c;
    if (uses_has) has[r] = h != 0 ? 1 : 0;
    if (uses_minmax) return reader->ReadValue(result_type, &minmax[r]);
    return Status::OK();
  }

  AggFunc func;
  DataType result_type;
  bool uses_f64 = false;
  bool uses_i128 = false;
  bool uses_count = false;
  bool uses_has = false;
  bool uses_minmax = false;
  std::vector<double> f64;
  std::vector<int128_t> i128;
  std::vector<int64_t> count;
  std::vector<uint8_t> has;
  std::vector<Value> minmax;
};

/// Groups as columns: the key columns plus one AggStates per aggregate, all
/// indexed by row. A group table holds its groups in this shape and a batch
/// of spill records decodes into it, so both merge through
/// GroupTable::Merge.
struct GroupRows {
  explicit GroupRows(const PlanNode& plan) {
    for (const auto& k : plan.group_keys) keys.emplace_back(k->type);
    for (const auto& spec : plan.aggs) states.emplace_back(spec);
  }

  /// Size every state array to `n` rows (new rows start zeroed, with
  /// MIN/MAX NULL). Key columns are appended by the caller.
  void Resize(size_t n) {
    for (auto& st : states) st.Resize(n);
    num_rows = n;
  }

  void Clear() {
    for (auto& col : keys) col.Clear();
    Resize(0);
  }

  /// Append row `r` as one spill record: each key in SerializeValue format,
  /// then each aggregate's fields.
  void Serialize(uint32_t r, std::string* buf) const {
    for (const auto& col : keys) SerializeValue(col, r, buf);
    for (const AggStates& st : states) st.Serialize(r, buf);
  }

  /// Decode one spill record into a new row.
  Status AppendRecord(const std::string& record) {
    ByteReader reader(record.data(), record.size());
    for (auto& col : keys) QY_RETURN_IF_ERROR(reader.ReadInto(&col));
    Resize(num_rows + 1);
    for (auto& st : states) {
      QY_RETURN_IF_ERROR(st.Deserialize(&reader, num_rows - 1));
    }
    return Status::OK();
  }

  std::vector<ColumnVector> keys;
  std::vector<AggStates> states;
  size_t num_rows = 0;
};

/// An in-memory group table: a key -> group-id map (dense group ids in
/// first-seen order) + the groups' keys and states as GroupRows. Group ids
/// are assigned in input order, so output order is independent of the map
/// and of the hash function — a prerequisite for byte-identical results
/// across versions.
///
/// Keys map through a flat open-addressing index, except that a single
/// BIGINT/HUGEINT key may instead use direct slots: one group id per key
/// value in the observed range [lo, hi], plus one id for the NULL group.
/// A dense state index (0..2^k-1) then takes one subtraction and one load
/// per row, with no hash, probe or rehash. The slots never hold more bytes
/// than the flat index would for the same groups (MaxSlots; the empty flat
/// index stays beside them):
///   (hi - lo + 1) * 4 B + 16 * 13 B <= CapacityHolding(groups) * 13 B.
/// Before each batch of n rows the range is widened by the batch's keys and
/// the slots are chosen while they fit groups + n, so a dense index moves to
/// them as soon as the batch could fill its range. A batch that leaves fewer
/// groups than the slots need moves the table to the flat index, and from
/// then on only the groups it holds count.
class GroupTable {
 public:
  explicit GroupTable(const PlanNode& plan)
      : rows_(plan),
        scalar_(plan.group_keys.empty()),
        fast_(plan.group_keys.size() == 1 &&
              IsInteger(plan.group_keys[0]->type)) {
    key_offsets_.push_back(0);
  }

  const GroupRows& rows() const { return rows_; }
  size_t NumGroups() const { return rows_.num_rows; }

  /// Memory estimate over every array the table holds: the key columns, the
  /// index slots, the direct slots, the generic path's encoded keys and
  /// offsets, and the state arrays.
  uint64_t ApproxBytes() const {
    uint64_t bytes = index_.ApproxBytes() + slots_.size() * sizeof(uint32_t) +
                     key_bytes_.size() +
                     key_offsets_.size() * sizeof(uint32_t);
    for (const auto& col : rows_.keys) bytes += col.ApproxBytes();
    for (const auto& st : rows_.states) {
      bytes += NumGroups() * st.BytesPerGroup();
    }
    return bytes;
  }

  /// Ensure the scalar (no GROUP BY) group exists.
  void EnsureScalarGroup() {
    if (scalar_ && NumGroups() == 0) rows_.Resize(1);
  }

  /// Hash rows [0, n) of `keys` the way the index files them: a single
  /// integer key directly (NULL under kIntNullKeyHash), other keys over
  /// their canonical encoding, which stays in scratch for the lookup. Spill
  /// routing takes its bits from these same hashes.
  const std::vector<uint64_t>& HashKeys(const std::vector<ColumnVector>& keys,
                                        size_t n) {
    if (scalar_) {
      scratch_hashes_.assign(n, 0);
    } else if (fast_) {
      NormalizeIntKeyColumn(keys[0], &scratch_values_);
      HashIntKeyColumn(keys[0], scratch_values_, &scratch_hashes_);
    } else {
      EncodeKeyRows(keys, n, &scratch_enc_);
      HashEncodedRows(scratch_enc_, &scratch_hashes_);
    }
    return scratch_hashes_;
  }

  /// Find-or-create group ids for rows [0, n) of `keys`: either one direct
  /// slot per row, or the whole batch is hashed/encoded up front (one type
  /// switch per column) and each row does one flat-table lookup. Group ids
  /// are assigned in row order, so first-seen output order is preserved
  /// exactly.
  void GroupIndices(const std::vector<ColumnVector>& keys, size_t n,
                    std::vector<uint32_t>* groups) {
    groups->resize(n);
    if (scalar_) {
      EnsureScalarGroup();
      std::fill(groups->begin(), groups->end(), 0u);
      return;
    }
    if (fast_) {
      NormalizeIntKeyColumn(keys[0], &scratch_values_);
      if (ChooseSlots(keys[0], n)) {
        SlotIndices(keys[0], n, groups->data());
        if (slots_.size() > MaxSlots(NumGroups())) {
          overran_ = true;
          use_slots_ = false;
          BuildFlatIndex();
        }
        return;
      }
    }
    const std::vector<uint64_t>& hashes = HashKeys(keys, n);
    const ColumnVector& stored = rows_.keys[0];
    if (fast_) {
      const ColumnVector& kc = keys[0];
      for (size_t r = 0; r < n; ++r) {
        bool is_null = kc.IsNull(r);
        int128_t key = is_null ? 0 : scratch_values_[r];
        bool inserted = false;
        uint32_t id = index_.FindOrInsert(
            hashes[r], static_cast<uint32_t>(stored.size()),
            [&](uint32_t g) {
              return stored.IsNull(g) == is_null && IntKeyAt(stored, g) == key;
            },
            &inserted);
        if (inserted) AppendKey(keys, r);
        (*groups)[r] = id;
      }
      rows_.Resize(stored.size());
      return;
    }
    for (size_t r = 0; r < n; ++r) {
      const char* key = scratch_enc_.RowPtr(r);
      size_t len = scratch_enc_.RowLen(r);
      bool inserted = false;
      uint32_t id = index_.FindOrInsert(
          hashes[r], static_cast<uint32_t>(stored.size()),
          [&](uint32_t g) { return GroupKeyEquals(g, key, len); }, &inserted);
      if (inserted) {
        key_bytes_.append(key, len);
        key_offsets_.push_back(static_cast<uint32_t>(key_bytes_.size()));
        AppendKey(keys, r);
      }
      (*groups)[r] = id;
    }
    rows_.Resize(stored.size());
  }

  /// Update aggregate `agg` from a whole chunk: the function/type dispatch is
  /// hoisted out of the row loop.
  void UpdateColumn(size_t agg, const std::vector<uint32_t>& groups,
                    const ColumnVector* arg, size_t n) {
    AggStates& st = rows_.states[agg];
    const uint32_t* gs = groups.data();
    switch (st.func) {
      case AggFunc::kCountStar:
        for (size_t r = 0; r < n; ++r) ++st.count[gs[r]];
        break;
      case AggFunc::kCount:
        for (size_t r = 0; r < n; ++r) {
          if (!arg->IsNull(r)) ++st.count[gs[r]];
        }
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        switch (arg->type()) {
          case DataType::kDouble:
            st.Accumulate(gs, *arg, arg->f64_data().data(), n);
            break;
          case DataType::kBigInt:
            st.Accumulate(gs, *arg, arg->i64_data().data(), n);
            break;
          case DataType::kHugeInt:
            st.Accumulate(gs, *arg, arg->i128_data().data(), n);
            break;
          case DataType::kBool:
            st.Accumulate(gs, *arg, arg->bool_data().data(), n);
            break;
          case DataType::kVarchar:
            break;  // SUM never binds a VARCHAR argument; AVG stays NULL
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        for (size_t r = 0; r < n; ++r) {
          if (!arg->IsNull(r)) st.FoldMinMax(gs[r], arg->GetValue(r));
        }
        break;
    }
  }

  /// Fold one input chunk in: its evaluated group keys and, per aggregate,
  /// its evaluated argument (empty for COUNT(*)).
  void Consume(const std::vector<ColumnVector>& keys,
               const std::vector<ColumnVector>& args, size_t n) {
    GroupIndices(keys, n, &scratch_groups_);
    for (size_t a = 0; a < args.size(); ++a) {
      UpdateColumn(a, scratch_groups_, &args[a], n);
    }
  }

  /// Fold partial states of the same plan in: their keys find or create
  /// groups exactly like an input chunk's, then every aggregate merges row
  /// by row, in row order.
  void Merge(const GroupRows& partial) {
    GroupIndices(partial.keys, partial.num_rows, &scratch_groups_);
    for (size_t a = 0; a < partial.states.size(); ++a) {
      AggStates& st = rows_.states[a];
      for (size_t r = 0; r < partial.num_rows; ++r) {
        st.MergeRow(scratch_groups_[r], partial.states[a], r);
      }
    }
  }

  /// Emit groups [from, from+count) as an output chunk (keys ++ agg results).
  Status EmitChunk(uint32_t from, uint32_t count, DataChunk* out) const {
    out->columns.clear();
    for (const auto& col : rows_.keys) {
      out->columns.emplace_back(col.type());
    }
    for (const auto& st : rows_.states) {
      out->columns.emplace_back(st.result_type);
    }
    size_t nk = rows_.keys.size();
    for (size_t k = 0; k < nk; ++k) {
      out->columns[k].AppendRange(rows_.keys[k], from, count);
    }
    for (size_t agg = 0; agg < rows_.states.size(); ++agg) {
      const AggStates& st = rows_.states[agg];
      ColumnVector& dst = out->columns[nk + agg];
      dst.Reserve(count);
      for (uint32_t g = from; g < from + count; ++g) {
        switch (st.func) {
          case AggFunc::kCountStar:
          case AggFunc::kCount:
            dst.AppendBigInt(st.count[g]);
            break;
          case AggFunc::kSum:
            if (!st.has[g]) {
              dst.AppendNull();
            } else if (st.uses_f64) {
              dst.AppendDouble(st.f64[g]);
            } else {
              dst.AppendHugeInt(st.i128[g]);
            }
            break;
          case AggFunc::kAvg:
            if (st.count[g] == 0) {
              dst.AppendNull();
            } else {
              dst.AppendDouble(st.f64[g] / static_cast<double>(st.count[g]));
            }
            break;
          case AggFunc::kMin:
          case AggFunc::kMax:
            QY_RETURN_IF_ERROR(dst.AppendValue(st.minmax[g]));
            break;
        }
      }
    }
    return Status::OK();
  }

  void Clear() {
    index_.Clear();
    std::vector<uint32_t>().swap(slots_);
    use_slots_ = false;
    overran_ = false;
    has_range_ = false;
    null_group_ = kFlatHashInvalid;
    key_bytes_.clear();
    key_offsets_.assign(1, 0);
    rows_.Clear();
  }

 private:
  /// Widen [lo_, hi_] by the non-NULL keys among rows [0, n) of `kc`
  /// (normalized in scratch_values_), then pick the map for this batch by
  /// the rule in the class comment. A switch rebuilds the chosen map from the
  /// stored keys; while the slots stay in use, a wider range re-bases them
  /// in place.
  bool ChooseSlots(const ColumnVector& kc, size_t n) {
    int128_t old_lo = lo_;
    bool had_range = has_range_;
    for (size_t r = 0; r < n; ++r) {
      if (kc.IsNull(r)) continue;
      int128_t v = scratch_values_[r];
      lo_ = has_range_ ? std::min(lo_, v) : v;
      hi_ = has_range_ ? std::max(hi_, v) : v;
      has_range_ = true;
    }
    // hi - lo in unsigned arithmetic is exact, even for a range of 2^128
    // values, where the span itself would wrap to 0.
    uint128_t width = has_range_ ? static_cast<uint128_t>(hi_) -
                                       static_cast<uint128_t>(lo_)
                                 : 0;
    if (has_range_ && width >= MaxSlots(NumGroups() + (overran_ ? 0 : n))) {
      if (use_slots_) BuildFlatIndex();
      use_slots_ = false;
      return false;
    }
    size_t span = has_range_ ? static_cast<size_t>(width) + 1 : 0;
    if (!use_slots_) {
      BuildSlots(span);
    } else if (span != slots_.size()) {
      // The old slot 0 (key old_lo) moves up to SlotOf(old_lo).
      slots_.insert(slots_.begin(), had_range ? SlotOf(old_lo) : 0,
                    kFlatHashInvalid);
      slots_.resize(span, kFlatHashInvalid);
    }
    use_slots_ = true;
    return true;
  }

  /// The most direct slots that take no more bytes than a flat index holding
  /// `groups` keys, less the empty index the slots keep beside them.
  static size_t MaxSlots(size_t groups) {
    return (FlatKeyIndex::CapacityHolding(groups) -
            FlatKeyIndex::kMinCapacity) *
           FlatKeyIndex::kSlotBytes / sizeof(uint32_t);
  }

  /// The slot of a non-NULL key in [lo_, hi_]. The offset is below 2^64, so
  /// the low 64 bits of the subtraction are all of it.
  size_t SlotOf(int128_t key) const {
    return static_cast<size_t>(static_cast<uint64_t>(key) -
                               static_cast<uint64_t>(lo_));
  }

  /// Slot-map the stored keys: group g's key is row g of the key column.
  void BuildSlots(size_t span) {
    index_ = FlatKeyIndex();
    slots_.assign(span, kFlatHashInvalid);
    null_group_ = kFlatHashInvalid;
    const ColumnVector& stored = rows_.keys[0];
    for (uint32_t g = 0; g < stored.size(); ++g) {
      if (stored.IsNull(g)) {
        null_group_ = g;
      } else {
        slots_[SlotOf(IntKeyAt(stored, g))] = g;
      }
    }
  }

  /// Re-file the stored keys in a fresh flat index, sized once. The keys are
  /// distinct, so ids go in in order with no equality checks.
  void BuildFlatIndex() {
    std::vector<uint32_t>().swap(slots_);
    size_t n = NumGroups();
    index_ = FlatKeyIndex();
    index_.Reserve(n);
    const std::vector<uint64_t>& hashes = HashKeys(rows_.keys, n);
    bool inserted = false;
    for (uint32_t g = 0; g < n; ++g) {
      index_.FindOrInsert(hashes[g], g, [](uint32_t) { return false; },
                          &inserted);
    }
  }

  /// GroupIndices through the direct slots, over the keys normalized in
  /// scratch_values_.
  void SlotIndices(const ColumnVector& kc, size_t n, uint32_t* groups) {
    ColumnVector& stored = rows_.keys[0];
    uint32_t next = static_cast<uint32_t>(stored.size());
    for (size_t r = 0; r < n; ++r) {
      uint32_t& id =
          kc.IsNull(r) ? null_group_ : slots_[SlotOf(scratch_values_[r])];
      if (id == kFlatHashInvalid) {
        id = next++;
        stored.AppendFrom(kc, r);
      }
      groups[r] = id;
    }
    rows_.Resize(next);
  }

  /// Compare the stored key bytes of group `g` against an encoded key row.
  bool GroupKeyEquals(uint32_t g, const char* key, size_t len) const {
    size_t off = key_offsets_[g];
    return key_offsets_[g + 1] - off == len &&
           std::memcmp(key_bytes_.data() + off, key, len) == 0;
  }

  void AppendKey(const std::vector<ColumnVector>& keys, size_t r) {
    for (size_t k = 0; k < keys.size(); ++k) {
      rows_.keys[k].AppendFrom(keys[k], r);
    }
  }

  GroupRows rows_;
  bool scalar_;
  bool fast_;
  FlatKeyIndex index_;
  // The direct slots of a single integer key, used instead of index_ while
  // use_slots_: slots_[k - lo_] is key k's group id, kFlatHashInvalid when
  // absent. [lo_, hi_] is the range of the stored non-NULL keys (if
  // has_range_), tracked under either map. overran_: a batch once left the
  // slots larger than the flat index.
  std::vector<uint32_t> slots_;
  uint32_t null_group_ = kFlatHashInvalid;
  bool use_slots_ = false;
  bool overran_ = false;
  bool has_range_ = false;
  int128_t lo_ = 0;
  int128_t hi_ = 0;
  // The index's equality checks compare against rows_.keys[0] directly on
  // the fast path, and against these encoded keys otherwise.
  std::string key_bytes_;
  std::vector<uint32_t> key_offsets_;  ///< size groups + 1
  // Per-batch scratch (GroupTable is externally synchronized).
  std::vector<int128_t> scratch_values_;
  std::vector<uint64_t> scratch_hashes_;
  EncodedKeyRows scratch_enc_;
  std::vector<uint32_t> scratch_groups_;
};

/// One spill partition: a temp file of serialized partial-state records.
struct Partition {
  std::unique_ptr<TempFile> file;
  std::unique_ptr<RecordWriter> writer;
};

class HashAggNode : public ExecNode {
 public:
  HashAggNode(const PlanNode& plan, std::unique_ptr<ExecNode> child,
              ExecContext* ctx)
      : plan_(plan), child_(std::move(child)), ctx_(ctx),
        stats_("HashAggregate", ctx), reservation_(ctx->tracker),
        table_(plan) {}

  Status Init() override {
    ScopedTimer timer(&stats_.seconds);
    QY_RETURN_IF_ERROR(child_->Init());
    table_.EnsureScalarGroup();
    bool parallel = ctx_->pool != nullptr && ctx_->num_threads > 1 &&
                    !plan_.group_keys.empty();
    QY_RETURN_IF_ERROR(parallel ? ConsumeParallel() : ConsumeSerial());
    return FinishPass(0);
  }

  /// Emit the table's groups; once they are out, merge the next pending
  /// partition into the table, until none is left.
  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    out->columns.clear();
    while (emit_cursor_ >= table_.NumGroups()) {
      table_.Clear();
      reservation_.ReleaseAll();
      emit_cursor_ = 0;
      if (pending_.empty()) {
        *done = true;
        return Status::OK();
      }
      PendingPartition part = std::move(pending_.back());
      pending_.pop_back();
      QY_RETURN_IF_ERROR(MergePartition(std::move(part)));
    }
    uint64_t left = table_.NumGroups() - emit_cursor_;
    uint32_t count =
        static_cast<uint32_t>(std::min<uint64_t>(ctx_->chunk_size, left));
    QY_RETURN_IF_ERROR(table_.EmitChunk(emit_cursor_, count, out));
    emit_cursor_ += count;
    stats_.rows_out += count;
    *done = false;
    return Status::OK();
  }

 private:
  /// A spilled partition and the depth of the pass that merges it.
  struct PendingPartition {
    std::unique_ptr<TempFile> file;
    int depth;
  };

  /// Evaluate the group keys and aggregate arguments over one input chunk
  /// (COUNT(*) leaves its argument column empty). Columns left from the
  /// previous chunk are evaluated into again, reusing their buffers.
  Status EvaluateChunk(const DataChunk& in, std::vector<ColumnVector>* keys,
                       std::vector<ColumnVector>* args) const {
    keys->resize(plan_.group_keys.size());
    args->resize(plan_.aggs.size());
    for (size_t k = 0; k < plan_.group_keys.size(); ++k) {
      QY_RETURN_IF_ERROR(plan_.group_keys[k]->Evaluate(in, &(*keys)[k]));
    }
    for (size_t a = 0; a < plan_.aggs.size(); ++a) {
      if (plan_.aggs[a].arg) {
        QY_RETURN_IF_ERROR(plan_.aggs[a].arg->Evaluate(in, &(*args)[a]));
      }
    }
    return Status::OK();
  }

  /// Serial consume: identical to the pre-parallel engine (threads=1 keeps
  /// byte-identical behavior, including floating-point accumulation order).
  Status ConsumeSerial() {
    std::vector<ColumnVector> keys;
    std::vector<ColumnVector> args;
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      DataChunk in;
      bool child_done = false;
      QY_RETURN_IF_ERROR(child_->Next(&in, &child_done));
      if (child_done) break;
      if (in.NumRows() == 0) continue;
      QY_RETURN_IF_ERROR(EvaluateChunk(in, &keys, &args));
      table_.Consume(keys, args, in.NumRows());
      QY_RETURN_IF_ERROR(ReserveOrSpill(&table_, &reservation_, 0));
    }
    return Status::OK();
  }

  /// One of the fixed partial-aggregation partitions of the parallel
  /// consume. Input chunks are assigned round-robin by arrival index and
  /// applied in that order (`next_seq` sequencing), so each partial's
  /// content — including floating-point accumulation order — is a pure
  /// function of the input stream, independent of thread count and
  /// scheduling. Workers evaluate key/argument expressions outside the lock
  /// and only serialize on the group-table update.
  struct Partial {
    Partial(const PlanNode& plan, MemoryTracker* tracker)
        : table(plan), reservation(tracker) {}
    GroupTable table;
    ScopedReservation reservation;
    std::mutex mu;
    std::condition_variable cv;
    uint64_t next_seq = 0;
  };

  /// The number of partial tables is a fixed constant (not the thread
  /// count): it determines the merge structure and therefore the result's
  /// floating-point rounding, which must not depend on --threads.
  static constexpr size_t kParallelPartials = 8;

  Status ConsumeParallel() {
    std::vector<std::unique_ptr<Partial>> partials;
    partials.reserve(kParallelPartials);
    for (size_t p = 0; p < kParallelPartials; ++p) {
      partials.push_back(std::make_unique<Partial>(plan_, ctx_->tracker));
    }
    uint64_t seqs[kParallelPartials] = {};
    TaskGroup group(ctx_->pool, ctx_->query);
    Status pull_status = Status::OK();
    size_t chunk_idx = 0;
    while (true) {
      pull_status = ctx_->CheckInterrupt();
      if (!pull_status.ok()) break;
      auto in = std::make_shared<DataChunk>();
      bool child_done = false;
      pull_status = child_->Next(in.get(), &child_done);
      if (!pull_status.ok() || child_done) break;
      if (in->NumRows() == 0) continue;
      size_t p = chunk_idx++ % kParallelPartials;
      Partial* part = partials[p].get();
      uint64_t seq = seqs[p]++;
      group.WaitUntilBelow(ctx_->num_threads * 4);
      group.Spawn([this, in, part, seq, &group]() -> Status {
        // Fallible work before the ordered section; failures are carried
        // into it so next_seq is always bumped (otherwise later chunks of
        // this partial would wait forever).
        std::vector<ColumnVector> keys;
        std::vector<ColumnVector> args;
        Status eval = EvaluateChunk(*in, &keys, &args);
        std::unique_lock<std::mutex> lock(part->mu);
        // Abort-safe ordered wait: once the group is aborted (a sibling
        // failed, or the query was cancelled), queued predecessors are
        // short-circuited by the Spawn wrapper and never bump next_seq —
        // a bare cv.wait would then block forever. Poll aborted() and bail
        // (without bumping: ordering is moot, the query is failing; the
        // other waiters exit through this same branch).
        while (part->next_seq != seq) {
          if (group.aborted()) {
            Status s = ctx_->CheckInterrupt();
            return s.ok() ? Status::Internal("aggregation aborted by sibling")
                          : s;
          }
          part->cv.wait_for(lock, std::chrono::milliseconds(1));
        }
        Status s = eval;
        if (s.ok()) {
          part->table.Consume(keys, args, in->NumRows());
          s = ReserveOrSpill(&part->table, &part->reservation, 0);
        }
        ++part->next_seq;
        part->cv.notify_all();
        return s;
      });
    }
    Status task_status = group.Wait();
    QY_RETURN_IF_ERROR(pull_status);
    QY_RETURN_IF_ERROR(task_status);
    // Merge phase (serial, fixed partial order → deterministic output).
    for (auto& part : partials) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      table_.Merge(part->table.rows());
      part->table.Clear();
      part->reservation.ReleaseAll();
      QY_RETURN_IF_ERROR(ReserveOrSpill(&table_, &reservation_, 0));
    }
    return Status::OK();
  }

  /// Grow `reservation` to what `table` now holds. When the budget refuses,
  /// spill the table at `depth` and release the reservation instead.
  Status ReserveOrSpill(GroupTable* table, ScopedReservation* reservation,
                        int depth) {
    uint64_t need = table->ApproxBytes();
    uint64_t held = reservation->held();
    if (need <= held || reservation->Reserve(need - held).ok()) {
      return Status::OK();
    }
    if (!ctx_->enable_spill || ctx_->temp_files == nullptr) {
      return Status::OutOfMemory(
          "hash aggregate exceeds memory budget and spilling is disabled (" +
          std::to_string(table->NumGroups()) + " groups)");
    }
    if (depth >= kMaxDepth) {
      return Status::OutOfMemory(
          "aggregate partition exceeds memory budget at max repartition "
          "depth");
    }
    QY_RETURN_IF_ERROR(Spill(table, depth));
    reservation->ReleaseAll();
    return Status::OK();
  }

  static int PartitionOf(uint64_t hash, int depth) {
    int shift = 60 - 4 * depth;
    if (shift < 0) shift = 0;
    return static_cast<int>((hash >> shift) & (kNumPartitions - 1));
  }

  /// Move every group of `table` to the current pass's partition set,
  /// creating it on the pass's first spill: each group goes to the
  /// partition its index hash selects at `depth`, and the table is cleared.
  Status Spill(GroupTable* table, int depth) {
    std::lock_guard<std::mutex> lock(spill_mu_);
    if (partitions_.empty()) {
      // Build into a local set and commit only when every file was created:
      // a mid-loop Create failure must not leave partitions_ half-initialized
      // (non-empty but with null writers), because a concurrent parallel
      // partial that lost the abort race would then skip creation and write
      // through the null writer.
      std::vector<Partition> fresh(kNumPartitions);
      for (int p = 0; p < kNumPartitions; ++p) {
        QY_ASSIGN_OR_RETURN(
            fresh[p].file,
            ctx_->temp_files->Create("agg_d" + std::to_string(depth) + "_p" +
                                     std::to_string(p)));
        fresh[p].writer = std::make_unique<RecordWriter>(fresh[p].file.get());
      }
      partitions_ = std::move(fresh);
      ctx_->spill_partitions += kNumPartitions;
    }
    size_t n = table->NumGroups();
    const std::vector<uint64_t>& hashes =
        table->HashKeys(table->rows().keys, n);
    std::string buf;
    for (uint32_t g = 0; g < n; ++g) {
      buf.clear();
      table->rows().Serialize(g, &buf);
      QY_RETURN_IF_ERROR(
          partitions_[PartitionOf(hashes[g], depth)].writer->Write(buf));
      ++ctx_->rows_spilled;
    }
    table->Clear();
    return Status::OK();
  }

  /// End a pass at `depth`. If it spilled, its remaining groups join the
  /// partitions and every non-empty partition becomes pending, to be merged
  /// one level deeper; otherwise the table holds the pass's final groups.
  Status FinishPass(int depth) {
    if (partitions_.empty()) return Status::OK();
    QY_RETURN_IF_ERROR(Spill(&table_, depth));
    reservation_.ReleaseAll();
    for (auto& p : partitions_) {
      QY_RETURN_IF_ERROR(p.writer->Flush());
      if (p.file->bytes_written() > 0) {
        ctx_->temp_files->AddSpilledBytes(p.file->bytes_written());
        pending_.push_back({std::move(p.file), depth + 1});
      }
    }
    partitions_.clear();
    return Status::OK();
  }

  /// Merge one pending partition into the (empty) table: the same pass as
  /// over the child, over batches of decoded records.
  Status MergePartition(PendingPartition part) {
    QY_RETURN_IF_ERROR(part.file->Rewind());
    RecordReader reader(part.file.get());
    GroupRows batch(plan_);
    std::string record;
    for (bool eof = false; !eof;) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      batch.Clear();
      while (batch.num_rows < ctx_->chunk_size) {
        QY_RETURN_IF_ERROR(reader.Read(&record, &eof));
        if (eof) break;
        QY_RETURN_IF_ERROR(batch.AppendRecord(record));
      }
      if (batch.num_rows == 0) continue;
      table_.Merge(batch);
      QY_RETURN_IF_ERROR(ReserveOrSpill(&table_, &reservation_, part.depth));
    }
    return FinishPass(part.depth);
  }

  const PlanNode& plan_;
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  NodeStats stats_;
  ScopedReservation reservation_;
  GroupTable table_;

  std::mutex spill_mu_;  ///< guards partitions_ and ctx_'s spill counters
  std::vector<Partition> partitions_;  ///< the current pass's, once it spills
  std::vector<PendingPartition> pending_;
  uint32_t emit_cursor_ = 0;
};

}  // namespace

Result<std::unique_ptr<ExecNode>> CreateHashAggNode(
    const PlanNode& plan, std::unique_ptr<ExecNode> child, ExecContext* ctx) {
  return std::unique_ptr<ExecNode>(
      new HashAggNode(plan, std::move(child), ctx));
}

}  // namespace qy::sql
