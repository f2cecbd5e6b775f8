/// \file join_hash_table.h
/// Flat open-addressing hash tables shared by the hash join and the hash
/// aggregate.
///
/// Both tables use the same slot layout: power-of-two capacity, linear
/// probing, and a 1-byte tag per slot (derived from the high bits of the
/// 64-bit hash, never zero) so most collision candidates are rejected by a
/// single byte compare before the full hash or the key bytes are touched.
/// Keys themselves live caller-side (in the build chunk / group key store);
/// the tables store only (tag, hash, id) and resolve rare full-hash
/// collisions through a caller-supplied equality functor. This keeps the
/// structures type-agnostic while the hot loops stay free of virtual calls
/// and per-key heap allocations (the previous implementation kept one
/// std::vector<uint32_t> per distinct key inside a std::unordered_map).
///
/// - FlatKeyIndex maps a key to a dense id (group table: one id per distinct
///   key, assigned by the caller in first-seen order, which is what makes
///   aggregate output order independent of the hash function).
/// - JoinRowTable maps a key to the chain of build rows carrying it. Rows
///   with equal keys are chained through a contiguous next[] array in
///   insertion order, so probes emit matches exactly like the old
///   per-key-vector design — byte-identical join output.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace qy::sql {

/// Sentinel for "no row / no id".
inline constexpr uint32_t kFlatHashInvalid = 0xFFFFFFFFu;

/// 1-byte tag from the high hash bits; 0 is reserved for empty slots.
inline uint8_t FlatHashTag(uint64_t hash) {
  uint8_t tag = static_cast<uint8_t>(hash >> 56);
  return tag == 0 ? 1 : tag;
}

/// Smallest power of two >= max(16, entries / 0.7).
size_t FlatHashCapacityFor(size_t entries);

/// Open-addressing key -> dense id map (keys stored by the caller).
class FlatKeyIndex {
 public:
  /// Heap bytes per slot: the tag, the full hash and the id.
  static constexpr size_t kSlotBytes =
      sizeof(uint8_t) + sizeof(uint64_t) + sizeof(uint32_t);

  /// Capacity of an empty index.
  static constexpr size_t kMinCapacity = 16;

  FlatKeyIndex() { Rebuild(kMinCapacity); }

  /// The capacity the index grows to while holding `entries` keys: it
  /// doubles before an insert would load it past 0.7.
  static size_t CapacityHolding(size_t entries) {
    size_t cap = kMinCapacity;
    while (entries * 10 > cap * 7) cap *= 2;
    return cap;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return tags_.size(); }

  void Clear() {
    size_ = 0;
    Rebuild(kMinCapacity);
  }

  /// Pre-size for `entries` keys: the capacity inserting them would reach,
  /// without the rehashes on the way.
  void Reserve(size_t entries) {
    size_t cap = CapacityHolding(entries);
    if (cap > tags_.size()) Grow(cap);
  }

  /// Find the id stored for a key with this hash, or insert `new_id` for it.
  /// `eq(id)` must return true iff the caller-side key stored under `id`
  /// equals the key being looked up. Sets *inserted accordingly.
  template <typename EqFn>
  uint32_t FindOrInsert(uint64_t hash, uint32_t new_id, EqFn&& eq,
                        bool* inserted) {
    if ((size_ + 1) * 10 > tags_.size() * 7) Grow(tags_.size() * 2);
    const size_t mask = tags_.size() - 1;
    const uint8_t tag = FlatHashTag(hash);
    size_t i = static_cast<size_t>(hash) & mask;
    while (true) {
      uint8_t t = tags_[i];
      if (t == 0) {
        tags_[i] = tag;
        hashes_[i] = hash;
        ids_[i] = new_id;
        ++size_;
        *inserted = true;
        return new_id;
      }
      if (t == tag && hashes_[i] == hash && eq(ids_[i])) {
        *inserted = false;
        return ids_[i];
      }
      i = (i + 1) & mask;
    }
  }

  /// Lookup without insertion; kFlatHashInvalid when absent.
  template <typename EqFn>
  uint32_t Find(uint64_t hash, EqFn&& eq) const {
    const size_t mask = tags_.size() - 1;
    const uint8_t tag = FlatHashTag(hash);
    size_t i = static_cast<size_t>(hash) & mask;
    while (true) {
      uint8_t t = tags_[i];
      if (t == 0) return kFlatHashInvalid;
      if (t == tag && hashes_[i] == hash && eq(ids_[i])) return ids_[i];
      i = (i + 1) & mask;
    }
  }

  /// Heap bytes of the slot arrays (for memory estimates).
  uint64_t ApproxBytes() const { return tags_.size() * kSlotBytes; }

 private:
  void Rebuild(size_t capacity) {
    tags_.assign(capacity, 0);
    hashes_.assign(capacity, 0);
    ids_.assign(capacity, kFlatHashInvalid);
  }

  /// Keys are distinct by construction, so rehashing needs no equality
  /// checks — every occupied slot goes straight to its new probe position.
  void Grow(size_t new_capacity);

  size_t size_ = 0;
  std::vector<uint8_t> tags_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> ids_;
};

/// Open-addressing key -> build-row-chain table for the hash join. One slot
/// per distinct key; duplicate-key rows chain through next_[] in insertion
/// order (head/tail per slot), matching the emit order of the previous
/// per-key vector design.
class JoinRowTable {
 public:
  /// Size for a build side of `num_rows` rows and reset all chains. The
  /// build side is fully materialized before insertion starts, so the table
  /// never needs to grow.
  void Reset(size_t num_rows);

  size_t num_keys() const { return size_; }

  /// Insert build row `row` (rows must be inserted in ascending order).
  template <typename EqFn>
  void Insert(uint64_t hash, uint32_t row, EqFn&& eq) {
    const size_t mask = tags_.size() - 1;
    const uint8_t tag = FlatHashTag(hash);
    size_t i = static_cast<size_t>(hash) & mask;
    while (true) {
      uint8_t t = tags_[i];
      if (t == 0) {
        tags_[i] = tag;
        hashes_[i] = hash;
        heads_[i] = row;
        tails_[i] = row;
        ++size_;
        return;
      }
      if (t == tag && hashes_[i] == hash && eq(heads_[i])) {
        // Same key: append to the chain tail to preserve insertion order.
        next_[tails_[i]] = row;
        tails_[i] = row;
        return;
      }
      i = (i + 1) & mask;
    }
  }

  /// Invoke emit(build_row) for every build row whose key matches, in
  /// insertion order. `eq(head_row)` compares the probe key against the
  /// caller-side build key of `head_row`.
  template <typename EqFn, typename EmitFn>
  void ForEachMatch(uint64_t hash, EqFn&& eq, EmitFn&& emit) const {
    const size_t mask = tags_.size() - 1;
    const uint8_t tag = FlatHashTag(hash);
    size_t i = static_cast<size_t>(hash) & mask;
    while (true) {
      uint8_t t = tags_[i];
      if (t == 0) return;
      if (t == tag && hashes_[i] == hash && eq(heads_[i])) {
        for (uint32_t r = heads_[i]; r != kFlatHashInvalid; r = next_[r]) {
          emit(r);
        }
        return;
      }
      i = (i + 1) & mask;
    }
  }

  /// Heap bytes of the slot and chain arrays.
  uint64_t ApproxBytes() const {
    return tags_.size() * (sizeof(uint8_t) + sizeof(uint64_t) +
                           2 * sizeof(uint32_t)) +
           next_.size() * sizeof(uint32_t);
  }

 private:
  size_t size_ = 0;
  std::vector<uint8_t> tags_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> tails_;
  std::vector<uint32_t> next_;  ///< per build row: next row with same key
};

}  // namespace qy::sql
