/// Tests for the flat open-addressing hash tables, the vectorized key
/// encoding/hashing kernels, and the prepared-plan cache:
///   - FlatKeyIndex / JoinRowTable unit tests (collision-heavy keys, tag
///     false positives, growth/rehash, int128 keys),
///   - key encoding layouts and the reserved NULL-key hash,
///   - join/aggregate byte-identical output across worker-thread counts,
///   - plan-cache hit/miss/invalidation counters, DDL invalidation, and
///     cancellation on the cached execution path.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "sql/database.h"
#include "sql/hash_kernels.h"
#include "sql/join_hash_table.h"
#include "sql/spill.h"
#include "testutil/testutil.h"

namespace qy::sql {
namespace {

// ---------------------------------------------------------------------------
// FlatKeyIndex / JoinRowTable units
// ---------------------------------------------------------------------------

TEST(FlatHashTest, TagIsNeverZero) {
  EXPECT_EQ(FlatHashTag(0), 1);                       // top byte 0 -> 1
  EXPECT_EQ(FlatHashTag(uint64_t{0x00ABCDEF} << 8), 1);
  EXPECT_EQ(FlatHashTag(uint64_t{0xAB} << 56), 0xAB);
  EXPECT_EQ(FlatHashTag(~uint64_t{0}), 0xFF);
}

TEST(FlatHashTest, CapacityIsPowerOfTwoWithHeadroom) {
  EXPECT_EQ(FlatHashCapacityFor(0), 16u);
  EXPECT_EQ(FlatHashCapacityFor(1), 16u);
  for (size_t n : {size_t{100}, size_t{1000}, size_t{12345}}) {
    size_t cap = FlatHashCapacityFor(n);
    EXPECT_EQ(cap & (cap - 1), 0u) << n;  // power of two
    EXPECT_GT(cap, n) << n;               // load factor < 1
  }
}

TEST(FlatKeyIndexTest, FindOrInsertAssignsDenseIdsFirstSeen) {
  std::vector<uint64_t> keys;  // caller-side key storage
  FlatKeyIndex index;
  auto upsert = [&](uint64_t key) {
    uint64_t hash = HashIntKey(static_cast<int128_t>(key));
    bool inserted = false;
    uint32_t id = index.FindOrInsert(
        hash, static_cast<uint32_t>(keys.size()),
        [&](uint32_t g) { return keys[g] == key; }, &inserted);
    if (inserted) keys.push_back(key);
    return id;
  };
  EXPECT_EQ(upsert(7), 0u);
  EXPECT_EQ(upsert(42), 1u);
  EXPECT_EQ(upsert(7), 0u);  // repeat finds the existing id
  EXPECT_EQ(upsert(42), 1u);
  EXPECT_EQ(upsert(8), 2u);
  EXPECT_EQ(index.size(), 3u);
  uint64_t absent_hash = HashIntKey(static_cast<int128_t>(999));
  EXPECT_EQ(index.Find(absent_hash, [&](uint32_t g) { return keys[g] == 999; }),
            kFlatHashInvalid);
}

TEST(FlatKeyIndexTest, IdenticalHashCollisionsResolvedByEquality) {
  // 50 distinct keys that all share one hash: every insert after the first
  // probes linearly and falls back to the caller's equality.
  constexpr uint64_t kHash = 0x7777777777777777ULL;
  std::vector<int> keys;
  FlatKeyIndex index;
  for (int k = 0; k < 50; ++k) {
    bool inserted = false;
    uint32_t id = index.FindOrInsert(
        kHash, static_cast<uint32_t>(keys.size()),
        [&](uint32_t g) { return keys[g] == k; }, &inserted);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(id, static_cast<uint32_t>(k));
    keys.push_back(k);
  }
  EXPECT_EQ(index.size(), 50u);
  for (int k = 0; k < 50; ++k) {
    EXPECT_EQ(index.Find(kHash, [&](uint32_t g) { return keys[g] == k; }),
              static_cast<uint32_t>(k));
  }
  EXPECT_EQ(index.Find(kHash, [&](uint32_t g) { return keys[g] == 51; }),
            kFlatHashInvalid);
}

TEST(FlatKeyIndexTest, TagMatchWithDifferentHashSkipsEquality) {
  // Same top byte (tag) and same initial slot, different full hash: the
  // stored 64-bit hash must reject the candidate without consulting the
  // caller's equality functor.
  constexpr uint64_t kHashA = 0xAB00000000000005ULL;
  constexpr uint64_t kHashB = 0xAB00000000000015ULL;  // slot 5 mod 16 too
  ASSERT_EQ(FlatHashTag(kHashA), FlatHashTag(kHashB));
  FlatKeyIndex index;
  int eq_calls = 0;
  bool inserted = false;
  index.FindOrInsert(kHashA, 0, [&](uint32_t) { ++eq_calls; return true; },
                     &inserted);
  ASSERT_TRUE(inserted);
  index.FindOrInsert(kHashB, 1, [&](uint32_t) { ++eq_calls; return true; },
                     &inserted);
  EXPECT_TRUE(inserted);  // never matched the first entry
  EXPECT_EQ(eq_calls, 0);
  EXPECT_EQ(index.size(), 2u);
}

TEST(FlatKeyIndexTest, GrowthRehashKeepsAllKeysFindable) {
  constexpr uint32_t kKeys = 5000;
  std::vector<uint64_t> keys;
  FlatKeyIndex index;
  for (uint32_t k = 0; k < kKeys; ++k) {
    uint64_t key = k * 2654435761u;  // scattered but deterministic
    uint64_t hash = HashIntKey(static_cast<int128_t>(key));
    bool inserted = false;
    uint32_t id = index.FindOrInsert(
        hash, static_cast<uint32_t>(keys.size()),
        [&](uint32_t g) { return keys[g] == key; }, &inserted);
    ASSERT_TRUE(inserted) << k;
    ASSERT_EQ(id, k);
    keys.push_back(key);
  }
  EXPECT_EQ(index.size(), kKeys);
  EXPECT_GT(index.capacity(), size_t{kKeys});  // grew past the initial 16
  for (uint32_t k = 0; k < kKeys; ++k) {
    uint64_t key = keys[k];
    uint64_t hash = HashIntKey(static_cast<int128_t>(key));
    ASSERT_EQ(index.Find(hash, [&](uint32_t g) { return keys[g] == key; }), k);
  }
}

TEST(FlatKeyIndexTest, ReserveReachesTheCapacityGrowthReaches) {
  // The hash aggregate sizes its direct slots against the bytes the index
  // would hold at a group count, so CapacityHolding, Reserve and growth by
  // insertion must agree.
  FlatKeyIndex grown;
  EXPECT_EQ(grown.capacity(), FlatKeyIndex::CapacityHolding(0));
  for (uint32_t k = 1; k <= 3000; ++k) {
    bool inserted = false;
    grown.FindOrInsert(HashIntKey(k), k - 1, [](uint32_t) { return false; },
                       &inserted);
    ASSERT_EQ(grown.capacity(), FlatKeyIndex::CapacityHolding(k)) << k;
    FlatKeyIndex reserved;
    reserved.Reserve(k);
    ASSERT_EQ(reserved.capacity(), grown.capacity()) << k;
  }
}

TEST(FlatKeyIndexTest, Int128KeysDifferingInHighBitsStayDistinct) {
  int128_t low = 5;
  int128_t high = (static_cast<int128_t>(1) << 80) | 5;  // same low 64 bits
  std::vector<int128_t> keys;
  FlatKeyIndex index;
  auto upsert = [&](int128_t key) {
    bool inserted = false;
    uint32_t id = index.FindOrInsert(
        HashIntKey(key), static_cast<uint32_t>(keys.size()),
        [&](uint32_t g) { return keys[g] == key; }, &inserted);
    if (inserted) keys.push_back(key);
    return id;
  };
  EXPECT_EQ(upsert(low), 0u);
  EXPECT_EQ(upsert(high), 1u);
  EXPECT_EQ(upsert(low), 0u);
  EXPECT_EQ(upsert(high), 1u);
  EXPECT_EQ(index.size(), 2u);
}

TEST(JoinRowTableTest, DuplicateKeyChainsEmitInInsertionOrder) {
  // Rows 0..9 with key = row % 3; matches for a key must come back in
  // ascending row order (the property that keeps join output byte-identical
  // to the per-key-vector design).
  constexpr size_t kRows = 10;
  std::vector<int64_t> build_keys(kRows);
  JoinRowTable table;
  table.Reset(kRows);
  for (uint32_t r = 0; r < kRows; ++r) {
    build_keys[r] = r % 3;
    uint64_t hash = HashIntKey(static_cast<int128_t>(build_keys[r]));
    table.Insert(hash, r,
                 [&](uint32_t head) { return build_keys[head] == build_keys[r]; });
  }
  EXPECT_EQ(table.num_keys(), 3u);
  for (int64_t key = 0; key < 3; ++key) {
    std::vector<uint32_t> matches;
    table.ForEachMatch(HashIntKey(static_cast<int128_t>(key)),
                       [&](uint32_t head) { return build_keys[head] == key; },
                       [&](uint32_t row) { matches.push_back(row); });
    std::vector<uint32_t> expected;
    for (uint32_t r = 0; r < kRows; ++r) {
      if (build_keys[r] == key) expected.push_back(r);
    }
    EXPECT_EQ(matches, expected) << "key=" << key;
    for (size_t i = 1; i < matches.size(); ++i) {
      EXPECT_LT(matches[i - 1], matches[i]);
    }
  }
}

TEST(JoinRowTableTest, MissingKeyEmitsNothing) {
  std::vector<int64_t> build_keys = {1, 2, 3};
  JoinRowTable table;
  table.Reset(build_keys.size());
  for (uint32_t r = 0; r < build_keys.size(); ++r) {
    table.Insert(HashIntKey(static_cast<int128_t>(build_keys[r])), r,
                 [&](uint32_t head) { return build_keys[head] == build_keys[r]; });
  }
  int emitted = 0;
  table.ForEachMatch(HashIntKey(static_cast<int128_t>(99)),
                     [&](uint32_t head) { return build_keys[head] == 99; },
                     [&](uint32_t) { ++emitted; });
  EXPECT_EQ(emitted, 0);
}

TEST(JoinRowTableTest, EmptyBuildNeverMatches) {
  JoinRowTable table;
  table.Reset(0);
  int emitted = 0;
  table.ForEachMatch(HashIntKey(static_cast<int128_t>(0)),
                     [](uint32_t) { return true; },
                     [&](uint32_t) { ++emitted; });
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(table.num_keys(), 0u);
}

// ---------------------------------------------------------------------------
// Key encoding kernels
// ---------------------------------------------------------------------------

TEST(HashKernelsTest, FixedWidthLayoutEncodesDistinctRowsDistinctly) {
  // Fixed-width layout (BIGINT + DOUBLE with NULLs).
  ColumnVector a(DataType::kBigInt);
  ColumnVector b(DataType::kDouble);
  a.AppendBigInt(7);      b.AppendDouble(1.5);
  a.AppendNull();         b.AppendDouble(-2.25);
  a.AppendBigInt(-1);     b.AppendNull();
  a.AppendNull();         b.AppendNull();
  std::vector<ColumnVector> keys;
  keys.push_back(std::move(a));
  keys.push_back(std::move(b));
  ASSERT_TRUE(KeysAreFixedWidth(keys));

  EncodedKeyRows rows;
  EncodeKeyRows(keys, 4, &rows);
  ASSERT_TRUE(rows.fixed_width);
  ASSERT_EQ(rows.num_rows, 4u);
  // Distinct rows must encode to distinct bytes.
  EXPECT_FALSE(rows.RowEquals(0, rows.RowPtr(1), rows.RowLen(1)));
  EXPECT_FALSE(rows.RowEquals(2, rows.RowPtr(3), rows.RowLen(3)));
}

TEST(HashKernelsTest, VarcharKeysUseVariableWidthLayout) {
  ColumnVector k(DataType::kBigInt);
  ColumnVector s(DataType::kVarchar);
  k.AppendBigInt(1);  s.AppendVarchar("alpha");
  k.AppendBigInt(1);  s.AppendVarchar("");
  k.AppendNull();     s.AppendNull();
  std::vector<ColumnVector> keys;
  keys.push_back(std::move(k));
  keys.push_back(std::move(s));
  ASSERT_FALSE(KeysAreFixedWidth(keys));

  EncodedKeyRows rows;
  EncodeKeyRows(keys, 3, &rows);
  ASSERT_FALSE(rows.fixed_width);
}

TEST(HashKernelsTest, NullIntKeyGetsReservedHash) {
  ColumnVector col(DataType::kBigInt);
  col.AppendBigInt(3);
  col.AppendNull();
  col.AppendBigInt(0);
  std::vector<int128_t> values;
  std::vector<uint64_t> hashes;
  NormalizeIntKeyColumn(col, &values);
  HashIntKeyColumn(col, values, &hashes);
  ASSERT_EQ(hashes.size(), 3u);
  EXPECT_EQ(hashes[0], HashIntKey(3));
  EXPECT_EQ(hashes[1], kIntNullKeyHash);
  EXPECT_EQ(hashes[2], HashIntKey(0));
}

// ---------------------------------------------------------------------------
// Join / aggregate byte-identical output across thread counts
// ---------------------------------------------------------------------------

/// Serialize an entire result with the spill codec (byte-exact, including
/// NULLs and the sign/width of every numeric).
std::string SerializeResult(const QueryResult& r) {
  std::string out;
  for (uint64_t row = 0; row < r.NumRows(); ++row) {
    for (size_t col = 0; col < r.NumColumns(); ++col) {
      SerializeRawValue(r.GetValue(row, col), &out);
    }
    out.push_back('\n');
  }
  return out;
}

/// Same bytes but with the rows in lexicographic order (order-insensitive
/// comparison for aggregates, whose serial and parallel group orders differ).
std::string SerializeResultSorted(const QueryResult& r) {
  std::vector<std::string> rows(r.NumRows());
  for (uint64_t row = 0; row < r.NumRows(); ++row) {
    for (size_t col = 0; col < r.NumColumns(); ++col) {
      SerializeRawValue(r.GetValue(row, col), &rows[row]);
    }
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& s : rows) {
    out += s;
    out.push_back('\n');
  }
  return out;
}

/// Deterministic skewed fixture: duplicate join keys, NULL keys, VARCHAR and
/// DOUBLE payloads.
void FillJoinTables(Database* db, int rows) {
  ASSERT_TRUE(db->ExecuteScript(R"(
    CREATE TABLE probe (k BIGINT, v DOUBLE, tag VARCHAR);
    CREATE TABLE build (k BIGINT, w DOUBLE);
  )").ok());
  std::mt19937 rng(1234);
  auto probe = db->catalog().GetTable("probe");
  auto build = db->catalog().GetTable("build");
  ASSERT_TRUE(probe.ok() && build.ok());
  for (int r = 0; r < rows; ++r) {
    Value key = (rng() % 10 == 0)
                    ? Value::Null(DataType::kBigInt)
                    : Value::BigInt(static_cast<int64_t>(rng() % 37));
    ASSERT_TRUE((*probe)
                    ->AppendRow({key, Value::Double(r * 0.5),
                                 Value::Varchar("t" + std::to_string(r % 5))})
                    .ok());
  }
  for (int r = 0; r < rows / 2; ++r) {
    Value key = (rng() % 8 == 0)
                    ? Value::Null(DataType::kBigInt)
                    : Value::BigInt(static_cast<int64_t>(rng() % 37));
    // Exactly representable payloads: every SUM below is exact in binary
    // floating point, so serial and parallel accumulation orders agree
    // bitwise (the engine only guarantees bitwise-equal FP sums *across
    // parallel thread counts*; vs serial they agree when addition is exact).
    ASSERT_TRUE(
        (*build)->AppendRow({key, Value::Double((r % 16) * 0.0625)}).ok());
  }
}

TEST(HashPathEquivalenceTest, JoinAndAggregateByteIdenticalAcrossThreads) {
  // The engine's determinism contract (see parallel_exec_test):
  //   - join output is byte-identical across ALL thread counts including
  //     serial (morsel-ordered emission),
  //   - aggregate output is byte-identical across all PARALLEL thread counts
  //     (partial assignment depends on morsel seq, not thread count) and
  //     row-set-identical to serial (group order differs: first-seen vs
  //     partial-merge order). The fixture's sums are FP-exact, so sorted
  //     serial and parallel rows match byte for byte.
  struct Query {
    std::string sql;
    bool order_sensitive;  ///< serial raw bytes must equal parallel raw bytes
  };
  const std::vector<Query> queries = {
      {"SELECT probe.k, probe.v, build.w FROM probe JOIN build "
       "ON probe.k = build.k",
       true},
      {"SELECT k, COUNT(*) AS c, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi "
       "FROM probe GROUP BY k",
       false},
      {"SELECT tag, k, SUM(v) AS s FROM probe GROUP BY tag, k", false},
      {"SELECT probe.k, SUM(probe.v * build.w) AS dot FROM probe JOIN build "
       "ON probe.k = build.k GROUP BY probe.k",
       false},
  };
  std::vector<std::string> serial_raw(queries.size());
  std::vector<std::string> serial_sorted(queries.size());
  std::vector<std::string> parallel_raw(queries.size());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DatabaseOptions opts;
    opts.num_threads = threads;
    opts.chunk_size = 128;  // force many chunks / morsels
    Database db(opts);
    FillJoinTables(&db, 2000);
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = db.Execute(queries[q].sql);
      ASSERT_TRUE(result.ok()) << queries[q].sql << " -> "
                               << result.status().ToString();
      std::string raw = SerializeResult(*result);
      if (threads == 1) {
        serial_raw[q] = raw;
        serial_sorted[q] = SerializeResultSorted(*result);
        EXPECT_FALSE(raw.empty()) << queries[q].sql;
      } else {
        if (queries[q].order_sensitive) {
          EXPECT_EQ(raw, serial_raw[q]) << queries[q].sql;
        } else {
          EXPECT_EQ(SerializeResultSorted(*result), serial_sorted[q])
              << queries[q].sql;
        }
        if (threads == 2) {
          parallel_raw[q] = raw;
        } else {
          EXPECT_EQ(raw, parallel_raw[q])
              << queries[q].sql << " differs between parallel thread counts";
        }
      }
    }
  }
}

TEST(HashPathEquivalenceTest, InexactSumsByteIdenticalAcrossParallelCounts) {
  // Non-exact FP sums: partial-aggregate assignment depends only on morsel
  // sequence numbers, never on the thread count, so every parallel run
  // produces bitwise-identical sums (serial may differ in the last ULPs —
  // different association order — and is deliberately not compared here).
  std::vector<std::string> reference;
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DatabaseOptions opts;
    opts.num_threads = threads;
    opts.chunk_size = 128;
    Database db(opts);
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (k BIGINT, v DOUBLE)").ok());
    auto table = db.catalog().GetTable("t");
    ASSERT_TRUE(table.ok());
    for (int r = 0; r < 3000; ++r) {
      ASSERT_TRUE((*table)
                      ->AppendRow({Value::BigInt(r % 13),
                                   Value::Double(1.0 / (r + 1))})
                      .ok());
    }
    auto result = db.Execute("SELECT k, SUM(v) AS s FROM t GROUP BY k");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string bytes = SerializeResult(*result);
    if (reference.empty()) {
      reference.push_back(bytes);
    } else {
      EXPECT_EQ(bytes, reference[0]);
    }
  }
}

TEST(HashPathEquivalenceTest, EmptyAndAllNullBuildSides) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DatabaseOptions opts;
    opts.num_threads = threads;
    Database db(opts);
    ASSERT_TRUE(db.ExecuteScript(R"(
      CREATE TABLE probe (k BIGINT, v DOUBLE);
      INSERT INTO probe VALUES (1, 0.5), (2, 1.5), (NULL, 2.5);
      CREATE TABLE empty_build (k BIGINT, w DOUBLE);
      CREATE TABLE null_build (k BIGINT, w DOUBLE);
      INSERT INTO null_build VALUES (NULL, 1.0), (NULL, 2.0);
    )").ok());
    auto empty_join = db.Execute(
        "SELECT probe.k FROM probe JOIN empty_build ON probe.k = empty_build.k");
    ASSERT_TRUE(empty_join.ok());
    EXPECT_EQ(empty_join->NumRows(), 0u);
    // NULL keys never compare equal, so an all-NULL build side matches
    // nothing even against a NULL probe key.
    auto null_join = db.Execute(
        "SELECT probe.k FROM probe JOIN null_build ON probe.k = null_build.k");
    ASSERT_TRUE(null_join.ok());
    EXPECT_EQ(null_join->NumRows(), 0u);
    // The aggregate, by contrast, groups NULL keys together (SQL semantics).
    auto agg = db.Execute("SELECT k, COUNT(*) AS c FROM null_build GROUP BY k");
    ASSERT_TRUE(agg.ok());
    ASSERT_EQ(agg->NumRows(), 1u);
    EXPECT_TRUE(agg->GetValue(0, 0).is_null());
    EXPECT_EQ(agg->GetInt64(0, 1), 2);
  }
}

// ---------------------------------------------------------------------------
// Prepared-plan cache
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, RepeatedSelectHitsAfterFirstExecution) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE TABLE t (k BIGINT, v DOUBLE);
    INSERT INTO t VALUES (1, 0.5), (2, 1.5), (1, 2.5);
  )").ok());
  PlanCacheStats before = db.plan_cache_stats();
  const std::string sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k";
  for (int i = 0; i < 3; ++i) {
    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->NumRows(), 2u);
  }
  const PlanCacheStats& after = db.plan_cache_stats();
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.inserts - before.inserts, 1u);
  EXPECT_EQ(after.invalidations, before.invalidations);
}

TEST(PlanCacheTest, CtasDropRecreateCycleHits) {
  // The simulator's per-gate pattern: identical CREATE TABLE ... AS SELECT
  // with the target dropped in between must be planned exactly once.
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE TABLE src (k BIGINT, v DOUBLE);
    INSERT INTO src VALUES (1, 0.5), (2, 1.5), (1, 2.5);
  )").ok());
  const std::string ctas =
      "CREATE TABLE out AS SELECT k, SUM(v) AS s FROM src GROUP BY k";
  PlanCacheStats before = db.plan_cache_stats();
  for (int i = 0; i < 4; ++i) {
    auto r = db.Execute(ctas);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(db.ExecuteScript("DROP TABLE out").ok());
  }
  const PlanCacheStats& after = db.plan_cache_stats();
  EXPECT_EQ(after.hits - before.hits, 3u);
  EXPECT_EQ(after.inserts - before.inserts, 1u);
  EXPECT_EQ(after.invalidations, before.invalidations);
}

TEST(PlanCacheTest, SameSchemaRecreateHitsAndSeesNewRows) {
  // DROP + CREATE with the same name and schema: the cached plan's stale
  // table pointer must be re-resolved to the fresh table, not reused.
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE TABLE t (k BIGINT);
    INSERT INTO t VALUES (1);
  )").ok());
  const std::string sql = "SELECT k FROM t";
  auto r1 = db.Execute(sql);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->GetInt64(0, 0), 1);

  ASSERT_TRUE(db.ExecuteScript(R"(
    DROP TABLE t;
    CREATE TABLE t (k BIGINT);
    INSERT INTO t VALUES (42);
  )").ok());
  PlanCacheStats before = db.plan_cache_stats();
  auto r2 = db.Execute(sql);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->GetInt64(0, 0), 42);  // fresh table, not the dropped one
  const PlanCacheStats& after = db.plan_cache_stats();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.invalidations, before.invalidations);
}

TEST(PlanCacheTest, SchemaChangeInvalidatesAndReplans) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE TABLE t (k BIGINT);
    INSERT INTO t VALUES (7);
  )").ok());
  const std::string sql = "SELECT k FROM t";
  ASSERT_TRUE(db.Execute(sql).ok());  // cached against BIGINT schema

  ASSERT_TRUE(db.ExecuteScript(R"(
    DROP TABLE t;
    CREATE TABLE t (k DOUBLE);
    INSERT INTO t VALUES (2.5);
  )").ok());
  PlanCacheStats before = db.plan_cache_stats();
  auto r = db.Execute(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetValue(0, 0).type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(r->GetDouble(0, 0), 2.5);
  const PlanCacheStats& after = db.plan_cache_stats();
  EXPECT_EQ(after.invalidations - before.invalidations, 1u);
  EXPECT_EQ(after.hits, before.hits);  // the stale entry did not hit
  // The replanned statement was re-cached; the next run hits again.
  ASSERT_TRUE(db.Execute(sql).ok());
  EXPECT_EQ(db.plan_cache_stats().hits - before.hits, 1u);
}

TEST(PlanCacheTest, CapacityBoundEvictsLru) {
  DatabaseOptions opts;
  opts.plan_cache_capacity = 2;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE TABLE t (k BIGINT);
    INSERT INTO t VALUES (1);
  )").ok());
  ASSERT_TRUE(db.Execute("SELECT k FROM t").ok());
  ASSERT_TRUE(db.Execute("SELECT k + 1 FROM t").ok());
  ASSERT_TRUE(db.Execute("SELECT k + 2 FROM t").ok());
  EXPECT_EQ(db.plan_cache().size(), 2u);
  EXPECT_GE(db.plan_cache_stats().evictions, 1u);
  // The oldest statement was evicted and misses again.
  PlanCacheStats before = db.plan_cache_stats();
  ASSERT_TRUE(db.Execute("SELECT k FROM t").ok());
  EXPECT_EQ(db.plan_cache_stats().misses - before.misses, 1u);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  DatabaseOptions opts;
  opts.plan_cache_capacity = 0;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE TABLE t (k BIGINT);
    INSERT INTO t VALUES (1);
  )").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Execute("SELECT k FROM t").ok());
  }
  EXPECT_EQ(db.plan_cache_stats().hits, 0u);
  EXPECT_EQ(db.plan_cache_stats().inserts, 0u);
  EXPECT_EQ(db.plan_cache().size(), 0u);
}

TEST(PlanCacheTest, CancellationOnCachedPathCleansUpAndRecovers) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CancellationToken token;
    QueryContext query(&token);
    DatabaseOptions opts;
    opts.num_threads = threads;
    opts.query = &query;
    Database db(opts);
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (k BIGINT, v DOUBLE)").ok());
    auto table = db.catalog().GetTable("t");
    ASSERT_TRUE(table.ok());
    for (int r = 0; r < 2000; ++r) {
      ASSERT_TRUE((*table)
                      ->AppendRow({Value::BigInt(r % 50),
                                   Value::Double(static_cast<double>(r))})
                      .ok());
    }
    const std::string ctas =
        "CREATE TABLE out AS SELECT k, SUM(v) AS s FROM t GROUP BY k";
    // Populate the cache, then cancel a repetition that executes through the
    // cached-plan path.
    ASSERT_TRUE(db.Execute(ctas).ok());
    ASSERT_TRUE(db.ExecuteScript("DROP TABLE out").ok());
    uint64_t used_before = db.tracker().used();
    PlanCacheStats stats_before = db.plan_cache_stats();

    token.Cancel();
    auto cancelled = db.Execute(ctas);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
    // The cached lookup hit, the execution failed, and the half-built CTAS
    // target must not linger in the catalog.
    EXPECT_EQ(db.plan_cache_stats().hits - stats_before.hits, 1u);
    EXPECT_FALSE(db.catalog().HasTable("out"));
    test::ExpectQueryCleanup(db, used_before, "after cancelled cached CTAS");

    // Un-cancel: the same cached plan must execute successfully again.
    token.Reset();
    auto recovered = db.Execute(ctas);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(db.catalog().HasTable("out"));
    auto rows = db.Execute("SELECT COUNT(*) FROM out");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->GetInt64(0, 0), 50);
  }
}

}  // namespace
}  // namespace qy::sql
