/// Out-of-core execution tests: hash-aggregate spill correctness and the
/// budget behaviour of join/sort (experiment E9's machinery).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "sql/database.h"

namespace qy::sql {
namespace {

/// Populate `db` with `rows` rows over `groups` distinct keys.
void FillGroups(Database* db, int rows, int groups) {
  ASSERT_TRUE(db->ExecuteScript("CREATE TABLE t (k BIGINT, v DOUBLE)").ok());
  auto table = db->catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  for (int r = 0; r < rows; ++r) {
    ASSERT_TRUE((*table)
                    ->AppendRow({Value::BigInt(r % groups),
                                 Value::Double(static_cast<double>(r))})
                    .ok());
  }
}

TEST(SpillTest, SpilledAggregateMatchesInMemory) {
  // Enough groups that the aggregate outgrows its budget next to the base
  // table, few enough that the result still fits.
  constexpr int kRows = 20000, kGroups = 14000;
  const std::string sql = "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k";
  // Reference: unlimited memory.
  Database ref;
  FillGroups(&ref, kRows, kGroups);
  auto expect = ref.Execute(sql);
  ASSERT_TRUE(expect.ok());
  ASSERT_EQ(expect->stats.rows_spilled, 0u);

  // Constrained: input table fits, hash aggregate must spill. 388 KiB
  // beside the base table holds the 14,000-row result (24 B a row, 328 KiB)
  // plus one merged partition, but not the aggregate's 14,000 groups (about
  // 30 B each, 406 KiB). Headroom from 380 to 396 KiB spills and passes.
  Database small;
  FillGroups(&small, kRows, kGroups);
  small.tracker().set_budget(small.tracker().used() + (388u << 10));
  auto got = small.Execute(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_GT(got->stats.rows_spilled, 0u) << "budget did not trigger a spill";
  EXPECT_GT(small.temp_files().total_spilled_bytes(), 0u);
  EXPECT_EQ(ref.temp_files().total_spilled_bytes(), 0u);

  // Spilled groups come back partition by partition, so compare by key.
  ASSERT_EQ(got->NumRows(), expect->NumRows());
  std::map<int64_t, uint64_t> expect_row;
  for (uint64_t r = 0; r < expect->NumRows(); ++r) {
    expect_row[expect->GetInt64(r, 0)] = r;
  }
  std::set<int64_t> seen;
  for (uint64_t r = 0; r < got->NumRows(); ++r) {
    int64_t k = got->GetInt64(r, 0);
    ASSERT_TRUE(seen.insert(k).second) << "duplicate group " << k;
    auto it = expect_row.find(k);
    ASSERT_NE(it, expect_row.end()) << "unexpected group " << k;
    EXPECT_DOUBLE_EQ(got->GetDouble(r, 1), expect->GetDouble(it->second, 1));
    EXPECT_EQ(got->GetInt64(r, 2), expect->GetInt64(it->second, 2));
  }
}

TEST(SpillTest, SpillPreservesAllAggregateKinds) {
  // Budget sized so the 12000-row base table (~192 KiB) fits but the 4000
  // aggregate groups (~600 KiB of keys, index and states) do not. HAVING
  // narrows the output to one group, avoiding a large result
  // materialization.
  DatabaseOptions opts;
  opts.memory_budget_bytes = 512 << 10;
  Database db(opts);
  FillGroups(&db, 12000, 4000);
  auto got = db.Execute(
      "SELECT k, SUM(v), COUNT(*), AVG(v), MIN(v), MAX(v) FROM t GROUP BY k "
      "HAVING k = 0");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_GT(got->stats.rows_spilled, 0u) << "budget did not trigger a spill";
  // Key 0 appears at v = 0, 4000, 8000.
  ASSERT_EQ(got->NumRows(), 1u);
  EXPECT_DOUBLE_EQ(got->GetDouble(0, 1), 12000.0);
  EXPECT_EQ(got->GetInt64(0, 2), 3);
  EXPECT_DOUBLE_EQ(got->GetDouble(0, 3), 4000.0);
  EXPECT_DOUBLE_EQ(got->GetDouble(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(got->GetDouble(0, 5), 8000.0);
}

TEST(SpillTest, SpillDisabledFailsCleanly) {
  DatabaseOptions opts;
  opts.memory_budget_bytes = 512 << 10;
  opts.enable_spill = false;
  Database db(opts);
  FillGroups(&db, 12000, 10000);
  auto got = db.Execute("SELECT k, SUM(v) FROM t GROUP BY k");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfMemory);
}

TEST(SpillTest, RepartitioningHandlesSkew) {
  // Many groups, tiny budget: single partitions exceed memory and must
  // recursively repartition. 32 KiB above the 40000-row base table is too
  // little for even one of the 16 first-level partitions (~2500 groups
  // each), so finalization must repartition at deeper hash bits.
  Database db;
  FillGroups(&db, 40000, 40000);  // all keys distinct
  db.tracker().set_budget(db.tracker().used() + (32u << 10));
  auto got = db.Execute("SELECT COUNT(*) FROM (SELECT k, SUM(v) AS sv FROM t "
                        "GROUP BY k) AS agg");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->GetInt64(0, 0), 40000);
  EXPECT_GT(got->stats.spill_partitions, 16u) << "merge did not repartition";
}

TEST(SpillTest, VarcharKeysSpill) {
  DatabaseOptions opts;
  opts.memory_budget_bytes = 600 << 10;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE s (k VARCHAR, v BIGINT)").ok());
  auto table = db.catalog().GetTable("s");
  for (int r = 0; r < 12000; ++r) {
    ASSERT_TRUE((*table)
                    ->AppendRow({Value::Varchar("key_" + std::to_string(r % 6000)),
                                 Value::BigInt(1)})
                    .ok());
  }
  auto got = db.Execute(
      "SELECT COUNT(*) FROM (SELECT k, SUM(v) AS c FROM s GROUP BY k) AS a");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->GetInt64(0, 0), 6000);
}

TEST(SpillTest, JoinBuildSideBudgetError) {
  DatabaseOptions opts;
  opts.memory_budget_bytes = 64 << 10;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE big (k BIGINT)").ok());
  auto table = db.catalog().GetTable("big");
  // Keep the base table small enough to fit but the build side over budget:
  // build materializes a copy plus hash table.
  for (int r = 0; r < 6000; ++r) {
    ASSERT_TRUE((*table)->AppendRow({Value::BigInt(r)}).ok());
  }
  auto got = db.Execute(
      "SELECT COUNT(*) FROM big AS a JOIN big AS b ON a.k = b.k");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfMemory);
  EXPECT_NE(got.status().message().find("build side"), std::string::npos);
}

TEST(SpillTest, SortRespectsBudget) {
  DatabaseOptions opts;
  opts.memory_budget_bytes = 96 << 10;
  Database db(opts);
  FillGroups(&db, 4000, 4000);
  auto got = db.Execute("SELECT k FROM t ORDER BY v");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfMemory);
}

TEST(SpillTest, TrackerReleasedAfterQueries) {
  DatabaseOptions opts;
  opts.memory_budget_bytes = 2 << 20;
  Database db(opts);
  FillGroups(&db, 20000, 5000);
  uint64_t base = db.tracker().used();
  for (int round = 0; round < 3; ++round) {
    auto got = db.Execute("SELECT k, SUM(v) FROM t GROUP BY k");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
  // All per-query memory (hash tables, result tables) must be released once
  // results are destroyed; only the base table remains.
  EXPECT_EQ(db.tracker().used(), base);
}

}  // namespace
}  // namespace qy::sql
