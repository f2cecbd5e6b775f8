/// Morsel-driven parallel execution tests: ThreadPool/TaskGroup semantics,
/// NULL-key equi-join behaviour on both join key paths, and thread-count
/// invariance of join, aggregation, and ORDER BY results.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sql/database.h"

namespace qy::sql {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool / TaskGroup
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 200; ++i) {
    group.Spawn([&count]() -> Status {
      count.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, FirstErrorWinsAndShortCircuitsQueuedTasks) {
  // Single worker => FIFO: the failing task completes before any counting
  // task is popped, so every queued sibling is deterministically
  // short-circuited (ordering protocols must poll TaskGroup::aborted()
  // in their wait loops instead of relying on siblings running).
  ThreadPool pool(1);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  group.Spawn([]() -> Status { return Status::Internal("boom"); });
  for (int i = 0; i < 50; ++i) {
    group.Spawn([&count]() -> Status {
      count.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  Status s = group.Wait();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("boom"), std::string::npos);
  EXPECT_EQ(count.load(), 0);
  EXPECT_EQ(group.skipped(), 50u);
}

TEST(ThreadPoolTest, ExceptionBecomesInternalStatus) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Spawn([]() -> Status { throw std::runtime_error("kaput"); });
  Status s = group.Wait();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("kaput"), std::string::npos);
}

TEST(ThreadPoolTest, WaitUntilBelowBoundsPending) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.WaitUntilBelow(8);
    group.Spawn([&count]() -> Status {
      count.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(count.load(), 100);
}

// ---------------------------------------------------------------------------
// Test data helpers
// ---------------------------------------------------------------------------

Database MakeDb(size_t threads) {
  DatabaseOptions opts;
  opts.num_threads = threads;
  return Database(opts);
}

/// Two tables with NULL join keys on both sides. Non-NULL matches: l.k in
/// {1 (x2 rows), 2} joins r.k in {1, 2 (x2 rows)}.
void FillNullKeyTables(Database* db) {
  ASSERT_TRUE(db->ExecuteScript(R"(
    CREATE TABLE l (k BIGINT, k2 BIGINT, lv BIGINT);
    CREATE TABLE r (k BIGINT, k2 BIGINT, rv BIGINT);
    INSERT INTO l VALUES (1, 7, 10), (1, 7, 11), (2, 8, 20),
                         (NULL, 7, 30), (4, NULL, 40);
    INSERT INTO r VALUES (1, 7, 100), (2, 8, 200), (2, 8, 201),
                         (NULL, 7, 300), (4, NULL, 400), (NULL, NULL, 500);
  )").ok());
}

/// Append `rows` rows of (k = r % groups, v = r) to a fresh table `name`.
void FillBig(Database* db, const std::string& name, int rows, int groups) {
  ASSERT_TRUE(db->ExecuteScript("CREATE TABLE " + name +
                                " (k BIGINT, v BIGINT)")
                  .ok());
  auto table = db->catalog().GetTable(name);
  ASSERT_TRUE(table.ok());
  for (int r = 0; r < rows; ++r) {
    ASSERT_TRUE(
        (*table)
            ->AppendRow({Value::BigInt(r % groups), Value::BigInt(r)})
            .ok());
  }
}

/// All rows of `qr` rendered as one string (exact row-order comparison).
std::string Rows(const QueryResult& qr) {
  std::string out;
  for (uint64_t r = 0; r < qr.NumRows(); ++r) {
    for (uint64_t c = 0; c < qr.NumColumns(); ++c) {
      out += qr.GetValue(r, c).ToString();
      out += c + 1 < qr.NumColumns() ? ',' : '\n';
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// NULL-key equi-join semantics (both sides, both key paths)
// ---------------------------------------------------------------------------

class NullKeyJoinTest : public ::testing::TestWithParam<size_t> {};

TEST_P(NullKeyJoinTest, SingleIntKeyPathDropsNulls) {
  Database db = MakeDb(GetParam());
  FillNullKeyTables(&db);
  auto r = db.Execute(
      "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k ORDER BY l.lv, r.rv");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // NULL keys never match, not even NULL = NULL: rows lv=30 and rv=300/500
  // are dropped; k=4 still matches on the fast path (k2 is not a join key).
  ASSERT_EQ(r->NumRows(), 5u);
  EXPECT_EQ(Rows(*r), "10,100\n11,100\n20,200\n20,201\n40,400\n");
}

TEST_P(NullKeyJoinTest, MultiKeyGenericPathDropsNulls) {
  Database db = MakeDb(GetParam());
  FillNullKeyTables(&db);
  auto r = db.Execute(
      "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k AND l.k2 = r.k2 "
      "ORDER BY l.lv, r.rv");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // (4, NULL) on both sides must NOT match even though the serialized key
  // bytes would be equal; (NULL, 7) likewise.
  ASSERT_EQ(r->NumRows(), 4u);
  EXPECT_EQ(Rows(*r), "10,100\n11,100\n20,200\n20,201\n");
}

INSTANTIATE_TEST_SUITE_P(Threads, NullKeyJoinTest, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Thread-count invariance
// ---------------------------------------------------------------------------

TEST(ParallelExecTest, ParallelJoinMatchesSerialExactly) {
  // Probe side spans many morsels (> chunk_size rows); join output must be
  // identical to the serial engine including row order (ordered emission).
  constexpr int kRows = 10000, kGroups = 64;
  std::string ref;
  for (size_t threads : {1, 2, 8}) {
    Database db = MakeDb(threads);
    FillBig(&db, "probe", kRows, kGroups);
    FillBig(&db, "build", kGroups, kGroups);
    auto r = db.Execute(
        "SELECT probe.v, build.v FROM probe JOIN build "
        "ON probe.k = build.k");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->NumRows(), static_cast<uint64_t>(kRows));
    std::string rows = Rows(*r);
    if (threads == 1) {
      ref = rows;
    } else {
      EXPECT_EQ(rows, ref) << "join output differs at threads=" << threads;
    }
  }
}

TEST(ParallelExecTest, ParallelAggregateMatchesSerial) {
  // Integer sums are exact, so serial and parallel results must agree
  // bit-for-bit once canonically ordered; and the t2 vs t8 outputs must be
  // identical unsorted too (partial assignment ignores the thread count).
  constexpr int kRows = 20000, kGroups = 512;
  std::string serial_sorted, parallel_ref_sorted, parallel_ref_raw;
  for (size_t threads : {1, 2, 8}) {
    Database db = MakeDb(threads);
    FillBig(&db, "t", kRows, kGroups);
    auto sorted = db.Execute(
        "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k ORDER BY k");
    ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
    ASSERT_EQ(sorted->NumRows(), static_cast<uint64_t>(kGroups));
    auto raw = db.Execute("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k");
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    if (threads == 1) {
      serial_sorted = Rows(*sorted);
    } else if (parallel_ref_sorted.empty()) {
      parallel_ref_sorted = Rows(*sorted);
      parallel_ref_raw = Rows(*raw);
      EXPECT_EQ(parallel_ref_sorted, serial_sorted);
    } else {
      EXPECT_EQ(Rows(*sorted), parallel_ref_sorted);
      EXPECT_EQ(Rows(*raw), parallel_ref_raw)
          << "parallel aggregate row order depends on thread count";
    }
  }
}

TEST(ParallelExecTest, OrderByIdenticalAcrossThreadCounts) {
  constexpr int kRows = 6000, kGroups = 97;
  std::string ref;
  for (size_t threads : {1, 2, 8}) {
    Database db = MakeDb(threads);
    FillBig(&db, "t", kRows, kGroups);
    auto r = db.Execute(
        "SELECT k, v FROM t WHERE v % 3 = 0 ORDER BY k, v DESC");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::string rows = Rows(*r);
    if (threads == 1) {
      ref = rows;
    } else {
      EXPECT_EQ(rows, ref) << "ORDER BY differs at threads=" << threads;
    }
  }
}

TEST(ParallelExecTest, ParallelAggregateSpillsUnderBudget) {
  constexpr int kRows = 20000, kGroups = 5000;
  Database ref = MakeDb(1);
  FillBig(&ref, "t", kRows, kGroups);
  auto expect =
      ref.Execute("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k ORDER BY k");
  ASSERT_TRUE(expect.ok());

  DatabaseOptions opts;
  opts.num_threads = 4;
  Database small(opts);
  FillBig(&small, "t", kRows, kGroups);
  // 512 KiB beside the base table: the parallel partials (about 20,000
  // group entries in all) and the merged table (5,000 groups), at about
  // 30 B a group, do not fit together and spill; the sorted result fits.
  // Headroom from 320 to 704 KiB spills and passes.
  small.tracker().set_budget(small.tracker().used() + (512u << 10));
  auto got =
      small.Execute("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k ORDER BY k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got->stats.rows_spilled, 0u) << "budget did not trigger a spill";
  EXPECT_EQ(Rows(*got), Rows(*expect));
}

// ---------------------------------------------------------------------------
// Hash-join OOM path
// ---------------------------------------------------------------------------

TEST(ParallelExecTest, JoinBuildOomReleasesReservationAndReportsBytes) {
  DatabaseOptions opts;
  opts.memory_budget_bytes = 96 << 10;  // build side will not fit
  Database db(opts);
  FillBig(&db, "probe", 16, 16);
  FillBig(&db, "build", 4000, 4000);
  auto r = db.Execute(
      "SELECT probe.v FROM probe JOIN build ON probe.k = build.k");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfMemory);
  EXPECT_NE(r.status().message().find("requested"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("already held"), std::string::npos);
  // The failed build must not leave the tracker charged: the same query
  // against a smaller build side must still have the full budget available.
  ASSERT_TRUE(db.ExecuteScript("DROP TABLE build").ok());
  FillBig(&db, "build", 16, 16);
  auto retry = db.Execute(
      "SELECT probe.v FROM probe JOIN build ON probe.k = build.k");
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

// ---------------------------------------------------------------------------
// Per-operator profile
// ---------------------------------------------------------------------------

TEST(ParallelExecTest, ProfileRecordsOperators) {
  Database db = MakeDb(2);
  FillBig(&db, "t", 5000, 50);
  auto r = db.Execute(
      "SELECT k, SUM(v) FROM t WHERE v >= 0 GROUP BY k ORDER BY k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> names;
  for (const OperatorProfile& op : db.profile().Snapshot()) {
    names.push_back(op.name);
    EXPECT_GT(op.invocations, 0u) << op.name;
  }
  for (const char* expected : {"Scan", "Filter", "HashAggregate", "Sort"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "profile is missing operator " << expected << " in "
        << db.profile().ToString();
  }
  EXPECT_FALSE(db.profile().ToString().empty());
}

}  // namespace
}  // namespace qy::sql
