/// The hash aggregate's per-function state arrays: every aggregate kind over
/// every argument type it accepts, on NULL-bearing input, grouped and
/// scalar, and on empty input. Each query runs at 1 and 4 threads, without a
/// budget and under a budget that forces the grouped aggregate to spill, and
/// must reproduce the unbudgeted single-thread result: integers and strings
/// exactly, the same row set. One grouped query also runs under a budget
/// tight enough that spilled partitions repartition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "sql/database.h"

namespace qy::sql {
namespace {

/// Every kind crossed with every argument type it binds: COUNT/MIN/MAX over
/// BIGINT, HUGEINT, DOUBLE and VARCHAR; SUM/AVG over the numeric types.
constexpr const char* kAggs =
    "COUNT(*), COUNT(b), COUNT(h), COUNT(d), COUNT(s), "
    "SUM(b), SUM(h), SUM(d), AVG(b), AVG(h), AVG(d), "
    "MIN(b), MAX(b), MIN(h), MAX(h), MIN(d), MAX(d), MIN(s), MAX(s)";
constexpr size_t kCountColumns = 5;

constexpr uint64_t kSpillBudget = 1u << 20;

/// t(k, b BIGINT, h HUGEINT, d DOUBLE, s VARCHAR) over `groups` keys plus a
/// NULL key. Each argument column is NULL on its own residue class of rows,
/// so some groups see only NULLs in some columns.
void Fill(Database* db, int rows, int groups) {
  ASSERT_TRUE(db->ExecuteScript("CREATE TABLE t (k BIGINT, b BIGINT, "
                                "h HUGEINT, d DOUBLE, s VARCHAR)")
                  .ok());
  auto table = db->catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  for (int r = 0; r < rows; ++r) {
    int64_t b = (static_cast<int64_t>(r) * 7919) % 1001 - 500;
    Value k = r % 97 == 0 ? Value::Null(DataType::kBigInt)
                          : Value::BigInt(r % groups);
    Value bv = r % 5 == 0 ? Value::Null(DataType::kBigInt) : Value::BigInt(b);
    // Beyond 64 bits, so a 64-bit state would overflow.
    Value hv = r % 7 == 0 ? Value::Null(DataType::kHugeInt)
                          : Value::HugeInt((static_cast<int128_t>(b) << 70) +
                                           r);
    // Multiples of 1/8: every partial sum is exact in any order.
    Value dv = r % 3 == 0 ? Value::Null(DataType::kDouble)
                          : Value::Double(static_cast<double>(b) / 8);
    Value sv = r % 11 == 0 ? Value::Null(DataType::kVarchar)
                           : Value::Varchar("s" + std::to_string(b + 500));
    ASSERT_TRUE((*table)->AppendRow({k, bv, hv, dv, sv}).ok());
  }
}

/// The result rows keyed by the rendering of their first `key_cols` columns.
std::map<std::string, std::vector<Value>> RowsByKey(const QueryResult& result,
                                                    size_t key_cols) {
  std::map<std::string, std::vector<Value>> rows;
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    std::string key;
    std::vector<Value> values;
    for (size_t c = 0; c < result.NumColumns(); ++c) {
      Value v = result.GetValue(r, c);
      if (c < key_cols) key += v.ToString() + "|";
      values.push_back(std::move(v));
    }
    EXPECT_TRUE(rows.emplace(key, std::move(values)).second)
        << "duplicate group " << key;
  }
  return rows;
}

void ExpectSameRows(const QueryResult& got, const QueryResult& want,
                    size_t key_cols) {
  auto got_rows = RowsByKey(got, key_cols);
  auto want_rows = RowsByKey(want, key_cols);
  ASSERT_EQ(got_rows.size(), want_rows.size());
  for (const auto& [key, want_values] : want_rows) {
    auto it = got_rows.find(key);
    ASSERT_NE(it, got_rows.end()) << "missing group " << key;
    const std::vector<Value>& got_values = it->second;
    ASSERT_EQ(got_values.size(), want_values.size());
    for (size_t c = 0; c < want_values.size(); ++c) {
      SCOPED_TRACE("group " + key + " column " + std::to_string(c));
      const Value& g = got_values[c];
      const Value& w = want_values[c];
      ASSERT_EQ(g.is_null(), w.is_null());
      if (w.is_null()) continue;
      ASSERT_EQ(g.type(), w.type());
      if (w.type() == DataType::kDouble) {
        // AVG(h) sums doubles that are not exact, so its last bits depend
        // on how partial states merge; every other double is exact.
        double tol = 1e-12 * std::max(1.0, std::fabs(w.double_value()));
        EXPECT_NEAR(g.double_value(), w.double_value(), tol);
      } else {
        EXPECT_EQ(g.ToString(), w.ToString());
      }
    }
  }
}

/// Run `sql` on the same data at t in {1, 4} x {unlimited, kSpillBudget} and
/// compare each result with the unbudgeted single-thread one. `must_spill`
/// makes an out-of-core run a precondition of every budgeted config.
void CheckEverywhere(const std::string& sql, int rows, int groups,
                     size_t key_cols, bool must_spill) {
  Database ref_db;
  Fill(&ref_db, rows, groups);
  auto want = ref_db.Execute(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->stats.rows_spilled, 0u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (uint64_t budget : {MemoryTracker::kUnlimited, kSpillBudget}) {
      bool budgeted = budget != MemoryTracker::kUnlimited;
      SCOPED_TRACE(sql + " threads=" + std::to_string(threads) +
                   (budgeted ? " budgeted" : " unlimited"));
      DatabaseOptions opts;
      opts.num_threads = threads;
      opts.memory_budget_bytes = budget;
      Database db(opts);
      Fill(&db, rows, groups);
      auto got = db.Execute(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (must_spill && budgeted) {
        ASSERT_GT(got->stats.rows_spilled, 0u)
            << "budget did not force a spill";
      }
      ExpectSameRows(*got, *want, key_cols);
    }
  }
}

TEST(AggregateStateTest, GroupedEveryKindEveryType) {
  CheckEverywhere(std::string("SELECT k, ") + kAggs + " FROM t GROUP BY k",
                  6000, 1500, /*key_cols=*/1, /*must_spill=*/true);
}

TEST(AggregateStateTest, ScalarEveryKindEveryType) {
  // A single group: the scalar aggregate never spills, whatever the budget.
  CheckEverywhere(std::string("SELECT ") + kAggs + " FROM t", 6000, 1500,
                  /*key_cols=*/0, /*must_spill=*/false);
}

TEST(AggregateStateTest, RepartitionKeepsOneNullGroup) {
  // 20,000 groups under a budget a little above the base table's tracked
  // bytes: a first-level partition does not fit either, so its merge spills
  // again one level deeper. Groups routed at both levels must still meet,
  // the NULL key included. HAVING keeps the NULL group and the keys below
  // 16 (with CASE, so the test does not lean on OR's NULL handling).
  constexpr int kRows = 20000;
  constexpr uint64_t kHeadroom = 64u << 10;
  const std::string sql =
      std::string("SELECT k, ") + kAggs +
      " FROM t GROUP BY k HAVING CASE WHEN k IS NULL THEN 1 "
      "WHEN k < 16 THEN 1 ELSE 0 END = 1";
  Database ref_db;
  Fill(&ref_db, kRows, kRows);
  auto want = ref_db.Execute(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->stats.rows_spilled, 0u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DatabaseOptions opts;
    opts.num_threads = threads;
    Database db(opts);
    Fill(&db, kRows, kRows);
    db.tracker().set_budget(db.tracker().used() + kHeadroom);
    auto got = db.Execute(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(got->stats.spill_partitions, 16u) << "merge did not repartition";
    EXPECT_EQ(got->NumRows(), want->NumRows());
    ExpectSameRows(*got, *want, /*key_cols=*/1);
  }
}

TEST(AggregateStateTest, EmptyInputGroupedAndScalar) {
  CheckEverywhere(std::string("SELECT k, ") + kAggs + " FROM t GROUP BY k", 0,
                  1, /*key_cols=*/1, /*must_spill=*/false);
  CheckEverywhere(std::string("SELECT ") + kAggs + " FROM t", 0, 1,
                  /*key_cols=*/0, /*must_spill=*/false);

  // Pin the empty answers themselves: no groups, and one scalar row of
  // zero counts and NULLs.
  Database db;
  Fill(&db, 0, 1);
  auto grouped =
      db.Execute(std::string("SELECT k, ") + kAggs + " FROM t GROUP BY k");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->NumRows(), 0u);
  auto scalar = db.Execute(std::string("SELECT ") + kAggs + " FROM t");
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  ASSERT_EQ(scalar->NumRows(), 1u);
  for (size_t c = 0; c < scalar->NumColumns(); ++c) {
    Value v = scalar->GetValue(0, c);
    if (c < kCountColumns) {
      EXPECT_EQ(v.ToString(), "0") << "column " << c;
    } else {
      EXPECT_TRUE(v.is_null()) << "column " << c;
    }
  }
}

}  // namespace
}  // namespace qy::sql
