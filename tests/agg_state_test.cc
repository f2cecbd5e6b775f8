/// The hash aggregate's per-function state arrays: every aggregate kind over
/// every argument type it accepts, on NULL-bearing input, grouped and
/// scalar, and on empty input. Each query runs at 1 and 4 threads, without a
/// budget and under a budget that forces the grouped aggregate to spill, and
/// must reproduce the unbudgeted single-thread result: integers and strings
/// exactly, the same row set. One grouped query also runs under a budget
/// tight enough that spilled partitions repartition. A single integer key's
/// two group-id maps (direct slots and the flat index) are checked against
/// the generic multi-column key path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
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

/// Every row of `got` and `want`, in order; doubles bit for bit.
void ExpectIdenticalRows(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.NumRows(), want.NumRows());
  ASSERT_EQ(got.NumColumns(), want.NumColumns());
  for (uint64_t r = 0; r < want.NumRows(); ++r) {
    for (size_t c = 0; c < want.NumColumns(); ++c) {
      SCOPED_TRACE("row " + std::to_string(r) + " column " +
                   std::to_string(c));
      Value g = got.GetValue(r, c);
      Value w = want.GetValue(r, c);
      ASSERT_EQ(g.is_null(), w.is_null());
      if (w.is_null()) continue;
      ASSERT_EQ(g.type(), w.type());
      if (w.type() == DataType::kDouble) {
        ASSERT_EQ(std::bit_cast<uint64_t>(g.double_value()),
                  std::bit_cast<uint64_t>(w.double_value()));
      } else {
        ASSERT_EQ(g.ToString(), w.ToString());
      }
    }
  }
}

TEST(AggregateStateTest, IntKeyMapsMatchGenericPath) {
  // A single BIGINT/HUGEINT key maps to groups through direct slots or the
  // flat index, switching between chunks as its range allows; `GROUP BY
  // k, z` over an all-zero z takes the generic encoded-key path instead and
  // must give the same groups. Each key shape is a list of chunk-sized
  // phases, so the switches fall between chunks.
  constexpr int kChunk = 2048;
  const int128_t two70 = static_cast<int128_t>(1) << 70;
  const int128_t max128 = ~(static_cast<int128_t>(1) << 127);
  const int128_t min128 = -max128 - 1;
  using Phase = std::function<Value(int)>;  // row within the chunk -> key
  auto big = [](int64_t v) { return Value::BigInt(v); };
  auto nulls_every = [](int period, Phase phase) -> Phase {
    return [=](int i) {
      return i % period == 3 ? Value::Null(phase(i).type()) : phase(i);
    };
  };
  struct Shape {
    const char* name;
    DataType type;
    std::vector<Phase> phases;
  };
  const std::vector<Shape> shapes = {
      {"dense_from_first_chunk",
       DataType::kBigInt,
       {[&](int i) { return big((i * 7) % (2 * kChunk)); },
        [&](int i) { return big((i * 7 + 1) % (2 * kChunk)); },
        [&](int i) { return big((i * 3) % (2 * kChunk)); }}},
      // Stride 16 over 32K values: too wide for slots until the group count
      // reaches 4,096, as in a QFT step's first chunks.
      {"sparse_then_dense",
       DataType::kBigInt,
       {nulls_every(97, [&](int i) { return big(i * 16); }),
        nulls_every(97, [&](int i) { return big(i * 16 + 1); }),
        nulls_every(97, [&](int i) { return big(i * 16 + 2); }),
        nulls_every(97, [&](int i) { return big(i * 16 + 3); }),
        nulls_every(97, [&](int i) { return big(i * 16); })}},
      {"dense_then_far_outlier",
       DataType::kBigInt,
       {nulls_every(89, [&](int i) { return big(i); }),
        nulls_every(89, [&](int i) { return big(kChunk + i); }),
        nulls_every(89, [&](int i) {
          return big(i == 1000 ? int64_t{1} << 40 : i);
        }),
        nulls_every(89, [&](int i) { return big(2 * kChunk + i); })}},
      // 100 groups over a 5,000-wide range: slots for the first batch, then
      // too few groups to keep them, so the flat index until the groups
      // fill the range again.
      {"slots_overrun_then_refill",
       DataType::kBigInt,
       {nulls_every(53, [&](int i) { return big(i % 100 * 50); }),
        nulls_every(53, [&](int i) { return big(i % 100 * 50 + 25); }),
        nulls_every(53, [&](int i) { return big(2 * i + 1); }),
        nulls_every(53, [&](int i) { return big(i % 5000); })}},
      {"widen_below_and_above",
       DataType::kBigInt,
       {[&](int i) { return big(1000 + i); },
        [&](int i) { return big(500 + i); },
        [&](int i) { return big(3000 + i); },
        [&](int i) { return big(i < kChunk / 2 ? i : 5000 + i); }}},
      {"nulls_first",
       DataType::kBigInt,
       {[&](int) { return Value::Null(DataType::kBigInt); },
        nulls_every(5, [&](int i) { return big(i); }),
        nulls_every(5, [&](int i) { return big(i * 64); }),
        nulls_every(5, [&](int i) { return big(i % 100); })}},
      {"negative",
       DataType::kBigInt,
       {[&](int i) { return big(-5000 + i); },
        [&](int i) { return big(-3000 + 2 * i); },
        [&](int i) { return big(i % 2 == 0 ? -i : i); }}},
      {"hugeint_2p70",
       DataType::kHugeInt,
       {nulls_every(61, [&](int i) { return Value::HugeInt(two70 + i * 3); }),
        nulls_every(61, [&](int i) { return Value::HugeInt(two70 - i); }),
        nulls_every(61, [&](int i) {
          return Value::HugeInt(two70 + (i == 7 ? two70 : i));
        }),
        nulls_every(61, [&](int i) { return Value::HugeInt(two70 + i); })}},
      {"bigint_min_and_max",
       DataType::kBigInt,
       {[&](int i) { return big(i); },
        [&](int i) {
          if (i == 10) return big(std::numeric_limits<int64_t>::min());
          if (i == 20) return big(std::numeric_limits<int64_t>::max());
          return big(kChunk + i);
        },
        [&](int i) { return big(i); }}},
      {"hugeint_near_2p127",
       DataType::kHugeInt,
       {[&](int i) { return Value::HugeInt(i); },
        [&](int i) {
          return Value::HugeInt(i % 2 == 0 ? min128 + i : max128 - (i - 1));
        },
        [&](int i) { return Value::HugeInt(i); }}},
  };

  const std::string aggs =
      "COUNT(*), COUNT(b), SUM(b), SUM(d), AVG(d), MIN(d), MAX(b)";
  const std::string having =
      " HAVING CASE WHEN k IS NULL THEN 1 WHEN k % 61 = 0 THEN 1 ELSE 0 END "
      "= 1";
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    // t(k, z, b, d): z is all zero; b and d are NULL on their own residue
    // classes, and d's values are inexact, so a sum's bits follow its
    // accumulation order.
    auto fill = [&](Database* db) {
      ASSERT_TRUE(db->ExecuteScript(std::string("CREATE TABLE t (k ") +
                                    DataTypeName(shape.type) +
                                    ", z BIGINT, b BIGINT, d DOUBLE)")
                      .ok());
      auto table = db->catalog().GetTable("t");
      ASSERT_TRUE(table.ok());
      int r = 0;
      for (const Phase& phase : shape.phases) {
        for (int i = 0; i < kChunk; ++i, ++r) {
          Value k = phase(i);
          ASSERT_EQ(k.type(), shape.type);
          int64_t b = (static_cast<int64_t>(r) * 7919) % 1001 - 500;
          Value bv = r % 5 == 0 ? Value::Null(DataType::kBigInt)
                                : Value::BigInt(b);
          Value dv = r % 3 == 0 ? Value::Null(DataType::kDouble)
                                : Value::Double(static_cast<double>(b) * 0.1);
          ASSERT_TRUE((*table)->AppendRow({k, Value::BigInt(0), bv, dv}).ok());
        }
      }
    };
    auto query = [&](const std::string& group_by, const std::string& tail) {
      return "SELECT k, " + aggs + " FROM t GROUP BY " + group_by + tail;
    };

    // One thread, no budget: the same groups in the same first-seen order,
    // with the same bits.
    {
      Database db;
      fill(&db);
      auto slots = db.Execute(query("k", ""));
      auto generic = db.Execute(query("k, z", ""));
      ASSERT_TRUE(slots.ok()) << slots.status().ToString();
      ASSERT_TRUE(generic.ok()) << generic.status().ToString();
      ExpectIdenticalRows(*slots, *generic);
    }
    // Four threads, and a budget that makes spilled partitions repartition
    // (HAVING keeps the output small enough to fit): the same row set.
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (bool budgeted : {false, true}) {
        if (threads == 1 && !budgeted) continue;
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     (budgeted ? " budgeted" : ""));
        DatabaseOptions opts;
        opts.num_threads = threads;
        Database db(opts);
        fill(&db);
        if (budgeted) {
          db.tracker().set_budget(db.tracker().used() + (32u << 10));
        }
        std::string tail = budgeted ? having : "";
        auto slots = db.Execute(query("k", tail));
        auto generic = db.Execute(query("k, z", tail));
        ASSERT_TRUE(slots.ok()) << slots.status().ToString();
        ASSERT_TRUE(generic.ok()) << generic.status().ToString();
        if (budgeted) {
          EXPECT_GT(slots->stats.spill_partitions, 16u)
              << "merge did not repartition";
        }
        ExpectSameRows(*slots, *generic, /*key_cols=*/1);
      }
    }
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
