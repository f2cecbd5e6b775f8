/// End-to-end SQL engine tests: every query runs through parse -> bind ->
/// plan -> execute against an in-memory Database.
#include <gtest/gtest.h>

#include "sql/database.h"

namespace qy::sql {
namespace {

class SqlExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"(
      CREATE TABLE nums (a BIGINT, b BIGINT, d DOUBLE, name VARCHAR);
      INSERT INTO nums VALUES
        (1, 10, 1.5, 'one'),
        (2, 20, 2.5, 'two'),
        (3, 30, -0.5, 'three'),
        (4, 40, 4.0, 'four');
    )").ok());
  }

  QueryResult Q(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result.value()) : QueryResult();
  }

  Status Err(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_FALSE(result.ok()) << sql << " unexpectedly succeeded";
    return result.ok() ? Status::OK() : result.status();
  }

  Database db_;
};

TEST_F(SqlExecTest, SelectStar) {
  QueryResult r = Q("SELECT * FROM nums");
  EXPECT_EQ(r.NumRows(), 4u);
  EXPECT_EQ(r.NumColumns(), 4u);
  EXPECT_EQ(r.schema().column(0).name, "a");
}

TEST_F(SqlExecTest, Projection) {
  QueryResult r = Q("SELECT a + b AS total, name FROM nums");
  EXPECT_EQ(r.GetInt64(0, 0), 11);
  EXPECT_EQ(r.GetString(3, 1), "four");
  EXPECT_EQ(r.schema().column(0).name, "total");
}

TEST_F(SqlExecTest, WhereFilters) {
  QueryResult r = Q("SELECT a FROM nums WHERE b >= 20 AND d > 0");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.GetInt64(0, 0), 2);
  EXPECT_EQ(r.GetInt64(1, 0), 4);
}

TEST_F(SqlExecTest, ArithmeticSemantics) {
  QueryResult r = Q("SELECT 7 / 2, 7 % 3, -a, 2 * d FROM nums LIMIT 1");
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 0), 3.5);  // '/' is always DOUBLE
  EXPECT_EQ(r.GetInt64(0, 1), 1);
  EXPECT_EQ(r.GetInt64(0, 2), -1);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 3), 3.0);
}

TEST_F(SqlExecTest, DivisionByZeroYieldsNull) {
  QueryResult r = Q("SELECT 1 / 0, 5 % 0");
  EXPECT_TRUE(r.GetValue(0, 0).is_null());
  EXPECT_TRUE(r.GetValue(0, 1).is_null());
}

TEST_F(SqlExecTest, IntegerModAndShiftEdgeCases) {
  // x % -1 is 0, also at the type's minimum, where the remainder
  // instruction traps.
  const std::string min64 = "(-9223372036854775807 - 1)";
  const std::string min128 = "(-170141183460469231731687303715884105727 - 1)";
  QueryResult m = Q("SELECT " + min64 + " % -1, MOD(" + min64 + ", -1), " +
                    min128 + " % -1, MOD(" + min128 + ", -1), 7 % -1");
  ASSERT_EQ(m.NumColumns(), 5u);
  for (size_t c = 0; c < m.NumColumns(); ++c) {
    EXPECT_EQ(m.GetValue(0, c).ToString(), "0") << "column " << c;
  }
  EXPECT_EQ(m.GetValue(0, 0).type(), DataType::kBigInt);
  EXPECT_EQ(m.GetValue(0, 2).type(), DataType::kHugeInt);

  // A shift count outside [0, bit width) gives NULL; the other rows of the
  // same chunk still shift.
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE sh (c BIGINT, x BIGINT, h HUGEINT);
    INSERT INTO sh VALUES (-1, 1, 1), (0, -1, -1), (63, 1, 1), (63, -1, -1),
                          (64, 1, 1), (127, 1, 1), (128, 1, 1);
  )").ok());
  QueryResult s = Q("SELECT x << c, x >> c, h << c, h >> c FROM sh");
  const std::vector<std::vector<std::string>> want = {
      {"NULL", "NULL", "NULL", "NULL"},
      {"-1", "-1", "-1", "-1"},
      {"-9223372036854775808", "0", "9223372036854775808", "0"},
      {"-9223372036854775808", "-1", "-9223372036854775808", "-1"},
      {"NULL", "NULL", "18446744073709551616", "0"},
      {"NULL", "NULL", "-170141183460469231731687303715884105728", "0"},
      {"NULL", "NULL", "NULL", "NULL"},
  };
  ASSERT_EQ(s.NumRows(), want.size());
  for (uint64_t row = 0; row < s.NumRows(); ++row) {
    for (size_t c = 0; c < 4; ++c) {
      Value v = s.GetValue(row, c);
      EXPECT_EQ(v.is_null() ? "NULL" : v.ToString(), want[row][c])
          << "row " << row << " column " << c;
    }
  }
}

TEST_F(SqlExecTest, IntegerOverflowGivesNull) {
  // An integer +, -, *, unary - or ABS whose result does not fit its type
  // is NULL, as x / 0 is. Each row is computed over columns (the kernels)
  // and over literals (folded at bind time), next to neighbours that fit.
  struct Row {
    std::string x, y;
    std::vector<std::string> want;  // x + y, x - y, x * y, -x, ABS(x)
  };
  const std::string max64 = "9223372036854775807";
  const std::string min64 = "(-9223372036854775807 - 1)";
  const std::string max128 = "170141183460469231731687303715884105727";
  const std::string min128 = "(-170141183460469231731687303715884105727 - 1)";
  const std::string p126 = "85070591730234615865843651857942052864";
  const std::vector<Row> bigint_rows = {
      {max64, "1",
       {"NULL", "9223372036854775806", max64, "-9223372036854775807", max64}},
      {max64, "0", {max64, max64, "0", "-9223372036854775807", max64}},
      {min64, "-1", {"NULL", "-9223372036854775807", "NULL", "NULL", "NULL"}},
      {min64, "1",
       {"-9223372036854775807", "NULL", "-9223372036854775808", "NULL",
        "NULL"}},
      {"4611686018427387904", "2",
       {"4611686018427387906", "4611686018427387902", "NULL",
        "-4611686018427387904", "4611686018427387904"}},
  };
  const std::vector<Row> hugeint_rows = {
      {max128, "1",
       {"NULL", "170141183460469231731687303715884105726", max128,
        "-170141183460469231731687303715884105727", max128}},
      {max128, "0",
       {max128, max128, "0", "-170141183460469231731687303715884105727",
        max128}},
      {min128, "-1",
       {"NULL", "-170141183460469231731687303715884105727", "NULL", "NULL",
        "NULL"}},
      {min128, "1",
       {"-170141183460469231731687303715884105727", "NULL",
        "-170141183460469231731687303715884105728", "NULL", "NULL"}},
      {p126, "2",
       {"85070591730234615865843651857942052866",
        "85070591730234615865843651857942052862", "NULL",
        "-85070591730234615865843651857942052864", p126}},
  };
  for (const auto& [type, rows] :
       {std::pair{std::string("BIGINT"), bigint_rows},
        std::pair{std::string("HUGEINT"), hugeint_rows}}) {
    const std::string table = "ov_" + type;
    ASSERT_TRUE(db_.ExecuteScript("CREATE TABLE " + table + " (x " + type +
                                  ", y " + type + ")")
                    .ok());
    for (const Row& row : rows) {
      ASSERT_TRUE(db_.ExecuteScript("INSERT INTO " + table + " VALUES (" +
                                    row.x + ", " + row.y + ")")
                      .ok());
    }
    QueryResult cols =
        Q("SELECT x + y, x - y, x * y, -x, ABS(x) FROM " + table);
    ASSERT_EQ(cols.NumRows(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      const std::string x = "(" + rows[r].x + ")";
      const std::string y = "(" + rows[r].y + ")";
      QueryResult lits = Q("SELECT " + x + " + " + y + ", " + x + " - " + y +
                           ", " + x + " * " + y + ", -" + x + ", ABS(" + x +
                           ")");
      ASSERT_EQ(lits.NumRows(), 1u);
      for (size_t c = 0; c < rows[r].want.size(); ++c) {
        EXPECT_EQ(cols.GetValue(r, c).ToString(), rows[r].want[c])
            << type << " columns, row " << r << ", column " << c;
        EXPECT_EQ(lits.GetValue(0, c).ToString(), rows[r].want[c])
            << type << " literals, row " << r << ", column " << c;
      }
    }
  }
}

TEST_F(SqlExecTest, RoundTakesDigitsPerRow) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE rd (x DOUBLE, d BIGINT);
    INSERT INTO rd VALUES (3.14159, 0), (3.14159, 2), (3.14159, NULL),
                          (2.5, 3), (NULL, 1);
  )").ok());
  QueryResult r = Q("SELECT ROUND(x, d), ROUND(x) FROM rd");
  ASSERT_EQ(r.NumRows(), 5u);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(1, 0), 3.14);
  EXPECT_TRUE(r.GetValue(2, 0).is_null());
  EXPECT_DOUBLE_EQ(r.GetDouble(3, 0), 2.5);
  EXPECT_TRUE(r.GetValue(4, 0).is_null());
  EXPECT_DOUBLE_EQ(r.GetDouble(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(3, 1), 3.0);
}

TEST_F(SqlExecTest, BitwiseOperatorsTable1) {
  // All five operators of the paper's Table 1, plus XOR.
  QueryResult r =
      Q("SELECT 12 & 10, 12 | 3, ~0, 3 << 4, 48 >> 3, 12 ^ 10");
  EXPECT_EQ(r.GetInt64(0, 0), 8);
  EXPECT_EQ(r.GetInt64(0, 1), 15);
  EXPECT_EQ(r.GetInt64(0, 2), -1);
  EXPECT_EQ(r.GetInt64(0, 3), 48);
  EXPECT_EQ(r.GetInt64(0, 4), 6);
  EXPECT_EQ(r.GetInt64(0, 5), 6);
}

TEST_F(SqlExecTest, HugeIntBitwise) {
  // 2^100 as a literal forces HUGEINT arithmetic. Note: a BIGINT shifted by
  // >= 64 is undefined (as in C); widths must be widened with CAST first,
  // which is exactly what the Qymera translator emits.
  QueryResult r = Q(
      "SELECT (1267650600228229401496703205376 >> 99), "
      "(CAST(1 AS HUGEINT) << 100) & 1267650600228229401496703205376, "
      "~0 & 1267650600228229401496703205376");
  EXPECT_EQ(r.GetInt64(0, 0), 2);
  EXPECT_EQ(Int128ToString(r.GetInt128(0, 1)),
            "1267650600228229401496703205376");
  // Sign extension: ~0 (BIGINT) promoted to HUGEINT keeps all high bits set.
  EXPECT_EQ(Int128ToString(r.GetInt128(0, 2)),
            "1267650600228229401496703205376");
}

TEST_F(SqlExecTest, GroupByWithAggregates) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
      CREATE TABLE g (k BIGINT, v DOUBLE);
      INSERT INTO g VALUES (1, 1.0), (1, 2.0), (2, 10.0), (2, -10.0), (3, 5.0);
  )").ok());
  QueryResult r = Q(
      "SELECT k, SUM(v), COUNT(*), AVG(v), MIN(v), MAX(v) FROM g GROUP BY k "
      "ORDER BY k");
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 1), 3.0);
  EXPECT_EQ(r.GetInt64(0, 2), 2);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 3), 1.5);
  EXPECT_DOUBLE_EQ(r.GetDouble(1, 1), 0.0);  // interference-style cancel
  EXPECT_DOUBLE_EQ(r.GetDouble(2, 4), 5.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(2, 5), 5.0);
}

TEST_F(SqlExecTest, GroupByExpressionMatchedByText) {
  QueryResult r =
      Q("SELECT (a & ~1) AS s, SUM(d) FROM nums GROUP BY (a & ~1) ORDER BY s");
  ASSERT_EQ(r.NumRows(), 3u);  // groups 0 (a=1), 2 (a=2,3), 4 (a=4)
  EXPECT_EQ(r.GetInt64(0, 0), 0);
  EXPECT_DOUBLE_EQ(r.GetDouble(1, 1), 2.0);  // 2.5 + -0.5
}

TEST_F(SqlExecTest, GroupByMatchesColumnsBySourceColumn) {
  // A select item matches a GROUP BY key when its column references resolve
  // to the same source columns, whatever their case or qualification.
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE T0 (s BIGINT, r BIGINT);
    INSERT INTO T0 VALUES (0, 1), (1, 2), (2, 4), (3, 8), (1, 16), (2, 32);
  )").ok());
  auto rows = [&](const std::string& sql) {
    QueryResult r = Q(sql + " ORDER BY 1");
    std::vector<std::string> out;
    for (uint64_t i = 0; i < r.NumRows(); ++i) {
      std::string row;
      for (size_t c = 0; c < r.NumColumns(); ++c) {
        row += r.GetValue(i, c).ToString() + " ";
      }
      out.push_back(row);
    }
    return out;
  };
  const std::vector<std::string> by_s =
      rows("SELECT s, SUM(r) FROM T0 GROUP BY s");
  ASSERT_EQ(by_s.size(), 4u);
  for (const char* sql : {
           "SELECT S, SUM(r) FROM T0 GROUP BY s",
           "SELECT T0.s, SUM(r) FROM T0 GROUP BY t0.s",
           "SELECT s, SUM(r) FROM T0 GROUP BY T0.s",
           "SELECT t0.S, SUM(T0.R) FROM T0 GROUP BY s",
       }) {
    EXPECT_EQ(rows(sql), by_s) << sql;
  }
  const std::vector<std::string> by_parity =
      rows("SELECT (s & 1) AS k, SUM(r) FROM T0 GROUP BY (s & 1)");
  ASSERT_EQ(by_parity.size(), 2u);
  EXPECT_EQ(rows("SELECT (s & 1) AS k, SUM(r) FROM T0 GROUP BY (S & 1)"),
            by_parity);
  EXPECT_EQ(rows("SELECT (T0.s & 1) AS k, sum(r) FROM T0 GROUP BY (s & 1) "
                 "HAVING SUM(t0.r) > 0"),
            by_parity);
  // A different column or operator is still not the key.
  EXPECT_EQ(Err("SELECT r, SUM(s) FROM T0 GROUP BY s").code(),
            StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT (s | 1), SUM(r) FROM T0 GROUP BY (s & 1)").code(),
            StatusCode::kBindError);
}

TEST_F(SqlExecTest, QuotedKeywordColumns) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE q ("order" BIGINT, "select" BIGINT, v DOUBLE);
    INSERT INTO q VALUES (2, 1, 1.0), (1, 1, 2.0), (3, 2, 4.0);
  )").ok());
  QueryResult ordered = Q(R"(SELECT "order" FROM q ORDER BY "order" DESC)");
  ASSERT_EQ(ordered.NumRows(), 3u);
  EXPECT_EQ(ordered.schema().column(0).name, "order");
  EXPECT_EQ(ordered.GetInt64(0, 0), 3);
  EXPECT_EQ(ordered.GetInt64(2, 0), 1);
  QueryResult grouped = Q(
      R"(SELECT "select", SUM(v) FROM q GROUP BY "select" ORDER BY "select")");
  ASSERT_EQ(grouped.NumRows(), 2u);
  EXPECT_EQ(grouped.GetInt64(0, 0), 1);
  EXPECT_DOUBLE_EQ(grouped.GetDouble(0, 1), 3.0);
  EXPECT_EQ(grouped.GetInt64(1, 0), 2);
  EXPECT_DOUBLE_EQ(grouped.GetDouble(1, 1), 4.0);
  // Bare, the same words are reserved.
  EXPECT_EQ(Err("SELECT order FROM q").code(), StatusCode::kParseError);
  EXPECT_EQ(Err("SELECT v FROM q ORDER BY select").code(),
            StatusCode::kParseError);
}

TEST_F(SqlExecTest, GroupByOrdinal) {
  QueryResult r = Q("SELECT b % 20, COUNT(*) FROM nums GROUP BY 1 ORDER BY 1");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.GetInt64(0, 1), 2);
}

TEST_F(SqlExecTest, SumIntegerPromotesToHugeInt) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE big (v BIGINT);
    INSERT INTO big VALUES (9223372036854775807), (9223372036854775807);
  )").ok());
  QueryResult r = Q("SELECT SUM(v) FROM big");
  EXPECT_EQ(Int128ToString(r.GetInt128(0, 0)), "18446744073709551614");
}

TEST_F(SqlExecTest, ScalarAggregateOnEmptyInput) {
  ASSERT_TRUE(db_.ExecuteScript("CREATE TABLE empty (v DOUBLE)").ok());
  QueryResult r = Q("SELECT COUNT(*), SUM(v) FROM empty");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.GetInt64(0, 0), 0);
  EXPECT_TRUE(r.GetValue(0, 1).is_null());
}

TEST_F(SqlExecTest, Having) {
  QueryResult r = Q(
      "SELECT a % 2 AS parity, SUM(b) AS total FROM nums GROUP BY a % 2 "
      "HAVING SUM(b) > 45 ORDER BY parity");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.GetInt64(0, 0), 0);  // 10-wait: b of evens = 20+40 = 60
  EXPECT_EQ(r.GetInt64(0, 1), 60);
}

TEST_F(SqlExecTest, JoinOnExpression) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE gate (in_s BIGINT, out_s BIGINT, w DOUBLE);
    INSERT INTO gate VALUES (0, 1, 0.5), (1, 0, 0.5), (0, 0, 0.5), (1, 1, -0.5);
  )").ok());
  QueryResult r = Q(
      "SELECT nums.a, gate.out_s, gate.w FROM nums JOIN gate "
      "ON gate.in_s = (nums.a & 1) ORDER BY nums.a, gate.out_s");
  EXPECT_EQ(r.NumRows(), 8u);  // each row matches 2 gate rows
}

TEST_F(SqlExecTest, JoinReversedCondition) {
  // Condition written as probe = build (sides must be classified).
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE r2 (x BIGINT);
    INSERT INTO r2 VALUES (1), (2);
  )").ok());
  QueryResult r =
      Q("SELECT nums.a FROM nums JOIN r2 ON (nums.a % 2) = (r2.x % 2) "
        "ORDER BY nums.a");
  EXPECT_EQ(r.NumRows(), 4u);
}

TEST_F(SqlExecTest, CrossJoinAndResidual) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE r3 (x BIGINT);
    INSERT INTO r3 VALUES (1), (2), (3);
  )").ok());
  QueryResult cross = Q("SELECT * FROM nums, r3");
  EXPECT_EQ(cross.NumRows(), 12u);
  // Non-equi join condition becomes a residual filter.
  QueryResult residual =
      Q("SELECT nums.a, r3.x FROM nums JOIN r3 ON nums.a < r3.x "
        "ORDER BY nums.a, r3.x");
  EXPECT_EQ(residual.NumRows(), 3u);  // (1,2),(1,3),(2,3)
}

TEST_F(SqlExecTest, ThreeWayJoin) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE j1 (k BIGINT, v VARCHAR);
    CREATE TABLE j2 (k BIGINT, w VARCHAR);
    INSERT INTO j1 VALUES (1, 'a'), (2, 'b');
    INSERT INTO j2 VALUES (1, 'x'), (2, 'y');
  )").ok());
  QueryResult r = Q(
      "SELECT nums.a, j1.v, j2.w FROM nums JOIN j1 ON j1.k = nums.a "
      "JOIN j2 ON j2.k = j1.k ORDER BY nums.a");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.GetString(1, 2), "y");
}

TEST_F(SqlExecTest, OrderByDirectionsAndLimit) {
  QueryResult r = Q("SELECT a FROM nums ORDER BY d DESC LIMIT 2");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.GetInt64(0, 0), 4);
  EXPECT_EQ(r.GetInt64(1, 0), 2);
}

TEST_F(SqlExecTest, OrderByNullsFirst) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE withnull (v BIGINT);
    INSERT INTO withnull VALUES (2), (NULL), (1);
  )").ok());
  QueryResult r = Q("SELECT v FROM withnull ORDER BY v");
  EXPECT_TRUE(r.GetValue(0, 0).is_null());
  EXPECT_EQ(r.GetInt64(1, 0), 1);
}

TEST_F(SqlExecTest, Distinct) {
  QueryResult r = Q("SELECT DISTINCT a % 2 FROM nums ORDER BY 1");
  ASSERT_EQ(r.NumRows(), 2u);
}

TEST_F(SqlExecTest, CtesChainAndShadow) {
  QueryResult r = Q(R"(
    WITH t1 AS (SELECT a * 2 AS x FROM nums),
         t2 AS (SELECT x + 1 AS y FROM t1)
    SELECT SUM(y) FROM t2)");
  EXPECT_EQ(Int128ToString(r.GetInt128(0, 0)), "24");  // (2+4+6+8)+4
}

TEST_F(SqlExecTest, SubqueryInFrom) {
  QueryResult r =
      Q("SELECT q.t FROM (SELECT a + b AS t FROM nums) AS q WHERE q.t > 30");
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST_F(SqlExecTest, CaseExpression) {
  QueryResult r = Q(
      "SELECT CASE WHEN d > 2 THEN 'hi' WHEN d > 0 THEN 'mid' ELSE 'lo' END "
      "FROM nums ORDER BY a");
  EXPECT_EQ(r.GetString(0, 0), "mid");
  EXPECT_EQ(r.GetString(1, 0), "hi");
  EXPECT_EQ(r.GetString(2, 0), "lo");
}

TEST_F(SqlExecTest, CaseWithoutElseYieldsNull) {
  QueryResult r = Q("SELECT CASE WHEN a > 100 THEN 1 END FROM nums LIMIT 1");
  EXPECT_TRUE(r.GetValue(0, 0).is_null());
}

TEST_F(SqlExecTest, ScalarFunctions) {
  QueryResult r = Q(
      "SELECT ABS(-3), SQRT(16.0), POW(2, 10), ROUND(2.567, 2), "
      "FLOOR(2.9), CEIL(2.1), MOD(7, 3)");
  EXPECT_EQ(r.GetInt64(0, 0), 3);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 2), 1024.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 3), 2.57);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 4), 2.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 5), 3.0);
  EXPECT_EQ(r.GetInt64(0, 6), 1);
}

TEST_F(SqlExecTest, StringFunctions) {
  QueryResult r = Q(
      "SELECT SUBSTR('qymera', 2, 3), LENGTH(name), CONCAT(name, '!'), "
      "name || '?' FROM nums WHERE a = 1");
  EXPECT_EQ(r.GetString(0, 0), "yme");
  EXPECT_EQ(r.GetInt64(0, 1), 3);
  EXPECT_EQ(r.GetString(0, 2), "one!");
  EXPECT_EQ(r.GetString(0, 3), "one?");
}

TEST_F(SqlExecTest, CastExpression) {
  QueryResult r =
      Q("SELECT CAST('12' AS BIGINT) + 1, CAST(a AS VARCHAR) FROM nums "
        "WHERE a = 2");
  EXPECT_EQ(r.GetInt64(0, 0), 13);
  EXPECT_EQ(r.GetString(0, 1), "2");
}

TEST_F(SqlExecTest, InsertSelect) {
  ASSERT_TRUE(db_.ExecuteScript("CREATE TABLE copy (a BIGINT, b BIGINT)").ok());
  QueryResult r = Q("INSERT INTO copy SELECT a, b FROM nums WHERE a <= 2");
  EXPECT_EQ(r.rows_changed, 2u);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM copy").GetInt64(0, 0), 2);
}

TEST_F(SqlExecTest, CreateTableAsSelect) {
  QueryResult r = Q("CREATE TABLE doubled AS SELECT a * 2 AS a2 FROM nums");
  EXPECT_EQ(r.rows_changed, 4u);
  EXPECT_EQ(Q("SELECT MAX(a2) FROM doubled").GetInt64(0, 0), 8);
}

TEST_F(SqlExecTest, DropTable) {
  ASSERT_TRUE(db_.ExecuteScript("CREATE TABLE gone (x BIGINT)").ok());
  ASSERT_TRUE(db_.Execute("DROP TABLE gone").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM gone").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS gone").ok());
  EXPECT_FALSE(db_.Execute("DROP TABLE gone").ok());
}

TEST_F(SqlExecTest, SelectConstantsWithoutFrom) {
  QueryResult r = Q("SELECT 1 + 1, 'x'");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.GetInt64(0, 0), 2);
}

TEST_F(SqlExecTest, NullPropagationInExpressions) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE n2 (v BIGINT);
    INSERT INTO n2 VALUES (1), (NULL);
  )").ok());
  QueryResult r = Q("SELECT v + 1, v IS NULL, v IS NOT NULL FROM n2 ORDER BY v");
  EXPECT_TRUE(r.GetValue(0, 0).is_null());
  EXPECT_EQ(r.GetValue(0, 1).bool_value(), true);
  EXPECT_EQ(r.GetInt64(1, 0), 2);
}

TEST_F(SqlExecTest, AndOrFollowThreeValuedLogic) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE tv (x BOOLEAN, y BOOLEAN);
    INSERT INTO tv VALUES
      (TRUE, TRUE), (TRUE, FALSE), (TRUE, NULL),
      (FALSE, TRUE), (FALSE, FALSE), (FALSE, NULL),
      (NULL, TRUE), (NULL, FALSE), (NULL, NULL);
  )").ok());
  auto render = [](const Value& v) {
    return v.is_null() ? 'N' : (v.bool_value() ? 'T' : 'F');
  };
  QueryResult r = Q("SELECT x AND y, x OR y FROM tv");
  ASSERT_EQ(r.NumRows(), 9u);
  std::string and_table, or_table;
  for (uint64_t row = 0; row < r.NumRows(); ++row) {
    and_table += render(r.GetValue(row, 0));
    or_table += render(r.GetValue(row, 1));
  }
  EXPECT_EQ(and_table, "TFNFFFNFN");
  EXPECT_EQ(or_table, "TTTTFNTNN");

  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE kn (k BIGINT);
    INSERT INTO kn VALUES (NULL), (1), (20);
  )").ok());
  EXPECT_EQ(Q("SELECT COUNT(*) FROM kn WHERE k IS NULL OR k < 16")
                .GetInt64(0, 0),
            2);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM kn WHERE NOT (k IS NOT NULL AND k >= 16)")
                .GetInt64(0, 0),
            2);
}

TEST_F(SqlExecTest, AggregatesSkipNulls) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE n3 (v DOUBLE);
    INSERT INTO n3 VALUES (1.0), (NULL), (3.0);
  )").ok());
  QueryResult r = Q("SELECT COUNT(v), COUNT(*), SUM(v), AVG(v) FROM n3");
  EXPECT_EQ(r.GetInt64(0, 0), 2);
  EXPECT_EQ(r.GetInt64(0, 1), 3);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 3), 2.0);
}

TEST_F(SqlExecTest, BindErrors) {
  EXPECT_EQ(Err("SELECT nosuch FROM nums").code(), StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT * FROM nosuch").code(), StatusCode::kNotFound);
  EXPECT_EQ(Err("SELECT a FROM nums GROUP BY b").code(),
            StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT name & 1 FROM nums").code(), StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT SUM(a) FROM nums WHERE SUM(a) > 1").code(),
            StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT a FROM nums HAVING a > 1").code(),
            StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT a FROM nums ORDER BY 99").code(),
            StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT NOSUCHFUNC(a) FROM nums").code(),
            StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT ABS(name) FROM nums").code(), StatusCode::kBindError);
}

TEST_F(SqlExecTest, AmbiguousColumnIsError) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE other (a BIGINT);
    INSERT INTO other VALUES (1);
  )").ok());
  EXPECT_EQ(Err("SELECT a FROM nums, other").code(), StatusCode::kBindError);
  // Qualified access works.
  EXPECT_EQ(Q("SELECT other.a FROM nums, other").NumRows(), 4u);
}

TEST_F(SqlExecTest, DuplicateCreateFails) {
  EXPECT_EQ(Err("CREATE TABLE nums (x BIGINT)").code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db_.Execute("CREATE TABLE IF NOT EXISTS nums (x BIGINT)").ok());
}

TEST_F(SqlExecTest, InsertArityChecked) {
  EXPECT_FALSE(db_.Execute("INSERT INTO nums VALUES (1, 2)").ok());
}

TEST_F(SqlExecTest, ExplainProducesPlan) {
  auto text = db_.Explain(
      "SELECT a, SUM(d) FROM nums WHERE b > 10 GROUP BY a ORDER BY a");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("HashAggregate"), std::string::npos);
  EXPECT_NE(text->find("Scan nums"), std::string::npos);
  EXPECT_NE(text->find("Sort"), std::string::npos);
}

TEST_F(SqlExecTest, ResultToStringRenders) {
  QueryResult r = Q("SELECT a, name FROM nums ORDER BY a LIMIT 2");
  std::string text = r.ToString();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("one"), std::string::npos);
}

}  // namespace
}  // namespace qy::sql
