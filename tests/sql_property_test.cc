/// Algebraic property tests of the relsql engine on randomized data: the
/// invariants a relational engine must satisfy regardless of input, checked
/// against independently computed expectations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include "common/random.h"
#include "common/strings.h"
#include "sql/database.h"

namespace qy::sql {
namespace {

/// Random table r rows of (k BIGINT in [0, key_range), v BIGINT, d DOUBLE).
void FillRandom(Database* db, const std::string& name, int rows, int key_range,
                uint64_t seed, std::vector<std::array<int64_t, 2>>* data) {
  ASSERT_TRUE(db->ExecuteScript("CREATE TABLE " + name +
                                " (k BIGINT, v BIGINT, d DOUBLE)")
                  .ok());
  auto table = db->catalog().GetTable(name);
  Rng rng(seed);
  for (int r = 0; r < rows; ++r) {
    int64_t k = rng.UniformInt(0, key_range - 1);
    int64_t v = rng.UniformInt(-100, 100);
    ASSERT_TRUE((*table)
                    ->AppendRow({Value::BigInt(k), Value::BigInt(v),
                                 Value::Double(static_cast<double>(v) / 4)})
                    .ok());
    if (data != nullptr) data->push_back({k, v});
  }
}

class SqlPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlPropertyTest, GroupBySumsMatchManualAggregation) {
  Database db;
  std::vector<std::array<int64_t, 2>> data;
  FillRandom(&db, "t", 2000, 37, GetParam(), &data);
  std::map<int64_t, int64_t> expect_sum;
  std::map<int64_t, int64_t> expect_count;
  for (const auto& [k, v] : data) {
    expect_sum[k] += v;
    expect_count[k] += 1;
  }
  auto result = db.Execute("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k "
                           "ORDER BY k");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), expect_sum.size());
  uint64_t row = 0;
  for (const auto& [k, sum] : expect_sum) {
    EXPECT_EQ(result->GetInt64(row, 0), k);
    EXPECT_EQ(result->GetInt64(row, 1), sum);
    EXPECT_EQ(result->GetInt64(row, 2), expect_count[k]);
    ++row;
  }
}

TEST_P(SqlPropertyTest, JoinCardinalityMatchesKeyHistogram) {
  Database db;
  std::vector<std::array<int64_t, 2>> left, right;
  FillRandom(&db, "a", 500, 23, GetParam(), &left);
  FillRandom(&db, "b", 300, 23, GetParam() + 1, &right);
  std::map<int64_t, int64_t> hist;
  for (const auto& [k, v] : right) ++hist[k];
  int64_t expect = 0;
  for (const auto& [k, v] : left) expect += hist.count(k) ? hist[k] : 0;
  auto result =
      db.Execute("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetInt64(0, 0), expect);
}

TEST_P(SqlPropertyTest, JoinIsSymmetric) {
  Database db;
  FillRandom(&db, "a", 400, 17, GetParam(), nullptr);
  FillRandom(&db, "b", 400, 17, GetParam() + 7, nullptr);
  auto ab = db.Execute("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k");
  auto ba = db.Execute("SELECT COUNT(*) FROM b JOIN a ON b.k = a.k");
  ASSERT_TRUE(ab.ok() && ba.ok());
  EXPECT_EQ(ab->GetInt64(0, 0), ba->GetInt64(0, 0));
}

TEST_P(SqlPropertyTest, WherePartitionsRows) {
  Database db;
  FillRandom(&db, "t", 1500, 29, GetParam(), nullptr);
  auto all = db.Execute("SELECT COUNT(*) FROM t");
  auto pos = db.Execute("SELECT COUNT(*) FROM t WHERE v >= 0");
  auto neg = db.Execute("SELECT COUNT(*) FROM t WHERE NOT v >= 0");
  ASSERT_TRUE(all.ok() && pos.ok() && neg.ok());
  EXPECT_EQ(pos->GetInt64(0, 0) + neg->GetInt64(0, 0), all->GetInt64(0, 0));
}

TEST_P(SqlPropertyTest, SumIsLinear) {
  // SUM(3*v + 2) == 3*SUM(v) + 2*COUNT(v).
  Database db;
  FillRandom(&db, "t", 1000, 11, GetParam(), nullptr);
  auto result = db.Execute(
      "SELECT SUM(3 * v + 2), SUM(v), COUNT(v) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetInt128(0, 0),
            3 * result->GetInt128(0, 1) + 2 * result->GetInt128(0, 2));
}

TEST_P(SqlPropertyTest, DistinctCountsGroups) {
  Database db;
  FillRandom(&db, "t", 800, 19, GetParam(), nullptr);
  auto distinct =
      db.Execute("SELECT COUNT(*) FROM (SELECT DISTINCT k FROM t) AS d");
  auto grouped = db.Execute(
      "SELECT COUNT(*) FROM (SELECT k, COUNT(*) AS c FROM t GROUP BY k) AS g");
  ASSERT_TRUE(distinct.ok() && grouped.ok());
  EXPECT_EQ(distinct->GetInt64(0, 0), grouped->GetInt64(0, 0));
}

TEST_P(SqlPropertyTest, OrderByIsTotalAndStable) {
  Database db;
  FillRandom(&db, "t", 600, 13, GetParam(), nullptr);
  auto result = db.Execute("SELECT k, v FROM t ORDER BY k, v DESC");
  ASSERT_TRUE(result.ok());
  for (uint64_t r = 1; r < result->NumRows(); ++r) {
    int64_t pk = result->GetInt64(r - 1, 0), ck = result->GetInt64(r, 0);
    ASSERT_LE(pk, ck);
    if (pk == ck) {
      ASSERT_GE(result->GetInt64(r - 1, 1), result->GetInt64(r, 1));
    }
  }
}

TEST_P(SqlPropertyTest, LimitIsPrefixOfOrdered) {
  Database db;
  FillRandom(&db, "t", 500, 31, GetParam(), nullptr);
  auto full = db.Execute("SELECT v FROM t ORDER BY v, k LIMIT 500");
  auto limited = db.Execute("SELECT v FROM t ORDER BY v, k LIMIT 7");
  ASSERT_TRUE(full.ok() && limited.ok());
  ASSERT_EQ(limited->NumRows(), 7u);
  for (uint64_t r = 0; r < 7; ++r) {
    EXPECT_EQ(limited->GetInt64(r, 0), full->GetInt64(r, 0));
  }
}

TEST_P(SqlPropertyTest, HavingEqualsPostFilter) {
  Database db;
  FillRandom(&db, "t", 900, 21, GetParam(), nullptr);
  auto having = db.Execute(
      "SELECT k, SUM(v) AS sv FROM t GROUP BY k HAVING SUM(v) > 10 "
      "ORDER BY k");
  auto subquery = db.Execute(
      "SELECT g.k, g.sv FROM (SELECT k, SUM(v) AS sv FROM t GROUP BY k) AS g "
      "WHERE g.sv > 10 ORDER BY g.k");
  ASSERT_TRUE(having.ok() && subquery.ok());
  ASSERT_EQ(having->NumRows(), subquery->NumRows());
  for (uint64_t r = 0; r < having->NumRows(); ++r) {
    EXPECT_EQ(having->GetInt64(r, 0), subquery->GetInt64(r, 0));
    EXPECT_EQ(having->GetInt128(r, 1), subquery->GetInt128(r, 1));
  }
}

TEST_P(SqlPropertyTest, SpillInvariance) {
  // The same aggregation with and without a memory budget must agree. The
  // ~6300 inner groups outgrow the budget next to the 240 KiB base table.
  Database big;
  FillRandom(&big, "t", 10000, 10000, GetParam(), nullptr);
  DatabaseOptions opts;
  opts.memory_budget_bytes = 400 << 10;
  Database small(opts);
  FillRandom(&small, "t", 10000, 10000, GetParam(), nullptr);
  const char* sql = "SELECT SUM(v), COUNT(*), MIN(v), MAX(v) FROM "
                    "(SELECT k, SUM(v) AS v FROM t GROUP BY k) AS g";
  auto a = big.Execute(sql);
  auto b = small.Execute(sql);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->stats.rows_spilled, 0u);
  ASSERT_GT(b->stats.rows_spilled, 0u) << "budget did not trigger a spill";
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(a->GetValue(0, c).ToString(), b->GetValue(0, c).ToString());
  }
}

TEST_P(SqlPropertyTest, BitwiseRoundTripInSql) {
  // Scatter/gather identity evaluated by the engine itself: for qubit block
  // [2..4], ((s & ~28) | (((s >> 2) & 7) << 2)) == s.
  Database db;
  FillRandom(&db, "t", 400, 1000, GetParam(), nullptr);
  auto result = db.Execute(
      "SELECT COUNT(*) FROM t WHERE ((k & ~28) | (((k >> 2) & 7) << 2)) <> k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetInt64(0, 0), 0);
}

/// Random typed expression trees for LiteralColumnAndFoldedOperandsAgree.
/// Every tree renders three ways over one table: with its literals as SQL
/// literals, with each literal read from a column that holds it in every
/// row, and with each repeated data-column reference read from a copy of
/// that column.
class OperandTreeGen {
 public:
  enum class Kind { kBigInt, kHugeInt, kDouble, kBool };

  struct Tree {
    std::string lit, col, copy;
    bool literal_only = true;
  };

  explicit OperandTreeGen(uint64_t seed) : rng_(seed) {}

  /// A tree of result kind `kind` and depth at most `depth`. With
  /// `literal_only`, every leaf is a literal.
  Tree Gen(Kind kind, int depth, bool literal_only,
           std::set<std::string>* seen) {
    if (depth == 0 || rng_.Bernoulli(0.25)) {
      return Leaf(kind, literal_only, seen);
    }
    switch (kind) {
      case Kind::kBigInt:
      case Kind::kHugeInt: {
        int pick = static_cast<int>(rng_.UniformInt(0, 10));
        if (pick <= 1) {
          return Unary(pick == 0 ? "-" : "~",
                       Gen(kind, depth - 1, literal_only, seen));
        }
        static const char* kOps[] = {"+", "-", "*", "%", "&", "|",
                                     "^", "<<", ">>"};
        std::string op = kOps[rng_.UniformInt(0, 8)];
        bool shift = op == "<<" || op == ">>";
        // A HUGEINT result needs a HUGEINT operand; a shift takes its type
        // from the left one, and a BIGINT left one only a BIGINT count.
        Kind left = kind, right = kind;
        if (kind == Kind::kHugeInt && !shift && rng_.Bernoulli(0.3)) {
          (rng_.Bernoulli(0.5) ? left : right) = Kind::kBigInt;
        }
        if (shift && kind == Kind::kHugeInt && rng_.Bernoulli(0.5)) {
          right = Kind::kBigInt;
        }
        Tree l = Gen(left, depth - 1, literal_only, seen);
        Tree r = Gen(right, depth - 1, literal_only, seen);
        return Binary(l, op, r);
      }
      case Kind::kDouble: {
        if (rng_.UniformInt(0, 8) == 0) {
          return Unary("-", Gen(kind, depth - 1, literal_only, seen));
        }
        static const char* kOps[] = {"+", "-", "*", "/", "%"};
        std::string op = kOps[rng_.UniformInt(0, 4)];
        // One operand DOUBLE keeps the result DOUBLE ('/' always is).
        Kind other = AnyNumeric();
        bool left_double = rng_.Bernoulli(0.5);
        Tree l = Gen(left_double ? Kind::kDouble : other, depth - 1,
                     literal_only, seen);
        Tree r = Gen(left_double ? other : Kind::kDouble, depth - 1,
                     literal_only, seen);
        return Binary(l, op, r);
      }
      case Kind::kBool: {
        int pick = static_cast<int>(rng_.UniformInt(0, 5));
        if (pick == 0) {
          return Unary("NOT ", Gen(kind, depth - 1, literal_only, seen));
        }
        if (pick == 1) {
          Tree t = Gen(AnyKind(), depth - 1, literal_only, seen);
          return {"(" + t.lit + " IS NULL)", "(" + t.col + " IS NULL)",
                  "(" + t.copy + " IS NULL)", t.literal_only};
        }
        if (pick == 2) {
          Tree l = Gen(kind, depth - 1, literal_only, seen);
          Tree r = Gen(kind, depth - 1, literal_only, seen);
          return Binary(l, rng_.Bernoulli(0.5) ? "AND" : "OR", r);
        }
        static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
        std::string op = kOps[rng_.UniformInt(0, 5)];
        Tree l = Gen(AnyNumeric(), depth - 1, literal_only, seen);
        Tree r = Gen(AnyNumeric(), depth - 1, literal_only, seen);
        return Binary(l, op, r);
      }
    }
    return Leaf(kind, literal_only, seen);
  }

  Kind AnyKind() { return static_cast<Kind>(rng_.UniformInt(0, 3)); }
  Kind AnyNumeric() { return static_cast<Kind>(rng_.UniformInt(0, 2)); }
  Rng& rng() { return rng_; }

  /// The literal values each kind draws from; column "l<kind><i>" of the
  /// table holds value i in every row.
  static const std::vector<Value>& Pool(Kind kind) {
    static const std::vector<std::vector<Value>> pools = [] {
      const int128_t p64 = static_cast<int128_t>(1) << 64;
      const int128_t max128 = ~(static_cast<int128_t>(1) << 127);
      return std::vector<std::vector<Value>>{
          {Value::BigInt(0), Value::BigInt(1), Value::BigInt(3),
           Value::BigInt(-5), Value::BigInt(63), Value::BigInt(64),
           Value::BigInt(INT64_MAX), Value::BigInt(INT64_MIN)},
          {Value::HugeInt(p64), Value::HugeInt(-p64 * 3),
           Value::HugeInt(static_cast<int128_t>(1) << 126),
           Value::HugeInt(max128), Value::HugeInt(-max128 - 1)},
          {Value::Double(1.5), Value::Double(-0.0), Value::Double(0.0),
           Value::Double(-2.25), Value::Double(1e300), Value::Double(0.1)},
          {Value::Bool(true), Value::Bool(false)},
      };
    }();
    return pools[static_cast<size_t>(kind)];
  }

  static std::string LiteralColumn(Kind kind, size_t i) {
    return "l" + std::to_string(static_cast<int>(kind)) + std::to_string(i);
  }

  static std::string DataColumn(Kind kind, int i) {
    return "c" + std::to_string(static_cast<int>(kind)) + std::to_string(i);
  }

  /// `v` as SQL text that binds to a literal of its own type (negative
  /// numbers fold to one at bind time).
  static std::string SqlLiteral(const Value& v) {
    switch (v.type()) {
      case DataType::kBool:
        return v.bool_value() ? "TRUE" : "FALSE";
      case DataType::kBigInt:
        if (v.bigint_value() == INT64_MIN) return "(-9223372036854775807 - 1)";
        return v.bigint_value() < 0
                   ? "(-" + std::to_string(-v.bigint_value()) + ")"
                   : std::to_string(v.bigint_value());
      case DataType::kHugeInt: {
        int128_t h = v.hugeint_value();
        if (h == static_cast<int128_t>(1) << 127) {  // the minimum
          return "(-170141183460469231731687303715884105727 - 1)";
        }
        return h < 0 ? "(-" + Int128ToString(-h) + ")" : Int128ToString(h);
      }
      case DataType::kDouble: {
        double d = v.double_value();
        std::string text = StrFormat("%.17g", std::fabs(d));
        if (text.find_first_of(".e") == std::string::npos) text += ".0";
        return std::signbit(d) ? "(-" + text + ")" : text;
      }
      case DataType::kVarchar:
        break;
    }
    return "NULL";
  }

 private:
  Tree Leaf(Kind kind, bool literal_only, std::set<std::string>* seen) {
    if (literal_only || rng_.Bernoulli(0.4)) {
      size_t i = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(Pool(kind).size()) - 1));
      std::string text = SqlLiteral(Pool(kind)[i]);
      return {text, LiteralColumn(kind, i), text, true};
    }
    std::string name =
        DataColumn(kind, static_cast<int>(rng_.UniformInt(0, 1)));
    std::string copy = seen->count(name) ? name + "_copy" : name;
    seen->insert(name);
    return {name, name, copy, false};
  }

  static Tree Unary(const std::string& op, const Tree& t) {
    return {"(" + op + t.lit + ")", "(" + op + t.col + ")",
            "(" + op + t.copy + ")", t.literal_only};
  }

  static Tree Binary(const Tree& l, const std::string& op, const Tree& r) {
    return {"(" + l.lit + " " + op + " " + r.lit + ")",
            "(" + l.col + " " + op + " " + r.col + ")",
            "(" + l.copy + " " + op + " " + r.copy + ")",
            l.literal_only && r.literal_only};
  }

  Rng rng_;
};

/// Rows of a query result as text, doubles by their bits; or the error.
std::vector<std::string> RenderRows(Database* db, const std::string& sql) {
  auto result = db->Execute(sql);
  if (!result.ok()) return {"error: " + result.status().ToString()};
  std::vector<std::string> rows;
  for (uint64_t r = 0; r < result->NumRows(); ++r) {
    std::string row;
    for (size_t c = 0; c < result->NumColumns(); ++c) {
      Value v = result->GetValue(r, c);
      if (!v.is_null() && v.type() == DataType::kDouble) {
        double d = v.double_value();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        row += StrFormat("0x%016llx", static_cast<unsigned long long>(bits));
      } else {
        row += v.ToString();
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST_P(SqlPropertyTest, LiteralColumnAndFoldedOperandsAgree) {
  using Kind = OperandTreeGen::Kind;
  const Kind kinds[] = {Kind::kBigInt, Kind::kHugeInt, Kind::kDouble,
                        Kind::kBool};
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DatabaseOptions opts;
    opts.num_threads = threads;
    opts.chunk_size = 128;  // several chunks, so buffers are reused
    Database db(opts);
    // Data columns c<kind><0|1> with about 20% NULLs, a copy of each, and
    // one column per pool literal holding it in every row.
    std::string ddl = "CREATE TABLE t (";
    std::vector<std::string> names;
    for (Kind kind : kinds) {
      const char* type = kind == Kind::kBigInt    ? "BIGINT"
                         : kind == Kind::kHugeInt ? "HUGEINT"
                         : kind == Kind::kDouble  ? "DOUBLE"
                                                  : "BOOLEAN";
      for (int i = 0; i < 2; ++i) {
        std::string name = OperandTreeGen::DataColumn(kind, i);
        names.push_back(name + " " + type);
        names.push_back(name + "_copy " + type);
      }
      for (size_t i = 0; i < OperandTreeGen::Pool(kind).size(); ++i) {
        names.push_back(OperandTreeGen::LiteralColumn(kind, i) + " " + type);
      }
    }
    for (size_t i = 0; i < names.size(); ++i) {
      ddl += (i ? ", " : "") + names[i];
    }
    ASSERT_TRUE(db.ExecuteScript(ddl + ")").ok());
    auto table = db.catalog().GetTable("t");
    ASSERT_TRUE(table.ok());
    OperandTreeGen gen(GetParam());
    Rng& rng = gen.rng();
    for (int r = 0; r < 300; ++r) {
      std::vector<Value> row;
      for (Kind kind : kinds) {
        for (int i = 0; i < 2; ++i) {
          Value v;
          if (rng.Bernoulli(0.2)) {
            v = Value::Null(OperandTreeGen::Pool(kind)[0].type());
          } else if (rng.Bernoulli(0.3)) {
            const auto& pool = OperandTreeGen::Pool(kind);
            v = pool[rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1)];
          } else if (kind == Kind::kBigInt) {
            v = Value::BigInt(rng.UniformInt(-3, 70));
          } else if (kind == Kind::kHugeInt) {
            v = Value::HugeInt(static_cast<int128_t>(rng.UniformInt(-3, 130)) *
                               (rng.Bernoulli(0.5) ? 1 : int128_t{1} << 70));
          } else if (kind == Kind::kDouble) {
            v = Value::Double(rng.UniformDouble() * 200 - 100);
          } else {
            v = Value::Bool(rng.Bernoulli(0.5));
          }
          row.push_back(v);
          row.push_back(v);
        }
        for (const Value& lit : OperandTreeGen::Pool(kind)) row.push_back(lit);
      }
      ASSERT_TRUE((*table)->AppendRow(row).ok());
    }

    for (int e = 0; e < 80; ++e) {
      std::set<std::string> seen;
      bool literal_only = e % 4 == 3;
      OperandTreeGen::Tree tree =
          gen.Gen(gen.AnyKind(), 4, literal_only, &seen);
      SCOPED_TRACE(tree.lit);
      std::vector<std::string> lit =
          RenderRows(&db, "SELECT " + tree.lit + " FROM t");
      // (a) A literal agrees with a column holding it in every row.
      EXPECT_EQ(lit, RenderRows(&db, "SELECT " + tree.col + " FROM t"));
      // (b) A repeated column agrees with a copy of it: no in-place kernel
      // overwrote an operand that is read again.
      if (tree.copy != tree.lit) {
        EXPECT_EQ(lit, RenderRows(&db, "SELECT " + tree.copy + " FROM t"));
      }
      // (c) A literal-only tree, folded at bind time into one value, agrees
      // with the kernels evaluating it over columns of its literals.
      if (tree.literal_only) {
        std::vector<std::string> once = RenderRows(&db, "SELECT " + tree.lit);
        ASSERT_EQ(once.size(), 1u);
        if (once[0].rfind("error", 0) != 0) once.assign(300, once[0]);
        EXPECT_EQ(once, RenderRows(&db, "SELECT " + tree.col + " FROM t"));
      }
    }

    // (d) A fold that fails leaves the operator to fail per evaluated row:
    // nothing on an empty table, the unfolded error on a non-empty one. The
    // count's cast to BIGINT fails, also where it is a scalar operand.
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE e (a BIGINT); "
                                 "CREATE TABLE ne (a BIGINT); "
                                 "INSERT INTO ne VALUES (1)")
                    .ok());
    for (const char* shifted : {"1", "a"}) {
      const std::string sql = std::string("SELECT ") + shifted +
                              " << 100000000000000000000 FROM ";
      auto empty = db.Execute(sql + "e");
      ASSERT_TRUE(empty.ok()) << sql << "e: " << empty.status().ToString();
      EXPECT_EQ(empty->NumRows(), 0u);
      auto rows = db.Execute(sql + "ne");
      ASSERT_FALSE(rows.ok()) << sql << "ne";
      EXPECT_EQ(rows.status().ToString().rfind(
                    "InvalidArgument: HUGEINT out of BIGINT range", 0),
                0u)
          << rows.status().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Failure injection: malformed inputs must produce errors, not crashes.
// ---------------------------------------------------------------------------

TEST(FailureInjectionTest, MalformedSqlNeverCrashes) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a BIGINT)").ok());
  const char* bad[] = {
      "", ";", "SELECT", "SELEC * FROM t", "SELECT * FORM t",
      "SELECT (a FROM t", "SELECT * FROM t WHERE", "WITH x SELECT 1",
      "INSERT INTO", "CREATE TABLE", "SELECT * FROM t GROUP BY",
      "SELECT 'unterminated FROM t", "SELECT * FROM t ORDER LIMIT 1",
      "SELECT CAST(a AS) FROM t", "SELECT CASE a WHEN END FROM t",
  };
  for (const char* sql : bad) {
    auto result = db.Execute(sql);
    EXPECT_FALSE(result.ok()) << "accepted: " << sql;
  }
}

TEST(FailureInjectionTest, TypeErrorsAreBindErrors) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
      "CREATE TABLE t (a BIGINT, s VARCHAR); INSERT INTO t VALUES (1, 'x')")
                  .ok());
  for (const char* sql : {
           "SELECT s & 1 FROM t", "SELECT ~s FROM t", "SELECT -s FROM t",
           "SELECT a AND a FROM t", "SELECT NOT a FROM t",
           "SELECT s + 1 FROM t",
       }) {
    auto result = db.Execute(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kBindError) << sql;
  }
}

TEST(FailureInjectionTest, RuntimeCastFailuresPropagate) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
      "CREATE TABLE t (s VARCHAR); INSERT INTO t VALUES ('notanumber')")
                  .ok());
  auto result = db.Execute("SELECT CAST(s AS BIGINT) FROM t");
  EXPECT_FALSE(result.ok());
}

TEST(FailureInjectionTest, DeepExpressionNesting) {
  // 200 nested parens must parse (recursive descent headroom check).
  std::string sql = "SELECT ";
  for (int i = 0; i < 200; ++i) sql += "(";
  sql += "1";
  for (int i = 0; i < 200; ++i) sql += ")";
  Database db;
  auto result = db.Execute(sql);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetInt64(0, 0), 1);
}

TEST(FailureInjectionTest, EmptyTableQueries) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE e (a BIGINT, b DOUBLE)").ok());
  auto scan = db.Execute("SELECT * FROM e");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(), 0u);
  auto join = db.Execute("SELECT COUNT(*) FROM e AS x JOIN e AS y ON x.a = y.a");
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->GetInt64(0, 0), 0);
  auto grouped = db.Execute("SELECT a, SUM(b) FROM e GROUP BY a");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->NumRows(), 0u);
  auto sorted = db.Execute("SELECT a FROM e ORDER BY b DESC LIMIT 5");
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->NumRows(), 0u);
}

TEST(FailureInjectionTest, ZeroBudgetDatabaseFailsGracefully) {
  DatabaseOptions opts;
  opts.memory_budget_bytes = 1024;  // absurdly small
  Database db(opts);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a BIGINT)").ok());
  auto table = db.catalog().GetTable("t");
  Status last = Status::OK();
  for (int r = 0; r < 100000 && last.ok(); ++r) {
    last = (*table)->AppendRow({Value::BigInt(r)});
  }
  EXPECT_EQ(last.code(), StatusCode::kOutOfMemory);
}

}  // namespace
}  // namespace qy::sql
