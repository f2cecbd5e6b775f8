#include <gtest/gtest.h>

#include <cctype>
#include <random>

#include "sql/parser.h"
#include "sql/tokenizer.h"

namespace qy::sql {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(TokenizerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT s, r FROM t0 WHERE s >= 12");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // incl. End
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_TRUE((*tokens)[0].IsKeyword(Keyword::kSelect));
  EXPECT_TRUE((*tokens)[8].IsSymbol(Symbol::kGe));
  EXPECT_EQ((*tokens)[9].type, TokenType::kIntLiteral);
}

TEST(TokenizerTest, BitwiseAndShiftOperators) {
  auto tokens = Tokenize("a & ~b | c << 2 >> 1 ^ 3");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> symbols;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kSymbol) symbols.push_back(t.text);
  }
  EXPECT_EQ(symbols, (std::vector<std::string>{"&", "~", "|", "<<", ">>", "^"}));
}

TEST(TokenizerTest, FloatForms) {
  auto tokens = Tokenize("1.5 .25 2e10 3.25E-4 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kFloatLiteral);
  EXPECT_EQ((*tokens)[1].type, TokenType::kFloatLiteral);
  EXPECT_EQ((*tokens)[2].type, TokenType::kFloatLiteral);
  EXPECT_EQ((*tokens)[3].type, TokenType::kFloatLiteral);
  EXPECT_EQ((*tokens)[4].type, TokenType::kIntLiteral);
}

TEST(TokenizerTest, StringsAndEscapes) {
  auto tokens = Tokenize("'it''s' 'plain'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's");
  EXPECT_EQ((*tokens)[1].text, "plain");
}

TEST(TokenizerTest, Comments) {
  auto tokens = Tokenize("SELECT 1 -- trailing\n+ /* block */ 2");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);
  EXPECT_EQ((*tokens)[2].text, "+");
}

TEST(TokenizerTest, NotEqualsNormalizes) {
  auto tokens = Tokenize("a != b <> c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<>");
  EXPECT_EQ((*tokens)[3].text, "<>");
}

TEST(TokenizerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("/* open").ok());
  EXPECT_FALSE(Tokenize("a ? b").ok());
  EXPECT_FALSE(Tokenize("1e+").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("a !").ok());
}

TEST(TokenizerTest, KeywordsAreClassifiedForBareIdentifiersOnly) {
  auto tokens = Tokenize(R"(select SeLeCt "select" selects _select s)");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 7u);
  EXPECT_EQ((*tokens)[0].keyword, Keyword::kSelect);
  EXPECT_EQ((*tokens)[1].keyword, Keyword::kSelect);
  EXPECT_EQ((*tokens)[1].text, "SeLeCt");  // spelled as written
  EXPECT_EQ((*tokens)[2].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[2].text, "select");
  EXPECT_EQ((*tokens)[2].keyword, Keyword::kNone);  // quoted
  EXPECT_EQ((*tokens)[3].keyword, Keyword::kNone);
  EXPECT_EQ((*tokens)[4].keyword, Keyword::kNone);
  EXPECT_EQ((*tokens)[5].keyword, Keyword::kNone);
}

TEST(TokenizerTest, EveryKeywordRoundTripsInAnyCase) {
  for (int k = static_cast<int>(Keyword::kAnd);
       k <= static_cast<int>(Keyword::kWith); ++k) {
    const Keyword kw = static_cast<Keyword>(k);
    const std::string upper(KeywordText(kw));
    std::string lower = upper;
    for (char& c : lower) c = static_cast<char>(c - 'A' + 'a');
    auto tokens = Tokenize(upper + " " + lower);
    ASSERT_TRUE(tokens.ok()) << upper;
    EXPECT_EQ((*tokens)[0].keyword, kw) << upper;
    EXPECT_EQ((*tokens)[1].keyword, kw) << lower;
  }
}

TEST(TokenizerTest, SymbolIds) {
  auto tokens =
      Tokenize("( ) [ ] , ; . * / % + - ~ << >> & ^ | || = <> != < <= > >=");
  ASSERT_TRUE(tokens.ok());
  const Symbol expected[] = {
      Symbol::kLParen, Symbol::kRParen,  Symbol::kLBracket, Symbol::kRBracket,
      Symbol::kComma,  Symbol::kSemicolon, Symbol::kDot,    Symbol::kStar,
      Symbol::kSlash,  Symbol::kPercent, Symbol::kPlus,     Symbol::kMinus,
      Symbol::kTilde,  Symbol::kShl,     Symbol::kShr,      Symbol::kAmp,
      Symbol::kCaret,  Symbol::kPipe,    Symbol::kConcat,   Symbol::kEq,
      Symbol::kNe,     Symbol::kNe,      Symbol::kLt,       Symbol::kLe,
      Symbol::kGt,     Symbol::kGe,
  };
  ASSERT_EQ(tokens->size(), std::size(expected) + 1);
  for (size_t k = 0; k < std::size(expected); ++k) {
    EXPECT_EQ((*tokens)[k].symbol, expected[k]) << k;
    EXPECT_EQ((*tokens)[k].text, SymbolText(expected[k])) << k;
    EXPECT_EQ((*tokens)[k].keyword, Keyword::kNone) << k;
  }
  EXPECT_EQ((*tokens)[21].text, "<>");  // != is normalized
}

TEST(TokenizerTest, OperatorsNeedNoSeparatingSpace) {
  auto tokens = Tokenize("a<<=b||c!=d<>e>>f");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> texts;
  for (const Token& t : *tokens) texts.push_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{"a", "<<", "=", "b", "||", "c",
                                             "<>", "d", "<>", "e", ">>", "f",
                                             ""}));
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

Result<Statement> Parse(const std::string& sql) { return ParseStatement(sql); }

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT s, r, i FROM T0 ORDER BY s");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  EXPECT_EQ(stmt->select->items.size(), 3u);
  EXPECT_EQ(stmt->select->order_by.size(), 1u);
}

TEST(ParserTest, PaperFig2Query) {
  // The exact query shape from Fig. 2c of the paper must parse.
  auto stmt = Parse(R"(
    WITH T1 AS (
      SELECT ((T0.s & ~1) | H.out_s) AS s,
             SUM((T0.r * H.r) - (T0.i * H.i)) AS r,
             SUM((T0.r * H.i) + (T0.i * H.r)) AS i
      FROM T0 JOIN H ON H.in_s = (T0.s & 1)
      GROUP BY ((T0.s & ~1) | H.out_s))
    SELECT s, r, i FROM T1 ORDER BY s)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->select->ctes.size(), 1u);
  const SelectStmt& cte = *stmt->select->ctes[0].select;
  EXPECT_EQ(cte.items.size(), 3u);
  EXPECT_EQ(cte.group_by.size(), 1u);
  ASSERT_NE(cte.from, nullptr);
  EXPECT_EQ(cte.from->kind, TableRef::Kind::kJoin);
}

TEST(ParserTest, ExpressionPrecedence) {
  // * binds tighter than +, + tighter than <<, << tighter than &, & than |.
  auto stmt = Parse("SELECT 1 | 2 & 3 << 1 + 2 * 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->items[0].expr->ToString(),
            "(1 | (2 & (3 << (1 + (2 * 3)))))");
}

TEST(ParserTest, ComparisonAndLogic) {
  auto stmt = Parse("SELECT * FROM t WHERE a = 1 AND NOT b > 2 OR c <> 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->where->ToString(),
            "(((a = 1) AND (NOT (b > 2))) OR (c <> 3))");
}

TEST(ParserTest, UnaryOperators) {
  auto stmt = Parse("SELECT -x, ~y, NOT z FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->items[0].expr->ToString(), "(-x)");
  EXPECT_EQ(stmt->select->items[1].expr->ToString(), "(~y)");
  EXPECT_EQ(stmt->select->items[2].expr->ToString(), "(NOT z)");
}

TEST(ParserTest, FunctionsAndCase) {
  auto stmt = Parse(
      "SELECT SUM(r), ABS(-1), CASE WHEN a > 0 THEN 1 ELSE 2 END, "
      "CAST(x AS DOUBLE) FROM t GROUP BY 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->select->items[0].expr->ToString(), "SUM(r)");
  EXPECT_EQ(stmt->select->items[2].expr->ToString(),
            "CASE WHEN (a > 0) THEN 1 ELSE 2 END");
  EXPECT_EQ(stmt->select->items[3].expr->ToString(), "CAST(x AS DOUBLE)");
}

TEST(ParserTest, JoinForms) {
  for (const char* sql : {
           "SELECT * FROM a JOIN b ON a.x = b.y",
           "SELECT * FROM a INNER JOIN b ON a.x = b.y",
           "SELECT * FROM a CROSS JOIN b",
           "SELECT * FROM a, b",
           "SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.z = c.w",
       }) {
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    EXPECT_EQ(stmt->select->from->kind, TableRef::Kind::kJoin) << sql;
  }
}

TEST(ParserTest, SubqueryInFrom) {
  auto stmt = Parse("SELECT q.s FROM (SELECT s FROM t) AS q");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->from->kind, TableRef::Kind::kSubquery);
  EXPECT_EQ(stmt->select->from->alias, "q");
}

TEST(ParserTest, TableAliases) {
  auto stmt = Parse("SELECT x.s FROM t AS x");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->from->alias, "x");
  auto bare = Parse("SELECT x.s FROM t x");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->select->from->alias, "x");
}

TEST(ParserTest, CreateTable) {
  auto stmt = Parse("CREATE TABLE t (s BIGINT, r DOUBLE, name VARCHAR)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(stmt->create_table->columns.size(), 3u);
  EXPECT_EQ(stmt->create_table->columns[1].type, DataType::kDouble);
}

TEST(ParserTest, CreateTableVariants) {
  EXPECT_TRUE(Parse("CREATE TABLE IF NOT EXISTS t (a INT)").ok());
  EXPECT_TRUE(Parse("CREATE OR REPLACE TABLE t (a INT)").ok());
  auto ctas = Parse("CREATE TABLE t AS SELECT 1 AS x");
  ASSERT_TRUE(ctas.ok());
  EXPECT_NE(ctas->create_table->as_select, nullptr);
}

TEST(ParserTest, InsertForms) {
  auto vals = Parse("INSERT INTO t VALUES (1, 2.0, 'a'), (2, 3.0, 'b')");
  ASSERT_TRUE(vals.ok());
  EXPECT_EQ(vals->insert->values_rows.size(), 2u);
  auto cols = Parse("INSERT INTO t (a, b) VALUES (1, 2)");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols->insert->column_names.size(), 2u);
  auto sel = Parse("INSERT INTO t SELECT * FROM u");
  ASSERT_TRUE(sel.ok());
  EXPECT_NE(sel->insert->select, nullptr);
}

TEST(ParserTest, DropTable) {
  auto stmt = Parse("DROP TABLE IF EXISTS t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->drop_table->if_exists);
}

TEST(ParserTest, HugeIntLiteral) {
  auto stmt = Parse("SELECT 170141183460469231731687303715884105727");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->items[0].expr->literal.type(), DataType::kHugeInt);
}

TEST(ParserTest, HavingAndLimit) {
  auto stmt = Parse(
      "SELECT s, SUM(r) FROM t GROUP BY s HAVING SUM(r) > 0.5 LIMIT 10");
  ASSERT_TRUE(stmt.ok());
  EXPECT_NE(stmt->select->having, nullptr);
  EXPECT_EQ(stmt->select->limit.value(), 10);
}

TEST(ParserTest, IsNull) {
  auto stmt = Parse("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->where->ToString(),
            "(ISNULL(a) AND (NOT ISNULL(b)))");
}

TEST(ParserTest, ScriptSplitsStatements) {
  auto stmts = ParseScript(
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;");
  ASSERT_TRUE(stmts.ok());
  EXPECT_EQ(stmts->size(), 3u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT * FROM").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t GROUP").ok());
  EXPECT_FALSE(Parse("SELECT a b c FROM t").ok());
  EXPECT_FALSE(Parse("CREATE TABLE t (a NOTATYPE)").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES 1, 2").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t LIMIT abc").ok());
  EXPECT_FALSE(Parse("SELECT CASE END").ok());
  EXPECT_FALSE(Parse("UPDATE t SET a = 1").ok());
}

TEST(ParserTest, LimitBeyondBigIntIsAnError) {
  auto stmt = Parse("SELECT * FROM t LIMIT 99999999999999999999");
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
  EXPECT_NE(stmt.status().message().find("offset 22"), std::string::npos)
      << stmt.status().ToString();
  auto max = Parse("SELECT * FROM t LIMIT 9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->select->limit.value(), INT64_MAX);
}

TEST(ParserTest, GrammarRejections) {
  for (const char* sql : {
           "SELECT a = b = c",
           "SELECT a < b > c",
           "SELECT a IS NULL = b",
           "SELECT a = b IS NULL",
           "SELECT a IS NULL IS NULL",
           "SELECT a = NOT b",
           "SELECT a + NOT b",
           "SELECT x AND a = b = c",
           "SELECT NOT a = b = c",
           "SELECT a IS b",
           "SELECT NOT",
           "SELECT a +",
           "SELECT select",
           "SELECT a FROM t WHERE order = 1",
           "SELECT a FROM t ORDER BY from",
       }) {
    auto stmt = Parse(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_EQ(stmt.status().code(), StatusCode::kParseError) << sql;
  }
}

TEST(ParserTest, KeywordsIgnoreCase) {
  for (const char* sql : {
           "SELECT a FROM t WHERE a IS NOT NULL AND NOT b ORDER BY a DESC "
           "LIMIT 1",
           "select a from t where a is not null and not b order by a desc "
           "limit 1",
           "SeLeCt a FrOm t WhErE a Is NoT nUlL aNd NoT b oRdEr By a DeSc "
           "LiMiT 1",
       }) {
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    EXPECT_EQ(stmt->select->ToString(),
              "SELECT a FROM t WHERE ((NOT ISNULL(a)) AND (NOT b)) ORDER BY a "
              "DESC LIMIT 1")
        << sql;
  }
}

TEST(ParserTest, QuotedIdentifierIsNeverKeyword) {
  auto stmt = Parse(
      R"(SELECT "order", "select" AS "from" FROM q GROUP BY "order" )"
      R"(ORDER BY "select")");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].expr->kind, ExprKind::kColumnRef);
  EXPECT_EQ(s.items[0].expr->column, "order");
  EXPECT_EQ(s.items[1].expr->column, "select");
  EXPECT_EQ(s.items[1].alias, "from");
  EXPECT_EQ(s.group_by[0]->column, "order");
  EXPECT_EQ(s.order_by[0].expr->column, "select");
  // A quoted keyword is also a valid bare alias.
  auto alias = Parse(R"(SELECT a "order" FROM q)");
  ASSERT_TRUE(alias.ok()) << alias.status().ToString();
  EXPECT_EQ(alias->select->items[0].alias, "order");
}

TEST(ParserTest, TruncatedAndCorruptedInputFailsCleanly) {
  // Every prefix and every listed one-byte substitution of a statement that
  // uses each token class either parses or is a ParseError. Under the
  // sanitizers this also checks that the lexer and the parser never read
  // past the end of their input.
  const std::string sql =
      "SELECT DISTINCT \"q\".a AS x, -1.5e-3, 'it''s', CAST(b AS DOUBLE), "
      "CASE WHEN a IS NOT NULL THEN a << 2 ELSE ~b END FROM t AS q JOIN u ON "
      "q.a != u.b /* c */ WHERE NOT a >= 1 OR b || 'x' <> 'y' -- tail\n"
      "GROUP BY 1 HAVING SUM(a) > 0 ORDER BY x DESC LIMIT 3;";
  ASSERT_TRUE(Parse(sql).ok()) << Parse(sql).status().ToString();
  auto check = [](const std::string& text) {
    auto stmt = ParseStatement(text);
    if (!stmt.ok()) {
      EXPECT_EQ(stmt.status().code(), StatusCode::kParseError) << text;
    }
  };
  for (size_t k = 0; k <= sql.size(); ++k) check(sql.substr(0, k));
  for (size_t k = 0; k < sql.size(); ++k) {
    for (char c : {'\'', '"', '-', '/', '*', '.', 'e', '!', '<', '|', '(',
                   ')', ' ', '\0'}) {
      std::string corrupted = sql;
      corrupted[k] = c;
      check(corrupted);
    }
  }
}

TEST(ParserTest, DistinctAndStar) {
  auto stmt = Parse("SELECT DISTINCT t.* FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select->distinct);
  EXPECT_EQ(stmt->select->items[0].expr->kind, ExprKind::kStar);
  EXPECT_EQ(stmt->select->items[0].expr->table, "t");
}

TEST(ParserTest, ExplainWraps) {
  auto stmt = Parse("EXPLAIN SELECT 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kExplain);
}

// ---------------------------------------------------------------------------
// Grammar property: a random expression tree, printed once with every
// parenthesis and once with only those its precedence requires, parses back
// to the same tree.
// ---------------------------------------------------------------------------

// The grammar's binding levels, loosest first: binary operators are
// left-associative, a comparison or IS [NOT] NULL takes tighter operands on
// both sides, NOT sits between AND and the comparisons, and the prefix - and
// ~ bind tighter than every binary operator.
enum GenLevel {
  kGenOr = 1, kGenAnd, kGenNot, kGenComparison, kGenBitOr, kGenBitXor,
  kGenBitAnd, kGenShift, kGenAdditive, kGenMultiplicative, kGenUnary,
  kGenPrimary,
};

struct GenOperator {
  const char* op;  // Expr::op
  int level;
};

constexpr GenOperator kGenBinaryOperators[] = {
    {"*", kGenMultiplicative}, {"/", kGenMultiplicative},
    {"%", kGenMultiplicative}, {"+", kGenAdditive},
    {"-", kGenAdditive},       {"<<", kGenShift},
    {">>", kGenShift},         {"&", kGenBitAnd},
    {"^", kGenBitXor},         {"|", kGenBitOr},
    {"||", kGenBitOr},         {"=", kGenComparison},
    {"<>", kGenComparison},    {"<", kGenComparison},
    {"<=", kGenComparison},    {">", kGenComparison},
    {">=", kGenComparison},    {"AND", kGenAnd},
    {"OR", kGenOr},
};

struct GenExpr {
  ExprPtr tree;
  std::string full;     ///< every operation parenthesized
  std::string minimal;  ///< only the parentheses precedence requires
  int level;            ///< binding level of `minimal`'s outermost operation
};

class ExprGenerator {
 public:
  explicit ExprGenerator(uint64_t seed) : rng_(seed) {}

  GenExpr Generate(int depth) {
    if (depth == 0 || Pick(5) == 0) return Leaf();
    switch (Pick(12)) {
      case 0: return Prefix("NOT", depth);
      case 1: return Prefix("-", depth);
      case 2: return Prefix("~", depth);
      case 3: return IsNull(depth);
      case 4: return Case(depth);
      case 5: return Cast(depth);
      case 6: return Call(depth);
      default: return Binary(depth);
    }
  }

 private:
  int Pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  /// A keyword in a random mix of cases: the lexer must not care.
  std::string Spell(const std::string& keyword) {
    std::string out = keyword;
    for (char& c : out) {
      if (Pick(2) == 0) c = static_cast<char>(std::tolower(c));
    }
    return out;
  }

  static std::string Wrap(const GenExpr& e, bool parenthesize) {
    return parenthesize ? "(" + e.minimal + ")" : e.minimal;
  }

  GenExpr Leaf() {
    switch (Pick(8)) {
      case 0: return {MakeColumnRef("", "a"), "a", "a", kGenPrimary};
      case 1: return {MakeColumnRef("", "b"), "b", "b", kGenPrimary};
      case 2: return {MakeColumnRef("t", "c"), "t.c", "t.c", kGenPrimary};
      case 3: {
        std::string text = Spell("NULL");
        return {MakeLiteral(Value::Null(DataType::kBigInt)), text, text,
                kGenPrimary};
      }
      case 4: {
        std::string text = Spell("TRUE");
        return {MakeLiteral(Value::Bool(true)), text, text, kGenPrimary};
      }
      case 5:
        return {MakeLiteral(Value::Double(2.5)), "2.5", "2.5", kGenPrimary};
      case 6:
        return {MakeLiteral(Value::Varchar("x")), "'x'", "'x'", kGenPrimary};
      default: {
        int v = Pick(100);
        std::string text = std::to_string(v);
        return {MakeLiteral(Value::BigInt(v)), text, text, kGenPrimary};
      }
    }
  }

  GenExpr Binary(int depth) {
    const GenOperator& op = kGenBinaryOperators[Pick(
        static_cast<int>(std::size(kGenBinaryOperators)))];
    GenExpr lhs = Generate(depth - 1);
    GenExpr rhs = Generate(depth - 1);
    std::string spelled = op.op;
    if (spelled == "AND" || spelled == "OR") spelled = Spell(spelled);
    if (spelled == "<>" && Pick(2) == 0) spelled = "!=";
    const bool comparison = op.level == kGenComparison;
    GenExpr out;
    out.full = "(" + lhs.full + " " + spelled + " " + rhs.full + ")";
    out.minimal = Wrap(lhs, comparison ? lhs.level <= op.level
                                       : lhs.level < op.level) +
                  " " + spelled + " " + Wrap(rhs, rhs.level <= op.level);
    out.level = op.level;
    out.tree = MakeBinary(op.op, std::move(lhs.tree), std::move(rhs.tree));
    return out;
  }

  GenExpr Prefix(const std::string& op, int depth) {
    GenExpr operand = Generate(depth - 1);
    const bool is_not = op == "NOT";
    const int level = is_not ? kGenNot : kGenUnary;
    const std::string spelled = is_not ? Spell(op) : op;
    // A space after '-' keeps "- -x" from lexing as a comment.
    GenExpr out;
    out.full = "(" + spelled + " " + operand.full + ")";
    out.minimal = spelled + " " + Wrap(operand, operand.level < level);
    out.level = level;
    out.tree = MakeUnary(op, std::move(operand.tree));
    return out;
  }

  GenExpr IsNull(int depth) {
    GenExpr operand = Generate(depth - 1);
    const bool negated = Pick(2) == 0;
    const std::string test =
        Spell("IS") + (negated ? " " + Spell("NOT") : "") + " " + Spell("NULL");
    GenExpr out;
    out.full = "(" + operand.full + " " + test + ")";
    out.minimal = Wrap(operand, operand.level <= kGenComparison) + " " + test;
    out.level = kGenComparison;
    std::vector<ExprPtr> args;
    args.push_back(std::move(operand.tree));
    out.tree = MakeFunction("ISNULL", std::move(args));
    if (negated) out.tree = MakeUnary("NOT", std::move(out.tree));
    return out;
  }

  GenExpr Case(int depth) {
    GenExpr out;
    out.tree = std::make_unique<Expr>();
    out.tree->kind = ExprKind::kCase;
    out.full = out.minimal = Spell("CASE");
    auto part = [&](const std::string& keyword) {
      GenExpr e = Generate(depth - 1);
      out.full += " " + keyword + " " + e.full;
      out.minimal += " " + keyword + " " + e.minimal;
      out.tree->children.push_back(std::move(e.tree));
    };
    const int pairs = 1 + Pick(2);
    for (int p = 0; p < pairs; ++p) {
      part(Spell("WHEN"));
      part(Spell("THEN"));
    }
    if (Pick(2) == 0) {
      part(Spell("ELSE"));
      out.tree->case_has_else = true;
    }
    const std::string end = Spell("END");
    out.full += " " + end;
    out.minimal += " " + end;
    out.level = kGenPrimary;
    return out;
  }

  GenExpr Cast(int depth) {
    static constexpr DataType kTypes[] = {DataType::kBigInt, DataType::kDouble,
                                          DataType::kVarchar, DataType::kBool,
                                          DataType::kHugeInt};
    GenExpr operand = Generate(depth - 1);
    const DataType type = kTypes[Pick(static_cast<int>(std::size(kTypes)))];
    const std::string cast = Spell("CAST") + "(";
    const std::string tail = " " + Spell("AS") + " " + DataTypeName(type) + ")";
    GenExpr out;
    out.full = cast + operand.full + tail;
    out.minimal = cast + operand.minimal + tail;
    out.level = kGenPrimary;
    out.tree = std::make_unique<Expr>();
    out.tree->kind = ExprKind::kCast;
    out.tree->cast_type = type;
    out.tree->children.push_back(std::move(operand.tree));
    return out;
  }

  GenExpr Call(int depth) {
    static const char* kNames[] = {"abs", "POW", "Coalesce"};
    const std::string name = kNames[Pick(3)];
    std::vector<ExprPtr> args;
    std::string full_args, minimal_args;
    const int arity = Pick(3);
    for (int k = 0; k < arity; ++k) {
      GenExpr arg = Generate(depth - 1);
      const char* sep = k == 0 ? "" : ", ";
      full_args += sep + arg.full;
      minimal_args += sep + arg.minimal;
      args.push_back(std::move(arg.tree));
    }
    return {MakeFunction(name, std::move(args)), name + "(" + full_args + ")",
            name + "(" + minimal_args + ")", kGenPrimary};
  }

  std::mt19937_64 rng_;
};

TEST(ParserTest, RandomExpressionsRoundTripThroughPrecedence) {
  constexpr uint64_t kSeeds = 500;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ExprGenerator gen(seed);
    GenExpr e = gen.Generate(/*depth=*/5);
    const std::string want = e.tree->ToString();
    for (const std::string* text : {&e.full, &e.minimal}) {
      auto stmt = Parse("SELECT " + *text);
      ASSERT_TRUE(stmt.ok()) << "seed " << seed << ": " << *text << "\n"
                             << stmt.status().ToString();
      ASSERT_EQ(stmt->select->items.size(), 1u) << "seed " << seed;
      EXPECT_EQ(stmt->select->items[0].expr->ToString(), want)
          << "seed " << seed << ": " << *text;
    }
  }
}

}  // namespace
}  // namespace qy::sql
