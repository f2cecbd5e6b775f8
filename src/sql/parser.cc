#include "sql/parser.h"

#include <charconv>
#include <cstdlib>

namespace qy::sql {

namespace {

// Expression precedence levels, loosest first. Binary operators are
// left-associative, except the comparison level: a comparison or
// IS [NOT] NULL takes operands of the next tighter level, so `a = b = c` and
// `a IS NULL = b` are errors. NOT is a prefix operator between AND and the
// comparisons; unary -, + and ~ bind tighter than every binary operator.
enum Level : int {
  kNotAnOperator = 0,
  kOrLevel,
  kAndLevel,
  kNotLevel,
  kComparisonLevel,      // = <> < <= > >=, IS [NOT] NULL
  kBitOrLevel,           // | ||
  kBitXorLevel,          // ^
  kBitAndLevel,          // &
  kShiftLevel,           // << >>
  kAdditiveLevel,        // + -
  kMultiplicativeLevel,  // * / %
};

/// The binary operator table: the level of the operator `t` spells, or
/// kNotAnOperator.
Level BinaryLevel(const Token& t) {
  switch (t.keyword) {
    case Keyword::kOr: return kOrLevel;
    case Keyword::kAnd: return kAndLevel;
    case Keyword::kIs: return kComparisonLevel;
    default: break;
  }
  switch (t.symbol) {
    case Symbol::kEq:
    case Symbol::kNe:
    case Symbol::kLt:
    case Symbol::kLe:
    case Symbol::kGt:
    case Symbol::kGe: return kComparisonLevel;
    case Symbol::kPipe:
    case Symbol::kConcat: return kBitOrLevel;
    case Symbol::kCaret: return kBitXorLevel;
    case Symbol::kAmp: return kBitAndLevel;
    case Symbol::kShl:
    case Symbol::kShr: return kShiftLevel;
    case Symbol::kPlus:
    case Symbol::kMinus: return kAdditiveLevel;
    case Symbol::kStar:
    case Symbol::kSlash:
    case Symbol::kPercent: return kMultiplicativeLevel;
    default: return kNotAnOperator;
  }
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseSingle() {
    QY_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
    ConsumeSymbol(Symbol::kSemicolon);
    if (!AtEnd()) return Error("unexpected trailing tokens");
    return stmt;
  }

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    while (!AtEnd()) {
      QY_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
      out.push_back(std::move(stmt));
      if (!ConsumeSymbol(Symbol::kSemicolon)) break;
    }
    if (!AtEnd()) return Error("unexpected trailing tokens");
    return out;
  }

 private:
  // ---- token helpers ----
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  /// Consumes the current token; never moves past the end token.
  const Token& Advance() {
    const Token& t = tokens_[pos_];
    if (t.type != TokenType::kEnd) ++pos_;
    return t;
  }
  /// An identifier that may name a column, table or alias: bare words must
  /// not be reserved.
  bool AtUnreservedIdentifier() const {
    return Peek().type == TokenType::kIdentifier &&
           Peek().keyword == Keyword::kNone;
  }
  /// A SELECT, possibly with a WITH prefix, starts here.
  bool AtSelect() const {
    return Peek().IsKeyword(Keyword::kSelect) ||
           Peek().IsKeyword(Keyword::kWith);
  }

  bool ConsumeKeyword(Keyword kw) {
    if (Peek().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeSymbol(Symbol s) {
    if (Peek().IsSymbol(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(Keyword kw) {
    if (!ConsumeKeyword(kw)) {
      return Error("expected keyword " + std::string(KeywordText(kw)));
    }
    return Status::OK();
  }
  Status ExpectSymbol(Symbol s) {
    if (!ConsumeSymbol(s)) {
      return Error("expected '" + std::string(SymbolText(s)) + "'");
    }
    return Status::OK();
  }
  Status Error(const std::string& what) const {
    const Token& t = Peek();
    return Status::ParseError("parse error at offset " +
                              std::to_string(t.offset) + " near '" + t.text +
                              "': " + what);
  }

  /// Consumes an identifier and moves its text out: the parser never looks
  /// back at a consumed token.
  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error(std::string("expected ") + what);
    }
    return std::move(tokens_[pos_++].text);
  }

  // ---- statements ----
  Result<Statement> ParseStatementInner() {
    Statement stmt;
    if (Peek().IsKeyword(Keyword::kExplain)) {
      Advance();
      stmt.kind = Statement::Kind::kExplain;
      QY_ASSIGN_OR_RETURN(auto sel, ParseSelect());
      stmt.select = std::move(sel);
      return stmt;
    }
    if (AtSelect()) {
      stmt.kind = Statement::Kind::kSelect;
      QY_ASSIGN_OR_RETURN(auto sel, ParseSelect());
      stmt.select = std::move(sel);
      return stmt;
    }
    if (Peek().IsKeyword(Keyword::kCreate)) {
      QY_ASSIGN_OR_RETURN(auto create, ParseCreateTable());
      stmt.kind = Statement::Kind::kCreateTable;
      stmt.create_table = std::move(create);
      return stmt;
    }
    if (Peek().IsKeyword(Keyword::kInsert)) {
      QY_ASSIGN_OR_RETURN(auto insert, ParseInsert());
      stmt.kind = Statement::Kind::kInsert;
      stmt.insert = std::move(insert);
      return stmt;
    }
    if (Peek().IsKeyword(Keyword::kDrop)) {
      QY_ASSIGN_OR_RETURN(auto drop, ParseDrop());
      stmt.kind = Statement::Kind::kDropTable;
      stmt.drop_table = std::move(drop);
      return stmt;
    }
    return Error("expected SELECT, WITH, CREATE, INSERT, DROP or EXPLAIN");
  }

  Result<std::unique_ptr<CreateTableStmt>> ParseCreateTable() {
    Advance();  // CREATE
    auto stmt = std::make_unique<CreateTableStmt>();
    if (ConsumeKeyword(Keyword::kOr)) {
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kReplace));
      stmt->or_replace = true;
    }
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kTable));
    if (ConsumeKeyword(Keyword::kIf)) {
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kNot));
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kExists));
      stmt->if_not_exists = true;
    }
    QY_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
    if (ConsumeKeyword(Keyword::kAs)) {
      QY_ASSIGN_OR_RETURN(stmt->as_select, ParseSelect());
      return stmt;
    }
    QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kLParen));
    while (true) {
      QY_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      QY_ASSIGN_OR_RETURN(std::string type_name,
                          ExpectIdentifier("column type"));
      QY_ASSIGN_OR_RETURN(DataType type, ParseDataType(type_name));
      stmt->columns.push_back({std::move(col), type});
      if (ConsumeSymbol(Symbol::kComma)) continue;
      QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen));
      break;
    }
    return stmt;
  }

  Result<std::unique_ptr<InsertStmt>> ParseInsert() {
    Advance();  // INSERT
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kInto));
    auto stmt = std::make_unique<InsertStmt>();
    QY_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
    if (ConsumeSymbol(Symbol::kLParen)) {
      while (true) {
        QY_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        stmt->column_names.push_back(std::move(col));
        if (ConsumeSymbol(Symbol::kComma)) continue;
        QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen));
        break;
      }
    }
    if (AtSelect()) {
      QY_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
      return stmt;
    }
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kValues));
    while (true) {
      QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kLParen));
      std::vector<ExprPtr> row;
      while (true) {
        QY_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (ConsumeSymbol(Symbol::kComma)) continue;
        QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen));
        break;
      }
      stmt->values_rows.push_back(std::move(row));
      if (!ConsumeSymbol(Symbol::kComma)) break;
    }
    return stmt;
  }

  Result<std::unique_ptr<DropTableStmt>> ParseDrop() {
    Advance();  // DROP
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kTable));
    auto stmt = std::make_unique<DropTableStmt>();
    if (ConsumeKeyword(Keyword::kIf)) {
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kExists));
      stmt->if_exists = true;
    }
    QY_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
    return stmt;
  }

  // ---- SELECT ----
  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    auto select = std::make_unique<SelectStmt>();
    if (ConsumeKeyword(Keyword::kWith)) {
      while (true) {
        CommonTableExpr cte;
        QY_ASSIGN_OR_RETURN(cte.name, ExpectIdentifier("CTE name"));
        QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kAs));
        QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kLParen));
        QY_ASSIGN_OR_RETURN(cte.select, ParseSelect());
        QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen));
        select->ctes.push_back(std::move(cte));
        if (!ConsumeSymbol(Symbol::kComma)) break;
      }
    }
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kSelect));
    select->distinct = ConsumeKeyword(Keyword::kDistinct);
    while (true) {
      SelectItem item;
      QY_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (ConsumeKeyword(Keyword::kAs) || AtUnreservedIdentifier()) {
        QY_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
      }
      select->items.push_back(std::move(item));
      if (!ConsumeSymbol(Symbol::kComma)) break;
    }
    if (ConsumeKeyword(Keyword::kFrom)) {
      QY_ASSIGN_OR_RETURN(select->from, ParseTableRef());
    }
    if (ConsumeKeyword(Keyword::kWhere)) {
      QY_ASSIGN_OR_RETURN(select->where, ParseExpr());
    }
    if (ConsumeKeyword(Keyword::kGroup)) {
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kBy));
      while (true) {
        QY_ASSIGN_OR_RETURN(ExprPtr g, ParseExpr());
        select->group_by.push_back(std::move(g));
        if (!ConsumeSymbol(Symbol::kComma)) break;
      }
    }
    if (ConsumeKeyword(Keyword::kHaving)) {
      QY_ASSIGN_OR_RETURN(select->having, ParseExpr());
    }
    if (ConsumeKeyword(Keyword::kOrder)) {
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kBy));
      while (true) {
        OrderItem item;
        QY_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword(Keyword::kDesc)) {
          item.ascending = false;
        } else {
          ConsumeKeyword(Keyword::kAsc);
        }
        select->order_by.push_back(std::move(item));
        if (!ConsumeSymbol(Symbol::kComma)) break;
      }
    }
    if (ConsumeKeyword(Keyword::kLimit)) {
      const Token& t = Peek();
      if (t.type != TokenType::kIntLiteral) {
        return Error("expected integer after LIMIT");
      }
      int64_t limit = 0;
      const char* end = t.text.data() + t.text.size();
      auto [stop, ec] = std::from_chars(t.text.data(), end, limit);
      if (ec != std::errc() || stop != end) {
        return Error("LIMIT does not fit in BIGINT");
      }
      Advance();
      select->limit = limit;
    }
    return select;
  }

  Result<std::unique_ptr<TableRef>> ParseTableRef() {
    QY_ASSIGN_OR_RETURN(auto left, ParseTablePrimary());
    while (true) {
      bool is_join = false;
      bool has_condition = true;
      if (Peek().IsKeyword(Keyword::kJoin)) {
        Advance();
        is_join = true;
      } else if (Peek().IsKeyword(Keyword::kInner) &&
                 Peek(1).IsKeyword(Keyword::kJoin)) {
        Advance();
        Advance();
        is_join = true;
      } else if (Peek().IsKeyword(Keyword::kCross) &&
                 Peek(1).IsKeyword(Keyword::kJoin)) {
        Advance();
        Advance();
        is_join = true;
        has_condition = false;
      } else if (Peek().IsSymbol(Symbol::kComma)) {
        // Comma join = cross join (condition usually in WHERE).
        Advance();
        is_join = true;
        has_condition = false;
      }
      if (!is_join) break;
      QY_ASSIGN_OR_RETURN(auto right, ParseTablePrimary());
      auto join = std::make_unique<TableRef>();
      join->kind = TableRef::Kind::kJoin;
      join->left = std::move(left);
      join->right = std::move(right);
      if (has_condition) {
        QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kOn));
        QY_ASSIGN_OR_RETURN(join->join_condition, ParseExpr());
      }
      left = std::move(join);
    }
    return left;
  }

  Result<std::unique_ptr<TableRef>> ParseTablePrimary() {
    auto tr = std::make_unique<TableRef>();
    if (ConsumeSymbol(Symbol::kLParen)) {
      tr->kind = TableRef::Kind::kSubquery;
      QY_ASSIGN_OR_RETURN(tr->subquery, ParseSelect());
      QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen));
      ConsumeKeyword(Keyword::kAs);
      QY_ASSIGN_OR_RETURN(tr->alias, ExpectIdentifier("subquery alias"));
      return tr;
    }
    tr->kind = TableRef::Kind::kBase;
    QY_ASSIGN_OR_RETURN(tr->table_name, ExpectIdentifier("table name"));
    if (ConsumeKeyword(Keyword::kAs) || AtUnreservedIdentifier()) {
      QY_ASSIGN_OR_RETURN(tr->alias, ExpectIdentifier("table alias"));
    } else {
      tr->alias = tr->table_name;
    }
    return tr;
  }

  // ---- expressions (precedence climbing over BinaryLevel) ----
  Result<ExprPtr> ParseExpr() { return ParseLevel(kOrLevel); }

  /// Parses an expression whose binary operators bind at `min_level` or
  /// tighter. A prefix NOT is allowed where NOT's level is.
  Result<ExprPtr> ParseLevel(Level min_level) {
    ExprPtr lhs;
    if (min_level <= kNotLevel && Peek().IsKeyword(Keyword::kNot)) {
      Advance();
      QY_ASSIGN_OR_RETURN(ExprPtr operand, ParseLevel(kNotLevel));
      lhs = MakeUnary("NOT", std::move(operand));
    } else {
      QY_ASSIGN_OR_RETURN(lhs, ParseUnary());
    }
    bool lhs_is_comparison = false;
    while (true) {
      const Token& op = Peek();
      const Level level = BinaryLevel(op);
      if (level < min_level) break;  // also ends at a non-operator
      if (level == kComparisonLevel && lhs_is_comparison) {
        return Error("comparisons do not chain; add parentheses");
      }
      Advance();
      if (op.IsKeyword(Keyword::kIs)) {
        const bool negated = ConsumeKeyword(Keyword::kNot);
        QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kNull));
        std::vector<ExprPtr> arg;
        arg.push_back(std::move(lhs));
        lhs = MakeFunction("ISNULL", std::move(arg));
        if (negated) lhs = MakeUnary("NOT", std::move(lhs));
      } else {
        QY_ASSIGN_OR_RETURN(ExprPtr rhs,
                            ParseLevel(static_cast<Level>(level + 1)));
        std::string text = op.keyword == Keyword::kNone
                               ? op.text
                               : std::string(KeywordText(op.keyword));
        lhs = MakeBinary(std::move(text), std::move(lhs), std::move(rhs));
      }
      lhs_is_comparison = level == kComparisonLevel;
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    const Token& t = Peek();
    if (t.IsSymbol(Symbol::kMinus) || t.IsSymbol(Symbol::kTilde)) {
      Advance();
      QY_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return MakeUnary(t.text, std::move(operand));
    }
    if (t.IsSymbol(Symbol::kPlus)) {
      Advance();
      return ParseUnary();
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral: {
        Advance();
        QY_ASSIGN_OR_RETURN(int128_t v, ParseInt128(t.text));
        if (v >= INT64_MIN && v <= INT64_MAX) {
          return MakeLiteral(Value::BigInt(static_cast<int64_t>(v)));
        }
        return MakeLiteral(Value::HugeInt(v));
      }
      case TokenType::kFloatLiteral:
        Advance();
        return MakeLiteral(Value::Double(std::strtod(t.text.c_str(), nullptr)));
      case TokenType::kStringLiteral:
        Advance();
        return MakeLiteral(Value::Varchar(t.text));
      case TokenType::kSymbol:
        if (t.IsSymbol(Symbol::kLParen)) {
          Advance();
          QY_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen));
          return inner;
        }
        if (t.IsSymbol(Symbol::kStar)) {
          Advance();
          auto star = std::make_unique<Expr>();
          star->kind = ExprKind::kStar;
          return star;
        }
        return Error("unexpected symbol in expression");
      case TokenType::kIdentifier:
        return ParseIdentifierExpr();
      case TokenType::kEnd:
        return Error("unexpected end of input in expression");
    }
    return Error("unexpected token in expression");
  }

  Result<ExprPtr> ParseIdentifierExpr() {
    const Token& t = Peek();
    switch (t.keyword) {
      case Keyword::kNone:
        break;
      case Keyword::kNull:
        Advance();
        return MakeLiteral(Value::Null(DataType::kBigInt));
      case Keyword::kTrue:
        Advance();
        return MakeLiteral(Value::Bool(true));
      case Keyword::kFalse:
        Advance();
        return MakeLiteral(Value::Bool(false));
      case Keyword::kCase:
        return ParseCase();
      case Keyword::kCast:
        return ParseCast();
      default:
        return Error("reserved word in expression: " + t.text);
    }
    QY_ASSIGN_OR_RETURN(std::string first, ExpectIdentifier("identifier"));
    // Function call.
    if (ConsumeSymbol(Symbol::kLParen)) {
      std::vector<ExprPtr> args;
      if (!Peek().IsSymbol(Symbol::kRParen)) {
        // COUNT(DISTINCT x) is parsed but DISTINCT is rejected at bind.
        ConsumeKeyword(Keyword::kDistinct);
        while (true) {
          QY_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          args.push_back(std::move(arg));
          if (!ConsumeSymbol(Symbol::kComma)) break;
        }
      }
      QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen));
      return MakeFunction(std::move(first), std::move(args));
    }
    // Qualified reference: table.column or table.*
    if (ConsumeSymbol(Symbol::kDot)) {
      if (ConsumeSymbol(Symbol::kStar)) {
        auto star = std::make_unique<Expr>();
        star->kind = ExprKind::kStar;
        star->table = std::move(first);
        return star;
      }
      QY_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      return MakeColumnRef(std::move(first), std::move(col));
    }
    return MakeColumnRef("", std::move(first));
  }

  Result<ExprPtr> ParseCase() {
    Advance();  // CASE
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCase;
    while (ConsumeKeyword(Keyword::kWhen)) {
      QY_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kThen));
      QY_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
      e->children.push_back(std::move(when));
      e->children.push_back(std::move(then));
    }
    if (e->children.empty()) return Error("CASE requires at least one WHEN");
    if (ConsumeKeyword(Keyword::kElse)) {
      QY_ASSIGN_OR_RETURN(ExprPtr els, ParseExpr());
      e->children.push_back(std::move(els));
      e->case_has_else = true;
    }
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kEnd));
    return e;
  }

  Result<ExprPtr> ParseCast() {
    Advance();  // CAST
    QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kLParen));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCast;
    QY_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
    e->children.push_back(std::move(inner));
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kAs));
    QY_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier("type name"));
    QY_ASSIGN_OR_RETURN(e->cast_type, ParseDataType(type_name));
    QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen));
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& sql) {
  QY_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  return Parser(std::move(tokens)).ParseSingle();
}

Result<std::vector<Statement>> ParseScript(const std::string& sql) {
  QY_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  return Parser(std::move(tokens)).ParseAll();
}

}  // namespace qy::sql
