/// \file ast.h
/// Abstract syntax tree for the relsql SQL dialect.
///
/// Covers the subset Qymera's translator emits (WITH-chained SELECTs with
/// JOIN ... ON, bitwise expressions, GROUP BY, ORDER BY) plus the DDL/DML the
/// driver needs (CREATE TABLE [AS], INSERT, DROP) and general conveniences
/// (WHERE, HAVING, LIMIT, CASE, CAST, subqueries in FROM).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sql/schema.h"
#include "sql/value.h"

namespace qy::sql {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kLiteral,
  kColumnRef,  ///< [table.]column
  kStar,       ///< `*` or `t.*`
  kUnary,      ///< -x, ~x, NOT x
  kBinary,     ///< arithmetic/bitwise/comparison/logical, string concat
  kFunction,   ///< name(args...) — scalar or aggregate, resolved at bind
  kCase,       ///< CASE WHEN .. THEN .. [ELSE ..] END
  kCast,       ///< CAST(x AS TYPE)
};

/// Parsed scalar expression node.
struct Expr {
  ExprKind kind;

  Value literal;                    // kLiteral
  std::string table;                // kColumnRef / kStar qualifier (optional)
  std::string column;               // kColumnRef
  std::string op;                   // kUnary/kBinary symbol, kFunction name
  std::vector<ExprPtr> children;    // operands / args / CASE parts
  bool case_has_else = false;       // kCase: children end with ELSE expr
  DataType cast_type = DataType::kBigInt;  // kCast

  /// Canonical text form, for error messages, EXPLAIN and the names of
  /// un-aliased derived columns.
  std::string ToString() const;

  ExprPtr Clone() const;
};

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string table, std::string column);
ExprPtr MakeUnary(std::string op, ExprPtr operand);
ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args);

struct SelectStmt;

/// FROM-clause item.
struct TableRef {
  enum class Kind { kBase, kJoin, kSubquery } kind;

  // kBase
  std::string table_name;
  // kJoin
  std::unique_ptr<TableRef> left, right;
  ExprPtr join_condition;  ///< nullptr => cross join
  // kSubquery
  std::unique_ptr<SelectStmt> subquery;

  std::string alias;  ///< binding name (defaults to table_name for kBase)
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;  ///< empty => derived from expr
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

struct CommonTableExpr {
  std::string name;
  std::unique_ptr<SelectStmt> select;
};

/// SELECT ... with optional WITH prefix.
struct SelectStmt {
  std::vector<CommonTableExpr> ctes;
  bool distinct = false;
  std::vector<SelectItem> items;
  std::unique_ptr<TableRef> from;  ///< nullptr => SELECT of constants
  ExprPtr where;
  std::vector<ExprPtr> group_by;   ///< may contain ordinal literals
  ExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;

  std::string ToString() const;
};

struct CreateTableStmt {
  std::string table_name;
  bool or_replace = false;
  bool if_not_exists = false;
  std::vector<ColumnDef> columns;            ///< empty when AS SELECT
  std::unique_ptr<SelectStmt> as_select;     ///< CTAS when non-null
};

struct InsertStmt {
  std::string table_name;
  std::vector<std::string> column_names;          ///< optional
  std::vector<std::vector<ExprPtr>> values_rows;  ///< VALUES (...), (...)
  std::unique_ptr<SelectStmt> select;             ///< INSERT ... SELECT
};

struct DropTableStmt {
  std::string table_name;
  bool if_exists = false;
};

/// Any parsed statement.
struct Statement {
  enum class Kind { kSelect, kCreateTable, kInsert, kDropTable, kExplain } kind;
  std::unique_ptr<SelectStmt> select;          // kSelect / kExplain payload
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<DropTableStmt> drop_table;
};

}  // namespace qy::sql
