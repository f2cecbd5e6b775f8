#include "sql/binder.h"

#include <functional>

#include "common/strings.h"

namespace qy::sql {

namespace {

// ---------------------------------------------------------------------------
// Expression binding
// ---------------------------------------------------------------------------

/// Callback interface the generic expression binder uses to resolve names.
class ColumnResolver {
 public:
  virtual ~ColumnResolver() = default;

  /// Attempt to resolve the *whole* expression (group-key matching in
  /// aggregate contexts). Returning nullptr means "not handled here".
  virtual Result<BoundExprPtr> ResolveWhole(const Expr& /*expr*/) {
    return BoundExprPtr(nullptr);
  }

  virtual Result<BoundExprPtr> ResolveColumn(const std::string& table,
                                             const std::string& column) = 0;

  /// Handle an aggregate function call; default: aggregates not allowed.
  virtual Result<BoundExprPtr> ResolveAggregate(const Expr& expr) {
    return Status::BindError("aggregate function not allowed here: " +
                             expr.ToString());
  }
};

bool IsAggregateName(const std::string& name) {
  return EqualsIgnoreCase(name, "SUM") || EqualsIgnoreCase(name, "COUNT") ||
         EqualsIgnoreCase(name, "AVG") || EqualsIgnoreCase(name, "MIN") ||
         EqualsIgnoreCase(name, "MAX");
}

struct ScalarFuncInfo {
  ScalarFunc func;
  int min_arity;
  int max_arity;
};

Result<ScalarFuncInfo> LookupScalarFunc(const std::string& name) {
  std::string u = AsciiToUpper(name);
  if (u == "ABS") return ScalarFuncInfo{ScalarFunc::kAbs, 1, 1};
  if (u == "SQRT") return ScalarFuncInfo{ScalarFunc::kSqrt, 1, 1};
  if (u == "POW" || u == "POWER") return ScalarFuncInfo{ScalarFunc::kPow, 2, 2};
  if (u == "FLOOR") return ScalarFuncInfo{ScalarFunc::kFloor, 1, 1};
  if (u == "CEIL" || u == "CEILING") return ScalarFuncInfo{ScalarFunc::kCeil, 1, 1};
  if (u == "ROUND") return ScalarFuncInfo{ScalarFunc::kRound, 1, 2};
  if (u == "LN") return ScalarFuncInfo{ScalarFunc::kLn, 1, 1};
  if (u == "EXP") return ScalarFuncInfo{ScalarFunc::kExp, 1, 1};
  if (u == "SIN") return ScalarFuncInfo{ScalarFunc::kSin, 1, 1};
  if (u == "COS") return ScalarFuncInfo{ScalarFunc::kCos, 1, 1};
  if (u == "SUBSTR" || u == "SUBSTRING") {
    return ScalarFuncInfo{ScalarFunc::kSubstr, 2, 3};
  }
  if (u == "CONCAT") return ScalarFuncInfo{ScalarFunc::kConcat, 1, 64};
  if (u == "LENGTH") return ScalarFuncInfo{ScalarFunc::kLength, 1, 1};
  if (u == "MOD") return ScalarFuncInfo{ScalarFunc::kMod, 2, 2};
  return Status::BindError("unknown function: " + name);
}

Result<OpCode> BinaryOpCode(const std::string& op) {
  if (op == "+") return OpCode::kAdd;
  if (op == "-") return OpCode::kSub;
  if (op == "*") return OpCode::kMul;
  if (op == "/") return OpCode::kDiv;
  if (op == "%") return OpCode::kMod;
  if (op == "&") return OpCode::kBitAnd;
  if (op == "|") return OpCode::kBitOr;
  if (op == "^") return OpCode::kBitXor;
  if (op == "<<") return OpCode::kShl;
  if (op == ">>") return OpCode::kShr;
  if (op == "=") return OpCode::kEq;
  if (op == "<>") return OpCode::kNe;
  if (op == "<") return OpCode::kLt;
  if (op == "<=") return OpCode::kLe;
  if (op == ">") return OpCode::kGt;
  if (op == ">=") return OpCode::kGe;
  if (op == "||") return OpCode::kConcat;
  if (EqualsIgnoreCase(op, "AND")) return OpCode::kAnd;
  if (EqualsIgnoreCase(op, "OR")) return OpCode::kOr;
  return Status::BindError("unknown binary operator: " + op);
}

DataType PromoteNumeric(DataType t) {
  return t == DataType::kBool ? DataType::kBigInt : t;
}

/// Fold an operator whose operands are all literals into one literal, so it
/// is computed once per statement instead of once per chunk. An operator
/// whose evaluation fails stays as it is: its error then surfaces only when
/// a row is evaluated, as it would without folding.
BoundExprPtr FoldConstant(BoundExprPtr e) {
  for (const auto& child : e->children) {
    if (child->kind != BoundExprKind::kLiteral) return e;
  }
  Value v;
  if (!e->EvaluateConstant(&v).ok()) return e;
  return MakeBoundLiteral(std::move(v));
}

Result<BoundExprPtr> BindExpr(const Expr& expr, ColumnResolver* resolver) {
  {
    QY_ASSIGN_OR_RETURN(BoundExprPtr whole, resolver->ResolveWhole(expr));
    if (whole) return whole;
  }
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return MakeBoundLiteral(expr.literal);
    case ExprKind::kColumnRef:
      return resolver->ResolveColumn(expr.table, expr.column);
    case ExprKind::kStar:
      return Status::BindError("'*' not allowed in this context");
    case ExprKind::kUnary: {
      if (EqualsIgnoreCase(expr.op, "NOT")) {
        QY_ASSIGN_OR_RETURN(BoundExprPtr child,
                            BindExpr(*expr.children[0], resolver));
        if (child->type != DataType::kBool) {
          return Status::BindError("NOT requires a BOOLEAN operand");
        }
        auto e = std::make_unique<BoundExpr>();
        e->kind = BoundExprKind::kUnary;
        e->op = OpCode::kNot;
        e->type = DataType::kBool;
        e->children.push_back(std::move(child));
        return FoldConstant(std::move(e));
      }
      QY_ASSIGN_OR_RETURN(BoundExprPtr child,
                          BindExpr(*expr.children[0], resolver));
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kUnary;
      if (expr.op == "-") {
        e->op = OpCode::kNeg;
        if (!IsNumeric(child->type) && child->type != DataType::kBool) {
          return Status::BindError("cannot negate " +
                                   std::string(DataTypeName(child->type)));
        }
        e->type = PromoteNumeric(child->type);
      } else if (expr.op == "~") {
        e->op = OpCode::kBitNot;
        QY_ASSIGN_OR_RETURN(e->type,
                            CommonIntegerType(child->type, child->type));
      } else {
        return Status::BindError("unknown unary operator: " + expr.op);
      }
      e->children.push_back(std::move(child));
      return FoldConstant(std::move(e));
    }
    case ExprKind::kBinary: {
      QY_ASSIGN_OR_RETURN(BoundExprPtr l, BindExpr(*expr.children[0], resolver));
      QY_ASSIGN_OR_RETURN(BoundExprPtr r, BindExpr(*expr.children[1], resolver));
      QY_ASSIGN_OR_RETURN(OpCode op, BinaryOpCode(expr.op));
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kBinary;
      e->op = op;
      switch (op) {
        case OpCode::kAdd:
        case OpCode::kSub:
        case OpCode::kMul: {
          QY_ASSIGN_OR_RETURN(DataType t, CommonNumericType(l->type, r->type));
          if (t == DataType::kVarchar) {
            return Status::BindError("arithmetic on VARCHAR");
          }
          e->type = PromoteNumeric(t);
          break;
        }
        case OpCode::kDiv:
          e->type = DataType::kDouble;
          break;
        case OpCode::kMod: {
          QY_ASSIGN_OR_RETURN(DataType t, CommonNumericType(l->type, r->type));
          e->type = PromoteNumeric(t);
          break;
        }
        case OpCode::kBitAnd:
        case OpCode::kBitOr:
        case OpCode::kBitXor: {
          QY_ASSIGN_OR_RETURN(e->type, CommonIntegerType(l->type, r->type));
          break;
        }
        case OpCode::kShl:
        case OpCode::kShr: {
          QY_ASSIGN_OR_RETURN(DataType lt, CommonIntegerType(l->type, l->type));
          QY_ASSIGN_OR_RETURN(DataType rt, CommonIntegerType(r->type, r->type));
          (void)rt;
          e->type = lt;
          break;
        }
        case OpCode::kEq:
        case OpCode::kNe:
        case OpCode::kLt:
        case OpCode::kLe:
        case OpCode::kGt:
        case OpCode::kGe:
          e->type = DataType::kBool;
          break;
        case OpCode::kAnd:
        case OpCode::kOr:
          if (l->type != DataType::kBool || r->type != DataType::kBool) {
            return Status::BindError("AND/OR require BOOLEAN operands");
          }
          e->type = DataType::kBool;
          break;
        case OpCode::kConcat:
          e->type = DataType::kVarchar;
          break;
        default:
          return Status::Internal("unexpected binary opcode at bind");
      }
      e->children.push_back(std::move(l));
      e->children.push_back(std::move(r));
      return FoldConstant(std::move(e));
    }
    case ExprKind::kFunction: {
      if (EqualsIgnoreCase(expr.op, "ISNULL")) {
        QY_ASSIGN_OR_RETURN(BoundExprPtr child,
                            BindExpr(*expr.children[0], resolver));
        auto e = std::make_unique<BoundExpr>();
        e->kind = BoundExprKind::kUnary;
        e->op = OpCode::kIsNull;
        e->type = DataType::kBool;
        e->children.push_back(std::move(child));
        return FoldConstant(std::move(e));
      }
      if (IsAggregateName(expr.op)) {
        return resolver->ResolveAggregate(expr);
      }
      QY_ASSIGN_OR_RETURN(ScalarFuncInfo info, LookupScalarFunc(expr.op));
      int arity = static_cast<int>(expr.children.size());
      if (arity < info.min_arity || arity > info.max_arity) {
        return Status::BindError("wrong argument count for " + expr.op);
      }
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kFunction;
      e->func = info.func;
      for (const auto& child : expr.children) {
        QY_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*child, resolver));
        e->children.push_back(std::move(b));
      }
      switch (info.func) {
        case ScalarFunc::kAbs:
          e->type = PromoteNumeric(e->children[0]->type);
          if (!IsNumeric(e->type)) {
            return Status::BindError("ABS requires a numeric argument");
          }
          break;
        case ScalarFunc::kMod: {
          QY_ASSIGN_OR_RETURN(
              DataType t,
              CommonNumericType(e->children[0]->type, e->children[1]->type));
          e->type = PromoteNumeric(t);
          break;
        }
        case ScalarFunc::kSubstr:
        case ScalarFunc::kConcat:
          e->type = DataType::kVarchar;
          break;
        case ScalarFunc::kLength:
          e->type = DataType::kBigInt;
          break;
        default:
          e->type = DataType::kDouble;
          break;
      }
      return e;
    }
    case ExprKind::kCase: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kCase;
      e->case_has_else = expr.case_has_else;
      size_t pairs = (expr.children.size() - (expr.case_has_else ? 1 : 0)) / 2;
      DataType result = DataType::kBigInt;
      bool first = true;
      for (size_t p = 0; p < pairs; ++p) {
        QY_ASSIGN_OR_RETURN(BoundExprPtr cond,
                            BindExpr(*expr.children[2 * p], resolver));
        if (cond->type != DataType::kBool) {
          return Status::BindError("CASE WHEN condition must be BOOLEAN");
        }
        QY_ASSIGN_OR_RETURN(BoundExprPtr then,
                            BindExpr(*expr.children[2 * p + 1], resolver));
        if (first) {
          result = then->type;
          first = false;
        } else {
          QY_ASSIGN_OR_RETURN(result, CommonNumericType(result, then->type));
        }
        e->children.push_back(std::move(cond));
        e->children.push_back(std::move(then));
      }
      if (expr.case_has_else) {
        QY_ASSIGN_OR_RETURN(BoundExprPtr els,
                            BindExpr(*expr.children.back(), resolver));
        QY_ASSIGN_OR_RETURN(result, CommonNumericType(result, els->type));
        e->children.push_back(std::move(els));
      }
      e->type = result;
      return e;
    }
    case ExprKind::kCast: {
      QY_ASSIGN_OR_RETURN(BoundExprPtr child,
                          BindExpr(*expr.children[0], resolver));
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kCast;
      e->type = expr.cast_type;
      e->children.push_back(std::move(child));
      return e;
    }
  }
  return Status::Internal("unhandled expression kind at bind");
}

// ---------------------------------------------------------------------------
// Source (FROM clause) binding
// ---------------------------------------------------------------------------

struct BoundTable {
  std::string alias;     // lowercased
  const Schema* schema;
  int offset;            // first column index in the combined layout
};

/// Resolver over a list of bound tables (the combined scan/join layout).
class SourceResolver : public ColumnResolver {
 public:
  explicit SourceResolver(const std::vector<BoundTable>* tables)
      : tables_(tables) {}

  Result<BoundExprPtr> ResolveColumn(const std::string& table,
                                     const std::string& column) override {
    Match m = Find(table, column);
    if (m.ambiguous) {
      return Status::BindError("ambiguous column reference: " + column);
    }
    if (m.index < 0) {
      return Status::BindError("column not found: " +
                               (table.empty() ? column : table + "." + column));
    }
    return MakeBoundColumnRef(m.index, m.type);
  }

  /// The combined-layout index `[table.]column` resolves to, or -1 when it
  /// is unknown or ambiguous.
  int ColumnIndex(const std::string& table, const std::string& column) const {
    Match m = Find(table, column);
    return m.ambiguous ? -1 : m.index;
  }

 private:
  struct Match {
    int index = -1;
    DataType type = DataType::kBigInt;
    bool ambiguous = false;
  };

  Match Find(const std::string& table, const std::string& column) const {
    Match m;
    for (const auto& bt : *tables_) {
      if (!table.empty() && !EqualsIgnoreCase(bt.alias, table)) continue;
      int ci = bt.schema->FindColumn(column);
      if (ci < 0) continue;
      if (m.index >= 0) {
        m.ambiguous = true;
        return m;
      }
      m.index = bt.offset + ci;
      m.type = bt.schema->column(ci).type;
    }
    return m;
  }

  const std::vector<BoundTable>* tables_;
};

/// Resolver for aggregate contexts: matches GROUP BY keys and repeated
/// aggregate calls structurally (SameExpr), collects aggregate specs, and
/// forbids bare columns outside aggregates.
class AggResolver : public ColumnResolver {
 public:
  AggResolver(SourceResolver* source, const std::vector<const Expr*>* keys,
              const std::vector<DataType>* key_types,
              std::vector<BoundAggSpec>* aggs)
      : source_(source), keys_(keys), key_types_(key_types), aggs_(aggs) {}

  Result<BoundExprPtr> ResolveWhole(const Expr& expr) override {
    for (size_t i = 0; i < keys_->size(); ++i) {
      if (SameExpr(expr, *(*keys_)[i])) {
        return MakeBoundColumnRef(static_cast<int>(i), (*key_types_)[i]);
      }
    }
    return BoundExprPtr(nullptr);
  }

  Result<BoundExprPtr> ResolveColumn(const std::string& table,
                                     const std::string& column) override {
    return Status::BindError(
        "column " + (table.empty() ? column : table + "." + column) +
        " must appear in GROUP BY or inside an aggregate");
  }

  Result<BoundExprPtr> ResolveAggregate(const Expr& expr) override {
    int num_keys = static_cast<int>(keys_->size());
    for (size_t i = 0; i < calls_.size(); ++i) {
      if (SameExpr(expr, *calls_[i])) {
        return MakeBoundColumnRef(num_keys + static_cast<int>(i),
                                  (*aggs_)[i].result_type);
      }
    }
    BoundAggSpec spec;
    std::string name = AsciiToUpper(expr.op);
    bool star = expr.children.size() == 1 &&
                expr.children[0]->kind == ExprKind::kStar;
    if (name == "COUNT" && (expr.children.empty() || star)) {
      spec.func = AggFunc::kCountStar;
      spec.result_type = DataType::kBigInt;
    } else {
      if (expr.children.size() != 1) {
        return Status::BindError(name + " takes exactly one argument");
      }
      QY_ASSIGN_OR_RETURN(spec.arg, BindExpr(*expr.children[0], source_));
      if (name == "SUM") {
        spec.func = AggFunc::kSum;
        if (spec.arg->type == DataType::kDouble) {
          spec.result_type = DataType::kDouble;
        } else if (IsInteger(spec.arg->type) ||
                   spec.arg->type == DataType::kBool) {
          spec.result_type = DataType::kHugeInt;
        } else {
          return Status::BindError("SUM over non-numeric type");
        }
      } else if (name == "COUNT") {
        spec.func = AggFunc::kCount;
        spec.result_type = DataType::kBigInt;
      } else if (name == "AVG") {
        spec.func = AggFunc::kAvg;
        spec.result_type = DataType::kDouble;
      } else if (name == "MIN") {
        spec.func = AggFunc::kMin;
        spec.result_type = spec.arg->type;
      } else if (name == "MAX") {
        spec.func = AggFunc::kMax;
        spec.result_type = spec.arg->type;
      } else {
        return Status::BindError("unknown aggregate: " + name);
      }
    }
    aggs_->push_back(std::move(spec));
    calls_.push_back(&expr);
    return MakeBoundColumnRef(num_keys + static_cast<int>(aggs_->size()) - 1,
                              aggs_->back().result_type);
  }

 private:
  /// True when `a` and `b` compute the same value: the same shape,
  /// operators, literals and function names (in any case), with column
  /// references equal when they resolve to the same source column, however
  /// they are spelled or qualified.
  bool SameExpr(const Expr& a, const Expr& b) const {
    if (&a == &b) return true;
    if (a.kind != b.kind || a.children.size() != b.children.size()) {
      return false;
    }
    switch (a.kind) {
      case ExprKind::kLiteral:
        if (a.literal.type() != b.literal.type() ||
            !a.literal.Equals(b.literal)) {
          return false;
        }
        break;
      case ExprKind::kColumnRef: {
        // The same spelling names the same column; keys and earlier calls
        // bound successfully, so it also resolves.
        if (EqualsIgnoreCase(a.column, b.column) &&
            EqualsIgnoreCase(a.table, b.table)) {
          return true;
        }
        int index = source_->ColumnIndex(a.table, a.column);
        return index >= 0 && index == source_->ColumnIndex(b.table, b.column);
      }
      case ExprKind::kStar:
        return EqualsIgnoreCase(a.table, b.table);
      case ExprKind::kUnary:
      case ExprKind::kBinary:
        if (a.op != b.op) return false;
        break;
      case ExprKind::kFunction:
        if (!EqualsIgnoreCase(a.op, b.op)) return false;
        break;
      case ExprKind::kCase:
        if (a.case_has_else != b.case_has_else) return false;
        break;
      case ExprKind::kCast:
        if (a.cast_type != b.cast_type) return false;
        break;
    }
    for (size_t i = 0; i < a.children.size(); ++i) {
      if (!SameExpr(*a.children[i], *b.children[i])) return false;
    }
    return true;
  }

  SourceResolver* source_;
  const std::vector<const Expr*>* keys_;
  const std::vector<DataType>* key_types_;
  std::vector<BoundAggSpec>* aggs_;
  std::vector<const Expr*> calls_;  ///< the call behind each of *aggs_
};

/// Resolver over a plain output schema (ORDER BY binding).
class OutputResolver : public ColumnResolver {
 public:
  explicit OutputResolver(const Schema* schema) : schema_(schema) {}

  Result<BoundExprPtr> ResolveColumn(const std::string& /*table*/,
                                     const std::string& column) override {
    int ci = schema_->FindColumn(column);
    if (ci < 0) {
      return Status::BindError("column not found in output: " + column);
    }
    return MakeBoundColumnRef(ci, schema_->column(ci).type);
  }

 private:
  const Schema* schema_;
};

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kFunction && IsAggregateName(expr.op)) return true;
  for (const auto& c : expr.children) {
    if (ContainsAggregate(*c)) return true;
  }
  return false;
}

/// Shift all column references by `delta` (rebase right-side join keys onto
/// the right child's local layout).
void ShiftColumnRefs(BoundExpr* e, int delta) {
  if (e->kind == BoundExprKind::kColumnRef) e->col_idx += delta;
  for (auto& c : e->children) ShiftColumnRefs(c.get(), delta);
}

/// Flatten a conjunction into conjuncts.
void FlattenConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary && EqualsIgnoreCase(e.op, "AND")) {
    FlattenConjuncts(*e.children[0], out);
    FlattenConjuncts(*e.children[1], out);
    return;
  }
  out->push_back(&e);
}

// ---------------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------------

class Binder {
 public:
  Binder(const Catalog& catalog, const CteScope& scope)
      : catalog_(catalog), scope_(scope) {}

  Result<PlanNodePtr> Bind(const SelectStmt& select) {
    // Note: select.ctes are ignored here; the executor materializes them into
    // `scope_` before binding (Database::Execute contract).
    // 1. FROM
    std::vector<BoundTable> tables;
    PlanNodePtr plan;
    if (select.from) {
      QY_ASSIGN_OR_RETURN(plan, BindTableRef(*select.from, &tables));
    } else {
      // SELECT of constants: single-row dummy scan (handled by executor via
      // a one-row project over an empty source).
      plan = nullptr;
    }
    SourceResolver source(&tables);

    // 2. WHERE
    if (select.where) {
      if (!plan) return Status::BindError("WHERE without FROM");
      QY_ASSIGN_OR_RETURN(BoundExprPtr pred, BindExpr(*select.where, &source));
      if (pred->type != DataType::kBool) {
        return Status::BindError("WHERE predicate must be BOOLEAN");
      }
      auto filter = std::make_unique<PlanNode>();
      filter->kind = PlanNode::Kind::kFilter;
      filter->predicate = std::move(pred);
      filter->output_schema = plan->output_schema;
      filter->children.push_back(std::move(plan));
      plan = std::move(filter);
    }

    // 3. Aggregation decision.
    bool has_agg = !select.group_by.empty();
    for (const auto& item : select.items) {
      if (item.expr->kind != ExprKind::kStar && ContainsAggregate(*item.expr)) {
        has_agg = true;
      }
    }
    if (select.having && !has_agg) {
      return Status::BindError("HAVING requires GROUP BY or aggregates");
    }

    Schema project_input_schema =
        plan ? plan->output_schema : Schema();
    std::vector<BoundExprPtr> item_exprs;
    std::vector<std::string> item_names;

    if (has_agg) {
      QY_RETURN_IF_ERROR(BindAggregation(select, &plan, &source, &item_exprs,
                                         &item_names));
    } else {
      // Expand stars & bind items directly over the source layout.
      for (const auto& item : select.items) {
        if (item.expr->kind == ExprKind::kStar) {
          QY_RETURN_IF_ERROR(
              ExpandStar(*item.expr, tables, &item_exprs, &item_names));
          continue;
        }
        QY_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*item.expr, &source));
        item_exprs.push_back(std::move(b));
        item_names.push_back(ItemName(item));
      }
      if (!plan && !item_exprs.empty()) {
        // SELECT constants: wrap a one-row dummy plan.
        plan = MakeDualScan();
      }
    }

    // 4. Project.
    auto project = std::make_unique<PlanNode>();
    project->kind = PlanNode::Kind::kProject;
    for (size_t i = 0; i < item_exprs.size(); ++i) {
      project->output_schema.AddColumn(item_names[i], item_exprs[i]->type);
    }
    project->projections = std::move(item_exprs);
    project->children.push_back(std::move(plan));
    PlanNode* project_node = project.get();
    size_t visible_columns = project->output_schema.NumColumns();
    plan = std::move(project);

    // 5. DISTINCT -> aggregate over all output columns.
    if (select.distinct) {
      auto distinct = std::make_unique<PlanNode>();
      distinct->kind = PlanNode::Kind::kAggregate;
      distinct->output_schema = plan->output_schema;
      for (size_t i = 0; i < plan->output_schema.NumColumns(); ++i) {
        distinct->group_keys.push_back(MakeBoundColumnRef(
            static_cast<int>(i), plan->output_schema.column(i).type));
      }
      distinct->children.push_back(std::move(plan));
      plan = std::move(distinct);
    }

    // 6. ORDER BY. Keys may reference output columns, ordinals, or (for
    // non-aggregate, non-DISTINCT selects) source columns not in the SELECT
    // list — those are carried as hidden projection columns and stripped
    // after the sort.
    if (!select.order_by.empty()) {
      bool added_hidden = false;
      auto sort = std::make_unique<PlanNode>();
      sort->kind = PlanNode::Kind::kSort;
      OutputResolver out_res(&plan->output_schema);
      for (const auto& key : select.order_by) {
        SortKeySpec spec;
        spec.ascending = key.ascending;
        if (key.expr->kind == ExprKind::kLiteral &&
            key.expr->literal.type() == DataType::kBigInt &&
            !key.expr->literal.is_null()) {
          int64_t ordinal = key.expr->literal.bigint_value();
          if (ordinal < 1 || ordinal > static_cast<int64_t>(visible_columns)) {
            return Status::BindError("ORDER BY ordinal out of range");
          }
          spec.expr = MakeBoundColumnRef(
              static_cast<int>(ordinal - 1),
              plan->output_schema.column(ordinal - 1).type);
          sort->sort_keys.push_back(std::move(spec));
          continue;
        }
        auto bound = BindExpr(*key.expr, &out_res);
        if (bound.ok()) {
          spec.expr = std::move(bound).value();
          sort->sort_keys.push_back(std::move(spec));
          continue;
        }
        // Fall back to a hidden column over the pre-projection source.
        if (has_agg || select.distinct) return bound.status();
        QY_ASSIGN_OR_RETURN(BoundExprPtr hidden, BindExpr(*key.expr, &source));
        std::string name =
            "__sort_" + std::to_string(project_node->projections.size());
        project_node->output_schema.AddColumn(name, hidden->type);
        spec.expr = MakeBoundColumnRef(
            static_cast<int>(project_node->projections.size()), hidden->type);
        project_node->projections.push_back(std::move(hidden));
        sort->sort_keys.push_back(std::move(spec));
        added_hidden = true;
      }
      sort->output_schema = plan->output_schema;
      sort->children.push_back(std::move(plan));
      plan = std::move(sort);
      if (added_hidden) {
        // Strip hidden columns with a final projection.
        auto strip = std::make_unique<PlanNode>();
        strip->kind = PlanNode::Kind::kProject;
        for (size_t c = 0; c < visible_columns; ++c) {
          strip->output_schema.AddColumn(plan->output_schema.column(c).name,
                                         plan->output_schema.column(c).type);
          strip->projections.push_back(MakeBoundColumnRef(
              static_cast<int>(c), plan->output_schema.column(c).type));
        }
        strip->children.push_back(std::move(plan));
        plan = std::move(strip);
      }
    }

    // 7. LIMIT.
    if (select.limit.has_value()) {
      auto limit = std::make_unique<PlanNode>();
      limit->kind = PlanNode::Kind::kLimit;
      limit->limit = *select.limit;
      limit->output_schema = plan->output_schema;
      limit->children.push_back(std::move(plan));
      plan = std::move(limit);
    }
    return plan;
  }

 private:
  static std::string ItemName(const SelectItem& item) {
    if (!item.alias.empty()) return item.alias;
    if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
    return item.expr->ToString();
  }

  PlanNodePtr MakeDualScan() {
    // A synthetic one-row, zero-real-column input: executor special-cases a
    // Project with a null child? Simpler: a scan over a static dual table is
    // avoided by giving Project an empty child handled at execution time.
    return nullptr;
  }

  Status ExpandStar(const Expr& star, const std::vector<BoundTable>& tables,
                    std::vector<BoundExprPtr>* exprs,
                    std::vector<std::string>* names) {
    bool matched = false;
    for (const auto& bt : tables) {
      if (!star.table.empty() && !EqualsIgnoreCase(bt.alias, star.table)) {
        continue;
      }
      matched = true;
      for (size_t c = 0; c < bt.schema->NumColumns(); ++c) {
        exprs->push_back(MakeBoundColumnRef(bt.offset + static_cast<int>(c),
                                            bt.schema->column(c).type));
        names->push_back(bt.schema->column(c).name);
      }
    }
    if (!matched) {
      return Status::BindError("unknown table in star expansion: " +
                               star.table);
    }
    return Status::OK();
  }

  Result<PlanNodePtr> BindTableRef(const TableRef& tr,
                                   std::vector<BoundTable>* tables) {
    switch (tr.kind) {
      case TableRef::Kind::kBase: {
        Table* table = nullptr;
        auto it = scope_.find(AsciiToLower(tr.table_name));
        if (it != scope_.end()) {
          table = it->second;
        } else {
          QY_ASSIGN_OR_RETURN(table, catalog_.GetTable(tr.table_name));
        }
        auto scan = std::make_unique<PlanNode>();
        scan->kind = PlanNode::Kind::kScan;
        scan->table = table;
        scan->output_schema = table->schema();
        tables->push_back({AsciiToLower(tr.alias), &table->schema(),
                           CurrentOffset(*tables)});
        // BoundTable.schema must outlive binding; table schemas do.
        return scan;
      }
      case TableRef::Kind::kSubquery: {
        if (!tr.subquery->ctes.empty()) {
          return Status::Unsupported("WITH inside subquery is not supported");
        }
        Binder sub(catalog_, scope_);
        QY_ASSIGN_OR_RETURN(PlanNodePtr plan, sub.Bind(*tr.subquery));
        subquery_schemas_.push_back(
            std::make_unique<Schema>(plan->output_schema));
        tables->push_back({AsciiToLower(tr.alias),
                           subquery_schemas_.back().get(),
                           CurrentOffset(*tables)});
        return plan;
      }
      case TableRef::Kind::kJoin: {
        QY_ASSIGN_OR_RETURN(PlanNodePtr left, BindTableRef(*tr.left, tables));
        QY_ASSIGN_OR_RETURN(PlanNodePtr right, BindTableRef(*tr.right, tables));
        int left_ncols = static_cast<int>(left->output_schema.NumColumns());
        // Combined layout for condition binding.
        SourceResolver combined(tables);

        auto join = std::make_unique<PlanNode>();
        join->kind = PlanNode::Kind::kJoin;
        for (const auto& col : left->output_schema.columns()) {
          join->output_schema.AddColumn(col.name, col.type);
        }
        for (const auto& col : right->output_schema.columns()) {
          join->output_schema.AddColumn(col.name, col.type);
        }
        if (tr.join_condition) {
          std::vector<const Expr*> conjuncts;
          FlattenConjuncts(*tr.join_condition, &conjuncts);
          BoundExprPtr residual;
          for (const Expr* conjunct : conjuncts) {
            bool handled = false;
            if (conjunct->kind == ExprKind::kBinary && conjunct->op == "=") {
              QY_ASSIGN_OR_RETURN(BoundExprPtr a,
                                  BindExpr(*conjunct->children[0], &combined));
              QY_ASSIGN_OR_RETURN(BoundExprPtr b,
                                  BindExpr(*conjunct->children[1], &combined));
              std::vector<int> refs_a, refs_b;
              CollectColumnRefs(*a, &refs_a);
              CollectColumnRefs(*b, &refs_b);
              auto all_left = [&](const std::vector<int>& refs) {
                for (int r : refs) {
                  if (r >= left_ncols) return false;
                }
                return true;
              };
              auto all_right = [&](const std::vector<int>& refs) {
                for (int r : refs) {
                  if (r < left_ncols) return false;
                }
                return true;
              };
              if (all_left(refs_a) && all_right(refs_b)) {
                ShiftColumnRefs(b.get(), -left_ncols);
                join->left_keys.push_back(std::move(a));
                join->right_keys.push_back(std::move(b));
                handled = true;
              } else if (all_right(refs_a) && all_left(refs_b)) {
                ShiftColumnRefs(a.get(), -left_ncols);
                join->left_keys.push_back(std::move(b));
                join->right_keys.push_back(std::move(a));
                handled = true;
              }
            }
            if (!handled) {
              QY_ASSIGN_OR_RETURN(BoundExprPtr pred,
                                  BindExpr(*conjunct, &combined));
              if (pred->type != DataType::kBool) {
                return Status::BindError("JOIN condition must be BOOLEAN");
              }
              if (residual) {
                auto conj = std::make_unique<BoundExpr>();
                conj->kind = BoundExprKind::kBinary;
                conj->op = OpCode::kAnd;
                conj->type = DataType::kBool;
                conj->children.push_back(std::move(residual));
                conj->children.push_back(std::move(pred));
                residual = std::move(conj);
              } else {
                residual = std::move(pred);
              }
            }
          }
          join->residual = std::move(residual);
        }
        join->children.push_back(std::move(left));
        join->children.push_back(std::move(right));
        return join;
      }
    }
    return Status::Internal("unhandled table ref kind");
  }

  static int CurrentOffset(const std::vector<BoundTable>& tables) {
    if (tables.empty()) return 0;
    const BoundTable& last = tables.back();
    return last.offset + static_cast<int>(last.schema->NumColumns());
  }

  Status BindAggregation(const SelectStmt& select, PlanNodePtr* plan,
                         SourceResolver* source,
                         std::vector<BoundExprPtr>* item_exprs,
                         std::vector<std::string>* item_names) {
    if (!*plan) return Status::BindError("aggregation requires FROM");
    // Resolve GROUP BY expressions (with ordinal support).
    std::vector<const Expr*> keys;
    keys.reserve(select.group_by.size());
    for (const auto& g : select.group_by) {
      if (g->kind == ExprKind::kLiteral &&
          g->literal.type() == DataType::kBigInt && !g->literal.is_null()) {
        int64_t ordinal = g->literal.bigint_value();
        if (ordinal < 1 || ordinal > static_cast<int64_t>(select.items.size())) {
          return Status::BindError("GROUP BY ordinal out of range");
        }
        keys.push_back(select.items[ordinal - 1].expr.get());
      } else {
        keys.push_back(g.get());
      }
    }
    std::vector<DataType> key_types;
    auto agg_node = std::make_unique<PlanNode>();
    agg_node->kind = PlanNode::Kind::kAggregate;
    for (const Expr* g : keys) {
      QY_ASSIGN_OR_RETURN(BoundExprPtr key, BindExpr(*g, source));
      key_types.push_back(key->type);
      agg_node->group_keys.push_back(std::move(key));
    }

    AggResolver agg_resolver(source, &keys, &key_types, &agg_node->aggs);
    for (const auto& item : select.items) {
      if (item.expr->kind == ExprKind::kStar) {
        return Status::BindError("'*' in aggregate SELECT list");
      }
      QY_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*item.expr, &agg_resolver));
      item_exprs->push_back(std::move(b));
      item_names->push_back(ItemName(item));
    }
    BoundExprPtr having;
    if (select.having) {
      QY_ASSIGN_OR_RETURN(having, BindExpr(*select.having, &agg_resolver));
      if (having->type != DataType::kBool) {
        return Status::BindError("HAVING predicate must be BOOLEAN");
      }
    }
    // Aggregate output schema: keys then agg results.
    for (size_t i = 0; i < agg_node->group_keys.size(); ++i) {
      agg_node->output_schema.AddColumn("group_" + std::to_string(i),
                                        key_types[i]);
    }
    for (size_t i = 0; i < agg_node->aggs.size(); ++i) {
      agg_node->output_schema.AddColumn("agg_" + std::to_string(i),
                                        agg_node->aggs[i].result_type);
    }
    agg_node->children.push_back(std::move(*plan));
    *plan = std::move(agg_node);

    if (having) {
      auto filter = std::make_unique<PlanNode>();
      filter->kind = PlanNode::Kind::kFilter;
      filter->predicate = std::move(having);
      filter->output_schema = (*plan)->output_schema;
      filter->children.push_back(std::move(*plan));
      *plan = std::move(filter);
    }
    return Status::OK();
  }

  const Catalog& catalog_;
  const CteScope& scope_;
  std::vector<std::unique_ptr<Schema>> subquery_schemas_;
};

}  // namespace

Result<PlanNodePtr> BindSelect(const SelectStmt& select, const Catalog& catalog,
                               const CteScope& scope) {
  Binder binder(catalog, scope);
  return binder.Bind(select);
}

}  // namespace qy::sql
