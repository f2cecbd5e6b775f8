/// \file parser.h
/// Recursive-descent SQL parser producing AST statements; expressions are
/// parsed by precedence climbing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/tokenizer.h"

namespace qy::sql {

/// Parse a single SQL statement (optional trailing ';').
Result<Statement> ParseStatement(const std::string& sql);

/// Parse a script of ';'-separated statements.
Result<std::vector<Statement>> ParseScript(const std::string& sql);

}  // namespace qy::sql
