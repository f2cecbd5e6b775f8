/// \file tokenizer.h
/// SQL lexer. Produces a flat token stream for the precedence-climbing
/// parser. Keywords and operators are classified here, once per token, into
/// ids, so the parser matches them with integer compares.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace qy::sql {

enum class TokenType {
  kIdentifier,   ///< bare or "quoted" identifier
  kIntLiteral,   ///< decimal integer (may exceed int64 -> HUGEINT)
  kFloatLiteral, ///< decimal with '.' or exponent
  kStringLiteral,///< '...' with '' escaping
  kSymbol,       ///< operator/punctuation, possibly multi-char (<<, >=, <>)
  kEnd,
};

/// The reserved words, in alphabetical order. A bare identifier that spells
/// one in any case is that keyword; a "quoted" identifier never is. Every
/// keyword is reserved: it cannot be a bare column name, alias or operand.
enum class Keyword : uint8_t {
  kNone,
  kAnd, kAs, kAsc, kBy, kCase, kCast, kCreate, kCross, kDesc, kDistinct,
  kDrop, kElse, kEnd, kExists, kExplain, kFalse, kFrom, kGroup, kHaving, kIf,
  kInner, kInsert, kInto, kIs, kJoin, kLeft, kLimit, kNot, kNull, kOn, kOr,
  kOrder, kReplace, kSelect, kTable, kThen, kTrue, kUnion, kValues, kWhen,
  kWhere, kWith,
};

/// Operators and punctuation. `!=` lexes as kNe, the same as `<>`.
enum class Symbol : uint8_t {
  kNone,
  kLParen, kRParen, kLBracket, kRBracket, kComma, kSemicolon, kDot,
  kStar, kSlash, kPercent, kPlus, kMinus, kTilde, kShl, kShr,
  kAmp, kCaret, kPipe, kConcat,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

/// Upper-case spelling of a keyword ("" for kNone).
std::string_view KeywordText(Keyword kw);
/// Normalized spelling of a symbol ("<>" for kNe, "" for kNone).
std::string_view SymbolText(Symbol s);

struct Token {
  TokenType type;
  std::string text;  ///< identifier spelled as written; symbol normalized
  size_t offset;     ///< byte offset in the source, for error messages
  Keyword keyword = Keyword::kNone;  ///< set for bare identifiers only
  Symbol symbol = Symbol::kNone;     ///< set for kSymbol only

  bool IsKeyword(Keyword kw) const { return keyword == kw; }
  bool IsSymbol(Symbol s) const { return symbol == s; }
};

/// Tokenize a SQL string. Supports `--` line comments and `/* */` block
/// comments.
Result<std::vector<Token>> Tokenize(const std::string& sql);

}  // namespace qy::sql
