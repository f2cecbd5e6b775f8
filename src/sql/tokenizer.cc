#include "sql/tokenizer.h"

#include <algorithm>
#include <array>
#include <iterator>

namespace qy::sql {

namespace {

struct KeywordEntry {
  std::string_view text;
  Keyword id;
};

// Sorted by text and in Keyword order, so one table serves the binary search
// in LookupKeyword and the direct index in KeywordText.
constexpr KeywordEntry kKeywords[] = {
    {"AND", Keyword::kAnd},         {"AS", Keyword::kAs},
    {"ASC", Keyword::kAsc},         {"BY", Keyword::kBy},
    {"CASE", Keyword::kCase},       {"CAST", Keyword::kCast},
    {"CREATE", Keyword::kCreate},   {"CROSS", Keyword::kCross},
    {"DESC", Keyword::kDesc},       {"DISTINCT", Keyword::kDistinct},
    {"DROP", Keyword::kDrop},       {"ELSE", Keyword::kElse},
    {"END", Keyword::kEnd},         {"EXISTS", Keyword::kExists},
    {"EXPLAIN", Keyword::kExplain}, {"FALSE", Keyword::kFalse},
    {"FROM", Keyword::kFrom},       {"GROUP", Keyword::kGroup},
    {"HAVING", Keyword::kHaving},   {"IF", Keyword::kIf},
    {"INNER", Keyword::kInner},     {"INSERT", Keyword::kInsert},
    {"INTO", Keyword::kInto},       {"IS", Keyword::kIs},
    {"JOIN", Keyword::kJoin},       {"LEFT", Keyword::kLeft},
    {"LIMIT", Keyword::kLimit},     {"NOT", Keyword::kNot},
    {"NULL", Keyword::kNull},       {"ON", Keyword::kOn},
    {"OR", Keyword::kOr},           {"ORDER", Keyword::kOrder},
    {"REPLACE", Keyword::kReplace}, {"SELECT", Keyword::kSelect},
    {"TABLE", Keyword::kTable},     {"THEN", Keyword::kThen},
    {"TRUE", Keyword::kTrue},       {"UNION", Keyword::kUnion},
    {"VALUES", Keyword::kValues},   {"WHEN", Keyword::kWhen},
    {"WHERE", Keyword::kWhere},     {"WITH", Keyword::kWith},
};

constexpr size_t kMaxKeywordLength = 8;  // DISTINCT

constexpr bool KeywordTableIsSound() {
  for (size_t k = 0; k < std::size(kKeywords); ++k) {
    if (static_cast<size_t>(kKeywords[k].id) != k + 1) return false;
    if (kKeywords[k].text.size() > kMaxKeywordLength) return false;
    if (k > 0 && !(kKeywords[k - 1].text < kKeywords[k].text)) return false;
  }
  return true;
}
static_assert(KeywordTableIsSound());

// Indexed by Symbol.
constexpr std::string_view kSymbolText[] = {
    "",  "(", ")", "[",  "]",  ",", ";", ".",  "*", "/", "%", "+",  "-",
    "~", "<<", ">>", "&", "^", "|", "||", "=", "<>", "<", "<=", ">", ">=",
};
static_assert(std::size(kSymbolText) == static_cast<size_t>(Symbol::kGe) + 1);

enum : uint8_t { kSpace = 1, kIdentStart = 2, kDigit = 4 };

// Locale-free character classes: ASCII letters and '_' start an identifier,
// the C-locale whitespace separates tokens.
constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> t{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int c = 'a'; c <= 'z'; ++c) t[c] = t[c - 'a' + 'A'] = kIdentStart;
  t['_'] = kIdentStart;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  return t;
}();

bool Is(char c, uint8_t classes) {
  return (kCharClass[static_cast<unsigned char>(c)] & classes) != 0;
}

Keyword LookupKeyword(std::string_view word) {
  if (word.size() < 2 || word.size() > kMaxKeywordLength) return Keyword::kNone;
  char upper[kMaxKeywordLength];
  for (size_t k = 0; k < word.size(); ++k) {
    char c = word[k];
    upper[k] = c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
  }
  std::string_view key(upper, word.size());
  const KeywordEntry* it = std::lower_bound(
      std::begin(kKeywords), std::end(kKeywords), key,
      [](const KeywordEntry& e, std::string_view k) { return e.text < k; });
  return it != std::end(kKeywords) && it->text == key ? it->id
                                                      : Keyword::kNone;
}

/// The operator or punctuation starting at sql[i] (kNone if there is none);
/// sets *len to its length in bytes.
Symbol LexSymbol(const std::string& sql, size_t i, size_t* len) {
  const char next = i + 1 < sql.size() ? sql[i + 1] : '\0';
  *len = 1;
  auto two = [len](Symbol s) {
    *len = 2;
    return s;
  };
  switch (sql[i]) {
    case '(': return Symbol::kLParen;
    case ')': return Symbol::kRParen;
    case '[': return Symbol::kLBracket;
    case ']': return Symbol::kRBracket;
    case ',': return Symbol::kComma;
    case ';': return Symbol::kSemicolon;
    case '.': return Symbol::kDot;
    case '*': return Symbol::kStar;
    case '/': return Symbol::kSlash;
    case '%': return Symbol::kPercent;
    case '+': return Symbol::kPlus;
    case '-': return Symbol::kMinus;
    case '~': return Symbol::kTilde;
    case '&': return Symbol::kAmp;
    case '^': return Symbol::kCaret;
    case '=': return Symbol::kEq;
    case '|': return next == '|' ? two(Symbol::kConcat) : Symbol::kPipe;
    case '!': return next == '=' ? two(Symbol::kNe) : Symbol::kNone;
    case '<':
      if (next == '<') return two(Symbol::kShl);
      if (next == '=') return two(Symbol::kLe);
      if (next == '>') return two(Symbol::kNe);
      return Symbol::kLt;
    case '>':
      if (next == '>') return two(Symbol::kShr);
      if (next == '=') return two(Symbol::kGe);
      return Symbol::kGt;
    default:
      return Symbol::kNone;
  }
}

}  // namespace

std::string_view KeywordText(Keyword kw) {
  return kw == Keyword::kNone ? std::string_view()
                              : kKeywords[static_cast<size_t>(kw) - 1].text;
}

std::string_view SymbolText(Symbol s) {
  return kSymbolText[static_cast<size_t>(s)];
}

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  // Generated SQL runs about one token per three bytes; reserving for one
  // per two avoids regrowing the vector on almost every statement.
  tokens.reserve(n / 2 + 1);
  auto error = [&](const std::string& what) {
    return Status::ParseError("lex error at offset " + std::to_string(i) +
                              ": " + what);
  };
  while (i < n) {
    char c = sql[i];
    if (Is(c, kSpace)) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && sql[i + 1] == '*') {
      size_t end = sql.find("*/", i + 2);
      if (end == std::string::npos) return error("unterminated block comment");
      i = end + 2;
      continue;
    }
    size_t start = i;
    // Identifiers / keywords.
    if (Is(c, kIdentStart)) {
      while (i < n && Is(sql[i], kIdentStart | kDigit)) ++i;
      std::string_view word(sql.data() + start, i - start);
      tokens.push_back({TokenType::kIdentifier, std::string(word), start,
                        LookupKeyword(word)});
      continue;
    }
    // Quoted identifiers: never keywords.
    if (c == '"') {
      ++i;
      std::string text;
      while (i < n && sql[i] != '"') text.push_back(sql[i++]);
      if (i >= n) return error("unterminated quoted identifier");
      ++i;
      tokens.push_back({TokenType::kIdentifier, std::move(text), start});
      continue;
    }
    // Numbers.
    if (Is(c, kDigit) || (c == '.' && i + 1 < n && Is(sql[i + 1], kDigit))) {
      bool is_float = false;
      while (i < n && Is(sql[i], kDigit)) ++i;
      if (i < n && sql[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && Is(sql[i], kDigit)) ++i;
      }
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        is_float = true;
        ++i;
        if (i < n && (sql[i] == '+' || sql[i] == '-')) ++i;
        if (i >= n || !Is(sql[i], kDigit)) return error("malformed exponent");
        while (i < n && Is(sql[i], kDigit)) ++i;
      }
      tokens.push_back({is_float ? TokenType::kFloatLiteral
                                 : TokenType::kIntLiteral,
                        sql.substr(start, i - start), start});
      continue;
    }
    // String literals with '' escape.
    if (c == '\'') {
      ++i;
      std::string text;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            text.push_back('\'');
            i += 2;
            continue;
          }
          break;
        }
        text.push_back(sql[i++]);
      }
      if (i >= n) return error("unterminated string literal");
      ++i;
      tokens.push_back({TokenType::kStringLiteral, std::move(text), start});
      continue;
    }
    size_t len = 0;
    Symbol symbol = LexSymbol(sql, i, &len);
    if (symbol == Symbol::kNone) {
      return error(std::string("unexpected character '") + c + "'");
    }
    tokens.push_back({TokenType::kSymbol, std::string(SymbolText(symbol)),
                      start, Keyword::kNone, symbol});
    i += len;
  }
  tokens.push_back({TokenType::kEnd, "", n});
  return tokens;
}

}  // namespace qy::sql
