// The retrieval-language front end (parser.h): a positioned lexer and one
// grammar walk that yields the diagnostics, the ParsedQuery and the
// analysis facts in a single pass. ParseQuery and AnalyzeQueryText are
// views of that pass, so parser and analyzer accept exactly the same texts
// by construction.

#include "query/parser.h"

#include <cctype>
#include <utility>

#include "base/strings.h"

namespace cobra::query {
namespace {

constexpr struct {
  TemporalOp op;
  const char* keyword;
} kTemporalOps[] = {
    {TemporalOp::kDuring, "DURING"},
    {TemporalOp::kOverlapping, "OVERLAPPING"},
    {TemporalOp::kBefore, "BEFORE"},
    {TemporalOp::kAfter, "AFTER"},
    {TemporalOp::kContaining, "CONTAINING"},
};

/// A token with the 1-based position of its first character.
struct Token {
  enum class Kind { kWord, kString, kEquals, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
  int line = 1;
  int col = 1;
};

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  /// The next token; a lexical error is positioned at start_line/start_col.
  Result<Token> Next() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      Bump();
    }
    Token tok;
    tok.line = start_line_ = line_;
    tok.col = start_col_ = col_;
    if (pos_ >= input_.size()) return tok;
    const char c = input_[pos_];
    const size_t begin = pos_;
    if (c == '=') {
      Bump();
      tok.kind = Token::Kind::kEquals;
    } else if (c == '\'' || c == '"') {
      Bump();
      while (pos_ < input_.size() && input_[pos_] != c) Bump();
      if (pos_ >= input_.size()) {
        return Status::InvalidArgument("unterminated string literal");
      }
      Bump();  // closing quote
      tok.kind = Token::Kind::kString;
      tok.text = input_.substr(begin + 1, pos_ - begin - 2);
      return tok;
    } else if (IsWordChar(c)) {
      while (pos_ < input_.size() && IsWordChar(input_[pos_])) Bump();
      tok.kind = Token::Kind::kWord;
    } else {
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "' in query");
    }
    tok.text = input_.substr(begin, pos_ - begin);
    return tok;
  }

  int start_line() const { return start_line_; }
  int start_col() const { return start_col_; }

 private:
  void Bump() {
    if (input_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  const std::string& input_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  int start_line_ = 1;
  int start_col_ = 1;
};

bool IsKeyword(const Token& tok, const char* kw) {
  return tok.kind == Token::Kind::kWord && ToUpperAscii(tok.text) == kw;
}

bool IsName(const Token& tok) {
  return tok.kind == Token::Kind::kWord || tok.kind == Token::Kind::kString;
}

/// Duration literal: `[-]digits[.digits]` followed by `s`/`S` ("30s",
/// "2.5s", "-5s"). Returns false on any other shape; the sign is kept so
/// the caller can report "must be positive" rather than a syntax error.
bool ParseWindowDuration(const std::string& text, double* seconds) {
  size_t i = 0;
  bool negative = false;
  if (i < text.size() && text[i] == '-') {
    negative = true;
    ++i;
  }
  size_t digits = 0;
  double value = 0.0;
  while (i < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i]))) {
    value = value * 10.0 + (text[i] - '0');
    ++digits;
    ++i;
  }
  if (digits == 0) return false;
  if (i < text.size() && text[i] == '.') {
    ++i;
    double scale = 0.1;
    size_t frac = 0;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i]))) {
      value += (text[i] - '0') * scale;
      scale *= 0.1;
      ++frac;
      ++i;
    }
    if (frac == 0) return false;
  }
  if (i + 1 != text.size() || (text[i] != 's' && text[i] != 'S')) {
    return false;
  }
  *seconds = negative ? -value : value;
  return true;
}

/// The grammar walk. Records at most one diagnostic: it stops at the first
/// error.
class Parser {
 public:
  explicit Parser(const std::string& text) : lexer_(text) {}

  QueryAnalysis Run() && {
    Walk();
    return std::move(out_);
  }

 private:
  bool Walk() {
    ParsedQuery& q = out_.parsed;
    Token tok;
    if (!Next(&tok)) return false;
    const char* prefix = nullptr;
    for (const auto& [keyword, flag] :
         {std::pair<const char*, bool*>{"WATCH", &q.watch},
          {"PROFILE", &q.profile},
          {"EXPLAIN", &q.explain}}) {
      if (IsKeyword(tok, keyword)) {
        *flag = true;
        prefix = keyword;
      }
    }
    if (prefix != nullptr && !Next(&tok)) return false;
    if (!IsKeyword(tok, "RETRIEVE")) {
      return Fail(tok, prefix != nullptr
                           ? std::string("expected RETRIEVE after ") + prefix
                           : "query must start with RETRIEVE");
    }
    if (!Next(&tok)) return false;
    if (tok.kind != Token::Kind::kWord) {
      return Fail(tok, "expected event type after RETRIEVE");
    }
    q.primary.type = ToLowerAscii(tok.text);
    if (!Next(&tok)) return false;
    if (!IsKeyword(tok, "FROM")) {
      return Fail(tok, "expected FROM after event type");
    }
    if (!Next(&tok)) return false;
    if (!IsName(tok)) return Fail(tok, "expected video name after FROM");
    q.video = tok.text;
    out_.video_line = tok.line;
    out_.video_col = tok.col;
    if (!Next(&tok)) return false;
    if (IsKeyword(tok, "WHERE") && !Where(&tok, &q.primary, false)) {
      return false;
    }

    for (const auto& [op, keyword] : kTemporalOps) {
      if (IsKeyword(tok, keyword)) q.temporal_op = op;
    }
    if (q.temporal_op != TemporalOp::kNone) {
      if (!Next(&tok)) return false;
      if (tok.kind != Token::Kind::kWord) {
        return Fail(tok, "expected event type after temporal operator");
      }
      q.secondary.type = ToLowerAscii(tok.text);
      if (!Next(&tok)) return false;
      if (IsKeyword(tok, "WHERE") && !Where(&tok, &q.secondary, true)) {
        return false;
      }
    }

    if (IsKeyword(tok, "PREFER")) {
      if (!Next(&tok)) return false;
      if (IsKeyword(tok, "QUALITY")) {
        q.preference = MethodPreference::kQuality;
      } else if (IsKeyword(tok, "COST")) {
        q.preference = MethodPreference::kCost;
      } else {
        return Fail(tok, "expected QUALITY or COST after PREFER");
      }
      if (!Next(&tok)) return false;
    }

    if (IsKeyword(tok, "WINDOW")) {
      if (!q.watch) return Fail(tok, "WINDOW requires WATCH");
      if (!Next(&tok)) return false;
      if (tok.kind != Token::Kind::kWord ||
          !ParseWindowDuration(tok.text, &q.window_sec)) {
        return Fail(tok, "expected window duration like '30s' after WINDOW");
      }
      if (q.window_sec <= 0.0) {
        return Fail(tok, "window duration must be positive");
      }
      if (!Next(&tok)) return false;
    }

    if (tok.kind != Token::Kind::kEnd) {
      return Fail(tok, "unexpected trailing token: " + tok.text);
    }
    return true;
  }

  /// WHERE key = 'value' {AND key = 'value'}: on entry *tok is WHERE; on
  /// success *tok is the first token past the clause. Each predicate is
  /// recorded as an AttrSite anchored at its attribute token.
  bool Where(Token* tok, EventPattern* pattern, bool secondary) {
    do {
      if (!Next(tok)) return false;
      if (tok->kind != Token::Kind::kWord) {
        return Fail(*tok, "expected attribute name in WHERE");
      }
      AttrSite site{tok->line, tok->col, secondary, ToLowerAscii(tok->text),
                    ""};
      if (!Next(tok)) return false;
      if (tok->kind != Token::Kind::kEquals) {
        return Fail(*tok, "expected '=' after attribute " + site.key);
      }
      if (!Next(tok)) return false;
      if (!IsName(*tok)) return Fail(*tok, "expected value after '='");
      site.value = ToUpperAscii(tok->text);
      pattern->attr_equals[site.key] = site.value;
      out_.attr_sites.push_back(std::move(site));
      if (!Next(tok)) return false;
    } while (IsKeyword(*tok, "AND"));
    return true;
  }

  bool Next(Token* tok) {
    Result<Token> next = lexer_.Next();
    if (!next.ok()) {
      out_.diags.Error(lexer_.start_line(), lexer_.start_col(),
                       next.status().message(), next.status().code());
      return false;
    }
    *tok = std::move(next).value();
    return true;
  }

  bool Fail(const Token& at, std::string message) {
    out_.diags.Error(at.line, at.col, std::move(message),
                     StatusCode::kInvalidArgument);
    return false;
  }

  Lexer lexer_;
  QueryAnalysis out_;
};

}  // namespace

const char* TemporalOpKeyword(TemporalOp op) {
  for (const auto& t : kTemporalOps) {
    if (t.op == op) return t.keyword;
  }
  return "";
}

QueryAnalysis AnalyzeQueryTextWithFacts(const std::string& text) {
  return Parser(text).Run();
}

DiagnosticList AnalyzeQueryText(const std::string& text) {
  return AnalyzeQueryTextWithFacts(text).diags;
}

Result<ParsedQuery> ParseQuery(const std::string& text) {
  QueryAnalysis analysis = AnalyzeQueryTextWithFacts(text);
  if (analysis.diags.ok()) return std::move(analysis.parsed);
  const Diagnostic& error = analysis.diags.diagnostics().front();
  return Status(error.code, error.message);
}

}  // namespace cobra::query
