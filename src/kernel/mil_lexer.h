#ifndef COBRA_KERNEL_MIL_LEXER_H_
#define COBRA_KERNEL_MIL_LEXER_H_

#include <cctype>
#include <cstdlib>
#include <string>

#include "base/status.h"
#include "base/strings.h"

namespace cobra::kernel {

/// Range check for a script number the interpreter casts to an integer (a
/// slice position, an insert head or oid tail — unsigned — or an int tail —
/// signed): a NaN, infinite or out-of-range double-to-integer cast is
/// undefined behaviour, so such values are a typed InvalidArgument instead.
/// Fractions truncate. Shared by the interpreter (mil.cc) and the analyzer
/// (mil_analyzer.cc) so both report the same message.
inline Status MilIntegerRange(double v, bool is_signed,
                              const std::string& context) {
  // 2^63 and 2^64 are exact doubles; NaN fails every comparison.
  if (is_signed ? v >= -9223372036854775808.0 && v < 9223372036854775808.0
                : v >= 0.0 && v < 18446744073709551616.0) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrFormat("%s must be in [%s, 2^%d), got %g", context.c_str(),
                is_signed ? "-2^63" : "0", is_signed ? 63 : 64, v));
}

/// One MIL token, carrying the 1-based source position of its first
/// character so both the interpreter and the static analyzer can point
/// diagnostics at the offending token.
struct MilToken {
  enum class Kind {
    kWord,
    kNumber,
    kString,
    kAssign,
    kLParen,
    kRParen,
    kComma,
    kSemi,
    kEnd
  };
  Kind kind = Kind::kEnd;
  std::string text;
  double number = 0.0;
  int line = 1;
  int col = 1;
};

/// The MIL tokenizer, shared by the interpreter (mil.cc) and the static
/// analyzer (mil_analyzer.cc) so the two can never disagree about token
/// boundaries. `#` starts a to-end-of-line comment; strings accept either
/// quote character; numbers are lexed greedily over [0-9.eE+-] and then
/// validated with strtod (the token text keeps the greedy spelling, while
/// the cursor advances only past what strtod consumed).
class MilLexer {
 public:
  explicit MilLexer(const std::string& input) : input_(input) {}

  Result<MilToken> Next() {
    SkipSpaceAndComments();
    token_line_ = line_;
    token_col_ = col_;
    if (pos_ >= input_.size()) return Make(MilToken::Kind::kEnd, "");
    const char c = input_[pos_];
    if (c == '(') {
      Bump();
      return Make(MilToken::Kind::kLParen, "(");
    }
    if (c == ')') {
      Bump();
      return Make(MilToken::Kind::kRParen, ")");
    }
    if (c == ',') {
      Bump();
      return Make(MilToken::Kind::kComma, ",");
    }
    if (c == ';') {
      Bump();
      return Make(MilToken::Kind::kSemi, ";");
    }
    if (c == ':' && pos_ + 1 < input_.size() && input_[pos_ + 1] == '=') {
      Bump();
      Bump();
      return Make(MilToken::Kind::kAssign, ":=");
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      Bump();
      std::string text;
      while (pos_ < input_.size() && input_[pos_] != quote) {
        text += input_[pos_];
        Bump();
      }
      if (pos_ >= input_.size()) {
        return Status::InvalidArgument("unterminated string in MIL script");
      }
      Bump();
      return Make(MilToken::Kind::kString, std::move(text));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '.') {
      size_t end = pos_;
      std::string text;
      while (end < input_.size() &&
             (std::isdigit(static_cast<unsigned char>(input_[end])) ||
              input_[end] == '.' || input_[end] == '-' ||
              input_[end] == 'e' || input_[end] == 'E' ||
              input_[end] == '+')) {
        text += input_[end++];
      }
      char* parse_end = nullptr;
      const double v = std::strtod(text.c_str(), &parse_end);
      if (parse_end == text.c_str()) {
        return Status::InvalidArgument("bad numeric literal: " + text);
      }
      const size_t consumed = static_cast<size_t>(parse_end - text.c_str());
      for (size_t i = 0; i < consumed; ++i) Bump();
      MilToken tok = Make(MilToken::Kind::kNumber, std::move(text));
      tok.number = v;
      return tok;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string text;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_')) {
        text += input_[pos_];
        Bump();
      }
      return Make(MilToken::Kind::kWord, std::move(text));
    }
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "' in MIL script");
  }

  /// Position of the most recent token attempt (valid after Next(), also on
  /// error — it points at the character that failed to lex).
  int token_line() const { return token_line_; }
  int token_col() const { return token_col_; }

 private:
  MilToken Make(MilToken::Kind kind, std::string text) const {
    MilToken tok;
    tok.kind = kind;
    tok.text = std::move(text);
    tok.line = token_line_;
    tok.col = token_col_;
    return tok;
  }

  void Bump() {
    if (input_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void SkipSpaceAndComments() {
    for (;;) {
      while (pos_ < input_.size() &&
             std::isspace(static_cast<unsigned char>(input_[pos_]))) {
        Bump();
      }
      if (pos_ < input_.size() && input_[pos_] == '#') {
        while (pos_ < input_.size() && input_[pos_] != '\n') Bump();
        continue;
      }
      break;
    }
  }

  const std::string& input_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  int token_line_ = 1;
  int token_col_ = 1;
};

}  // namespace cobra::kernel

#endif  // COBRA_KERNEL_MIL_LEXER_H_
