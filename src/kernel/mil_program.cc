// The MIL front end (mil_program.h): the lexer, the one parse into a
// positioned program, the operator table, and the rules on values.

#include "kernel/mil_program.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "base/strings.h"

namespace cobra::kernel {
namespace {

/// Calls nest at most this deep, so a pathological script ("f(f(f(...")
/// is a typed error instead of exhausting the stack of the parser or of
/// either walker.
constexpr int kMaxExprDepth = 200;

using Code = MilOp::Code;
using Int = MilOp::Param::Int;
constexpr unsigned kBat = 1u << static_cast<int>(MilKind::kBat);
constexpr unsigned kNum = 1u << static_cast<int>(MilKind::kNumber);
constexpr unsigned kStr = 1u << static_cast<int>(MilKind::kString);

/// The operator table: one entry per MIL function, select in both forms
/// (the 3-argument form last, so a select of any other arity is reported
/// against it).
const MilOp kOps[] = {
    {Code::kBat, "bat", {{kStr, "bat() expects a name string"}}},
    {Code::kPersist,
     "persist",
     {{kStr, "persist() expects a name string"}, {kBat}}},
    {Code::kNew, "new", {{kStr, "new() expects a type string"}}},
    {Code::kInsert,
     "insert",
     {{kBat}, {kNum, "insert head", Int::kUnsigned}, {kBat | kNum | kStr}}},
    {Code::kSelectStr,
     "select",
     {{kBat}, {kStr, "two-argument select expects a string"}},
     "mil.select"},
    {Code::kSelectRange,
     "select",
     {{kBat}, {kNum, "select lo"}, {kNum, "select hi"}},
     "mil.select"},
    {Code::kThreadcnt, "threadcnt", {{kNum}}},
    {Code::kShards, "shards", {{kNum}}},
    {Code::kJoin, "join", {{kBat}, {kBat}}, "mil.join"},
    {Code::kSemijoin, "semijoin", {{kBat}, {kBat}}, "mil.semijoin"},
    {Code::kDiff, "diff", {{kBat}, {kBat}}, "mil.diff"},
    {Code::kConcat, "concat", {{kBat}, {kBat}}, "mil.concat"},
    {Code::kGroup, "group", {{kBat}}, "mil.group"},
    {Code::kArgmax, "argmax", {{kBat}}},
    {Code::kInfo, "info", {{kBat | kStr}}},
    {Code::kReverse, "reverse", {{kBat}}},
    {Code::kMirror, "mirror", {{kBat}}},
    {Code::kSlice,
     "slice",
     {{kBat},
      {kNum, "slice begin", Int::kUnsigned},
      {kNum, "slice end", Int::kUnsigned}}},
    {Code::kSum, "sum", {{kBat}}},
    {Code::kMax, "max", {{kBat}}},
    {Code::kMin, "min", {{kBat}}},
    {Code::kCount, "count", {{kBat}}},
};

struct MilToken : MilPos {
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
};
using Tok = MilToken::Kind;

/// The MIL tokenizer. `#` starts a to-end-of-line comment; strings accept
/// either quote character; numbers are lexed greedily over [0-9.eE+-] and
/// then validated with strtod (the token text keeps the greedy spelling,
/// while the cursor advances only past what strtod consumed).
class MilLexer {
 public:
  explicit MilLexer(const std::string& input) : input_(input) {}

  Result<MilToken> Next() {
    SkipSpaceAndComments();
    token_line_ = line_;
    token_col_ = col_;
    if (pos_ >= input_.size()) return Make(Tok::kEnd, "");
    const char c = input_[pos_];
    if (c == '(') {
      Bump();
      return Make(Tok::kLParen, "(");
    }
    if (c == ')') {
      Bump();
      return Make(Tok::kRParen, ")");
    }
    if (c == ',') {
      Bump();
      return Make(Tok::kComma, ",");
    }
    if (c == ';') {
      Bump();
      return Make(Tok::kSemi, ";");
    }
    if (c == ':' && pos_ + 1 < input_.size() && input_[pos_ + 1] == '=') {
      Bump();
      Bump();
      return Make(Tok::kAssign, ":=");
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
      return Make(Tok::kString, std::move(text));
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
      MilToken tok = Make(Tok::kNumber, std::move(text));
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
      return Make(Tok::kWord, std::move(text));
    }
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "' in MIL script");
  }

  /// Position of the most recent token attempt (valid after Next(), also on
  /// error — it points at the character that failed to lex).
  int token_line() const { return token_line_; }
  int token_col() const { return token_col_; }

 private:
  MilToken Make(Tok kind, std::string text) const {
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

/// Recursive descent over the token stream, LL(1) with a pushback stack.
/// Every method returns false once the first syntax error is recorded.
class MilParser {
 public:
  MilParser(const std::string& script, DiagnosticList* diags)
      : lexer_(script), diags_(diags) {}

  MilProgram Run() {
    MilProgram program;
    MilToken tok;
    while (Next(&tok) && tok.kind != Tok::kEnd) {
      if (tok.kind == Tok::kSemi) continue;  // empty statement
      MilStmt& stmt = program.emplace_back();
      static_cast<MilPos&>(stmt) = tok;
      MilToken end;
      if (!Statement(tok, &stmt) || !Next(&end)) break;
      if (end.kind != Tok::kSemi) {
        Error(end, "expected ';' after statement, got '" + end.text + "'");
        break;
      }
    }
    return program;
  }

 private:
  bool Statement(const MilToken& tok, MilStmt* stmt) {
    using Kind = MilStmt::Kind;
    const std::string word = tok.kind == Tok::kWord ? tok.text : "";
    if (word == "VAR") {
      stmt->kind = Kind::kVar;
      MilToken name;
      MilToken assign;
      if (!Next(&name)) return false;
      if (name.kind != Tok::kWord) {
        return Error(name, "expected variable name after VAR");
      }
      if (!Next(&assign)) return false;
      if (assign.kind != Tok::kAssign) {
        return Error(assign, "expected ':=' after VAR " + name.text);
      }
      stmt->name = name.text;
      return Expr(0, &stmt->expr);
    }
    if (word == "PRINT") {
      stmt->kind = Kind::kPrint;
      return Expr(0, &stmt->expr);
    }
    if (word == "checkpoint") {
      stmt->kind = Kind::kCheckpoint;
      stmt->name = word;
      return true;
    }
    if (word == "trace" || word == "check" || word == "save" ||
        word == "load") {
      stmt->kind = word == "trace"   ? Kind::kTrace
                   : word == "check" ? Kind::kCheck
                   : word == "save"  ? Kind::kSave
                                     : Kind::kLoad;
      stmt->name = word;
      MilToken arg;
      if (!Next(&arg)) return false;
      static_cast<MilPos&>(stmt->expr) = arg;
      stmt->expr.kind = MilExpr::Kind::kString;
      stmt->expr.text = arg.text;
      if (word == "trace") {
        if (arg.kind == Tok::kWord &&
            (arg.text == "on" || arg.text == "off" || arg.text == "dump" ||
             arg.text == "json")) {
          return true;
        }
        std::string message = "trace expects on|off|dump|json";
        if (arg.kind == Tok::kWord) message += ", got '" + arg.text + "'";
        return Error(arg, message);
      }
      if (arg.kind == Tok::kString) return true;
      if (word == "check") {
        return Error(arg, "check expects a quoted MIL script");
      }
      return Error(arg, word + " expects a quoted directory path");
    }
    if (tok.kind == Tok::kWord) {
      MilToken after;
      if (!Next(&after)) return false;
      if (after.kind == Tok::kAssign) {
        stmt->kind = Kind::kAssign;
        stmt->name = tok.text;
        return Expr(0, &stmt->expr);
      }
      PushBack(std::move(after));
    }
    PushBack(tok);
    stmt->kind = Kind::kExpr;
    return Expr(0, &stmt->expr);
  }

  bool Expr(int depth, MilExpr* out) {
    MilToken tok;
    if (!Next(&tok)) return false;
    if (depth > kMaxExprDepth) {
      return Error(tok, "MIL expression nested too deeply");
    }
    static_cast<MilPos&>(*out) = tok;
    out->text = tok.text;
    if (tok.kind == Tok::kNumber) {
      out->kind = MilExpr::Kind::kNumber;
      out->number = tok.number;
      return true;
    }
    if (tok.kind == Tok::kString) {
      out->kind = MilExpr::Kind::kString;
      return true;
    }
    if (tok.kind != Tok::kWord) {
      return Error(tok, "expected expression, got '" + tok.text + "'");
    }
    MilToken after;
    if (!Next(&after)) return false;
    if (after.kind != Tok::kLParen) {
      PushBack(std::move(after));
      out->kind = MilExpr::Kind::kVar;
      return true;
    }
    out->kind = MilExpr::Kind::kCall;
    MilToken peek;
    if (!Next(&peek)) return false;
    if (peek.kind != Tok::kRParen) {
      PushBack(std::move(peek));
      for (;;) {
        if (!Expr(depth + 1, &out->args.emplace_back())) return false;
        MilToken sep;
        if (!Next(&sep)) return false;
        if (sep.kind == Tok::kRParen) break;
        if (sep.kind != Tok::kComma) {
          return Error(sep, "expected ',' or ')' in call to " + out->text);
        }
      }
    }
    for (const MilOp& op : kOps) {
      if (out->text != op.name) continue;
      out->op = &op;
      if (op.params.size() == out->args.size()) return true;
    }
    if (out->op == nullptr) {
      return Error(tok, "unknown MIL function " + out->text);
    }
    return Error(tok, StrFormat("%s expects %zu arguments, got %zu",
                                out->op->name, out->op->params.size(),
                                out->args.size()));
  }

  bool Next(MilToken* tok) {
    if (!pushed_.empty()) {
      *tok = std::move(pushed_.back());
      pushed_.pop_back();
      return true;
    }
    Result<MilToken> next = lexer_.Next();
    if (!next.ok()) {
      diags_->Error(lexer_.token_line(), lexer_.token_col(),
                    next.status().message());
      return false;
    }
    *tok = std::move(next).value();
    return true;
  }

  void PushBack(MilToken tok) { pushed_.push_back(std::move(tok)); }

  bool Error(const MilPos& at, std::string message) {
    diags_->Error(at.line, at.col, std::move(message));
    return false;
  }

  MilLexer lexer_;
  DiagnosticList* diags_;
  std::vector<MilToken> pushed_;
};

/// A number the interpreter casts to an integer (unsigned: a slice
/// position, an insert head or oid tail; signed: an int tail) must be in
/// range. Fractions truncate.
Status MilIntegerRange(double v, bool is_signed, const std::string& context) {
  // 2^63 and 2^64 are exact doubles; NaN fails every comparison.
  if (is_signed ? v >= -9223372036854775808.0 && v < 9223372036854775808.0
                : v >= 0.0 && v < 18446744073709551616.0) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrFormat("%s must be in [%s, 2^%d), got %g", context.c_str(),
                is_signed ? "-2^63" : "0", is_signed ? 63 : 64, v));
}

Status CheckParam(const MilOp::Param& p, const std::string& what,
                  MilKind kind, const double* number) {
  if ((p.kinds >> static_cast<int>(kind) & 1u) == 0) {
    if ((p.kinds & kBat) != 0) {
      return Status::InvalidArgument("expected a BAT for " + what);
    }
    if ((p.kinds & kNum) != 0) {
      return Status::InvalidArgument("expected a number for " + what);
    }
    return Status::InvalidArgument(what);
  }
  if (number == nullptr || p.integer == Int::kNo) return Status::OK();
  return MilIntegerRange(*number, p.integer == Int::kSigned, what);
}

}  // namespace

MilProgram ParseMilScript(const std::string& script, DiagnosticList* diags) {
  return MilParser(script, diags).Run();
}

Status CheckMilArg(const MilOp& op, size_t i, MilKind kind,
                   const double* number) {
  const MilOp::Param& p = op.params[i];
  return CheckParam(p, p.what != nullptr ? p.what : op.name, kind, number);
}

Status MilInsertTail(TailType tail, MilKind kind, const double* number) {
  if (tail == TailType::kStr) {
    return CheckParam({kStr}, "insert tail must be a string", kind, number);
  }
  const Int integer = tail == TailType::kInt   ? Int::kSigned
                      : tail == TailType::kOid ? Int::kUnsigned
                                               : Int::kNo;
  return CheckParam({kNum, nullptr, integer}, "insert tail", kind, number);
}

Result<TailType> MilNewType(const std::string& type) {
  if (type == "int") return TailType::kInt;
  if (type == "dbl") return TailType::kFloat;
  if (type == "str") return TailType::kStr;
  if (type == "oid") return TailType::kOid;
  return Status::InvalidArgument("unknown BAT type " + type);
}

double MilCountLimit(const MilOp& op) {
  return op.code == Code::kShards ? 64.0 : 1024.0;
}

Status MilCountRange(const MilOp& op, double n) {
  const double limit = MilCountLimit(op);
  if (n >= 1.0 && n == std::floor(n) && n <= limit) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "%s expects an integer in [1, %g], got %g", op.name, limit, n));
}

Status MilConcatTails(TailType a, TailType b) {
  if (a == b) return Status::OK();
  return Status::InvalidArgument("concat requires matching tail types");
}

Status MilStorageRule(const MilStmt& stmt, int shards,
                      bool data_dir_attached) {
  if (shards > 1) {
    // Storage of a sharded deployment is per-shard (ShardedCatalog
    // checkpoints into dir/shard-<k>); a single-directory save/load would
    // silently capture one node's view of a cluster.
    return Status::FailedPrecondition(StrFormat(
        "%s illegal while the session is sharded (shards(%d) in effect); "
        "storage is per-shard — reset with shards(1)",
        stmt.name.c_str(), shards));
  }
  if (stmt.kind == MilStmt::Kind::kCheckpoint && !data_dir_attached) {
    return Status::FailedPrecondition(
        "checkpoint requires an attached data directory; construct the "
        "session with one or set COBRA_DATA_DIR");
  }
  return Status::OK();
}

Status MilTraceRule(const MilStmt& stmt, bool sink_ready) {
  const std::string& mode = stmt.expr.text;
  if (sink_ready || mode == "on" || mode == "off") return Status::OK();
  return Status::FailedPrecondition(
      "trace has not been enabled; run 'trace on' first");
}

}  // namespace cobra::kernel
