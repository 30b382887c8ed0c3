// Static verification of MIL scripts (AnalyzeMilScript / the abstract
// interpreter AnalyzeMilScriptWithFacts, declared in mil.h).
//
// The analyzer is a mirror of the interpreter in mil.cc over an abstract
// value domain: instead of BATs/doubles/strings it propagates a lattice of
// static facts — type, cardinality interval, numeric value hull,
// NaN-possibility, dictionary contents, sortedness — through the same LL(1)
// grammar, driven by the same MilLexer, in the same evaluation order.
// Because MIL is straight-line — no control flow — the abstract walk visits
// exactly the states the interpreter would, which gives the key properties:
//
//  * soundness of rejection: every error reported here is an error the
//    interpreter would also have raised (same message, same StatusCode),
//    except that the analyzer raises it before ANY operator has run;
//  * zero false rejections: whenever a type or value is not statically
//    known, every check involving it passes;
//  * soundness of facts: every PlanFact interval [rows_lo, rows_hi]
//    contains the row count the call site produces at execution time, every
//    provably_empty call site produces zero rows, and every single_shard
//    proof names the only shard slice whose zone map can match.
//
// The lattice is seeded from REAL catalog state: bat('x') resolved against
// the live catalog records the exact row count, scans a zone map (min/max
// over non-NaN tails, in the same double domain the runtime compares in —
// int tails are cast per row exactly like Bat::SelectRange), copies the
// string dictionary, checks sortedness, and notes index presence. The one
// assumption making this sound is single-writer catalog access during a
// script: a bat('x') resolved at analysis time is assumed to still resolve
// to the same value moments later at execution time. Within the script,
// mutations (persist/load/insert/assignment) are tracked by the abstract
// walk itself, so facts always describe the state at their program point.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/diag.h"
#include "base/strings.h"
#include "kernel/mil.h"
#include "kernel/mil_lexer.h"
#include "kernel/persist.h"
#include "kernel/shard.h"

namespace cobra::kernel {
namespace {

constexpr int kMaxExprDepth = 200;  // keep in sync with mil.cc

/// Cardinality arithmetic saturating at kCardUnbounded ("no upper bound").
uint64_t SatAdd(uint64_t a, uint64_t b) {
  if (a == kCardUnbounded || b == kCardUnbounded) return kCardUnbounded;
  const uint64_t s = a + b;
  return s < a ? kCardUnbounded : s;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kCardUnbounded || b == kCardUnbounded) return kCardUnbounded;
  if (a > kCardUnbounded / b) return kCardUnbounded;
  return a * b;
}

/// Static approximation of a MilValue: the abstract-interpretation lattice.
struct SType {
  enum class Kind { kNumber, kString, kBat, kAny };
  Kind kind = Kind::kAny;

  // kBat: tail type when provable.
  bool tail_known = false;
  TailType tail = TailType::kInt;

  /// kBat: static cardinality interval — every execution of the expression
  /// produces a row count n with rows_lo <= n <= rows_hi. rows_hi of
  /// kCardUnbounded means no static upper bound; lo == hi is the exact case.
  uint64_t rows_lo = 0;
  uint64_t rows_hi = kCardUnbounded;

  /// kBat numeric tails: the value hull. When hull_known, every non-NaN
  /// tail value v satisfies hull_min <= v <= hull_max, compared in the
  /// double domain the runtime compares in (int tails cast per row);
  /// hull_empty strengthens that to "there are no non-NaN values at all".
  /// maybe_nan records whether a NaN tail value may be present (a range
  /// select never matches NaN, so its output clears it).
  bool hull_known = false;
  bool hull_empty = false;
  double hull_min = 0.0;
  double hull_max = 0.0;
  bool maybe_nan = true;

  /// kBat str tails: a superset of the distinct tail strings (the BAT's
  /// dictionary). Null when unknown. A probe absent from a known dictionary
  /// proves the equality select empty.
  std::shared_ptr<const std::set<std::string>> dict;

  /// kBat: tails provably sorted ascending (non-strict, no NaN). Currently
  /// advisory — it survives order-preserving operators and is seeded from
  /// the catalog scan; a binary-search select rewrite could consume it.
  bool sorted = false;

  /// kBat: the BAT had a built tail hash index at analysis time (catalog
  /// fact, surfaced in PlanFact::index_present).
  bool tail_index = false;

  /// Direct catalog/session seed: the analyzed Bat this expression is a
  /// byte-identical copy of. Set only by bat('x') resolving in the REAL
  /// catalog (not the persist overlay) and by session-variable seeding;
  /// cleared by every deriving operator. Valid for the analysis pass only —
  /// analysis never mutates the catalog. Enables per-shard zone-map proofs.
  const Bat* concrete = nullptr;

  /// Catalog name this BAT is a snapshot of (set by bat('x')); used for the
  /// stale-snapshot hazard when persist('x', ...) later replaces the BAT.
  std::string snapshot_of;

  // kNumber / kString: literal value when statically known.
  bool value_known = false;
  double number = 0.0;
  std::string str;

  /// kNumber: numeric interval [num_lo, num_hi] when the exact value is not
  /// known (aggregate results; INFINITY bounds are legal). Sound the same
  /// way the row interval is.
  bool num_bounds_known = false;
  double num_lo = 0.0;
  double num_hi = 0.0;

  static SType Any() { return SType{}; }
  static SType Num() {
    SType t;
    t.kind = Kind::kNumber;
    return t;
  }
  static SType NumVal(double v) {
    SType t = Num();
    t.value_known = true;
    t.number = v;
    return t;
  }
  static SType Str() {
    SType t;
    t.kind = Kind::kString;
    return t;
  }
  static SType StrVal(std::string s) {
    SType t = Str();
    t.value_known = true;
    t.str = std::move(s);
    return t;
  }
  static SType BatAny() {
    SType t;
    t.kind = Kind::kBat;
    return t;
  }
  static SType BatOf(TailType tail) {
    SType t = BatAny();
    t.tail_known = true;
    t.tail = tail;
    // NaN can only live in a float tail.
    t.maybe_nan = tail == TailType::kFloat;
    return t;
  }

  bool IsNumericTail() const {
    return tail == TailType::kInt || tail == TailType::kFloat;
  }
  bool RowsExact() const { return rows_lo == rows_hi; }
  bool ProvablyEmpty() const { return rows_hi == 0; }
  void SetExactRows(uint64_t n) {
    rows_lo = n;
    rows_hi = n;
  }
};

/// Widens t's hull to admit the value v (NaN folds into maybe_nan).
void ExtendHull(SType* t, double v) {
  if (std::isnan(v)) {
    t->maybe_nan = true;
    return;
  }
  if (!t->hull_known) return;
  if (t->hull_empty) {
    t->hull_min = v;
    t->hull_max = v;
    t->hull_empty = false;
    return;
  }
  t->hull_min = std::min(t->hull_min, v);
  t->hull_max = std::max(t->hull_max, v);
}

/// Zone-map test for one shard slice: false only when the slice PROVABLY
/// produces no row for select(lo, hi) — exactly the pruning rule
/// ShardedSelectRange applies (`!has_non_nan || max < lo || min > hi`),
/// computed in the runtime's double domain.
bool SliceMayMatch(const Bat& bat, const ShardRange& r, double lo, double hi) {
  bool has = false;
  double mn = 0.0, mx = 0.0;
  auto fold = [&](double v) {
    if (std::isnan(v)) return;
    if (!has) {
      mn = v;
      mx = v;
      has = true;
      return;
    }
    if (v < mn) mn = v;
    if (v > mx) mx = v;
  };
  if (bat.tail_type() == TailType::kInt) {
    const auto& ints = bat.int_tails();
    for (size_t i = r.begin; i < r.end && i < ints.size(); ++i) {
      fold(static_cast<double>(ints[i]));
    }
  } else if (bat.tail_type() == TailType::kFloat) {
    const auto& floats = bat.float_tails();
    for (size_t i = r.begin; i < r.end && i < floats.size(); ++i) {
      fold(floats[i]);
    }
  } else {
    return true;  // non-numeric tails carry no zone map: never prunable
  }
  return has && !(mx < lo || mn > hi);
}

class MilAnalyzer {
 public:
  MilAnalyzer(const std::string& script, const MilAnalysisContext& ctx)
      : lexer_(script),
        ctx_(ctx),
        trace_ready_(ctx.trace_ready),
        shards_(ctx.shards) {
    SeedSessionVariables();
  }

  DiagnosticList Run() {
    for (;;) {
      MilToken tok;
      if (!Next(&tok)) break;
      if (tok.kind == MilToken::Kind::kEnd) break;
      if (tok.kind == MilToken::Kind::kSemi) continue;

      if (tok.kind == MilToken::Kind::kWord && tok.text == "VAR") {
        MilToken name;
        if (!Next(&name)) break;
        if (name.kind != MilToken::Kind::kWord) {
          Error(name, "expected variable name after VAR");
          break;
        }
        MilToken assign;
        if (!Next(&assign)) break;
        if (assign.kind != MilToken::Kind::kAssign) {
          Error(assign, "expected ':=' after VAR " + name.text);
          break;
        }
        std::optional<SType> value = ParseExpr(0);
        if (!value) break;
        vars_.insert_or_assign(name.text, *value);
        continue;
      }
      if (tok.kind == MilToken::Kind::kWord && tok.text == "PRINT") {
        if (!ParseExpr(0)) break;
        continue;
      }
      if (tok.kind == MilToken::Kind::kWord && tok.text == "trace") {
        if (!AnalyzeTrace()) break;
        continue;
      }
      if (tok.kind == MilToken::Kind::kWord && tok.text == "check") {
        // Strict-mode analysis of the quoted script happens at runtime; its
        // findings are output, not errors, so they do not invalidate the
        // enclosing script. Only the statement's own shape is checked here.
        MilToken arg;
        if (!Next(&arg)) break;
        if (arg.kind != MilToken::Kind::kString) {
          Error(arg, "check expects a quoted MIL script");
          break;
        }
        continue;
      }
      if (tok.kind == MilToken::Kind::kWord &&
          (tok.text == "save" || tok.text == "load")) {
        if (!CheckNotSharded(tok)) break;
        if (!AnalyzeSaveLoad(tok)) break;
        continue;
      }
      if (tok.kind == MilToken::Kind::kWord && tok.text == "checkpoint") {
        if (!CheckNotSharded(tok)) break;
        if (!ctx_.data_dir_attached) {
          Error(tok,
                "checkpoint requires an attached data directory; construct "
                "the session with one or set COBRA_DATA_DIR",
                StatusCode::kFailedPrecondition);
          break;
        }
        continue;
      }
      if (tok.kind == MilToken::Kind::kWord) {
        MilToken after;
        if (!Next(&after)) break;
        if (after.kind == MilToken::Kind::kAssign) {
          if (vars_.count(tok.text) == 0) {
            Error(tok, "assignment to undeclared variable " + tok.text,
                  StatusCode::kNotFound);
            break;
          }
          std::optional<SType> value = ParseExpr(0);
          if (!value) break;
          vars_.insert_or_assign(tok.text, *value);
          continue;
        }
        PushBack(std::move(after));
      }
      PushBack(std::move(tok));
      if (!ParseExpr(0)) break;
    }
    return std::move(diags_);
  }

  std::vector<PlanFact> TakeFacts() { return std::move(facts_); }

 private:
  // -- Token plumbing (mirrors mil.cc's pushback stack) --------------------

  bool Next(MilToken* tok) {
    if (!pushed_.empty()) {
      *tok = std::move(pushed_.back());
      pushed_.pop_back();
      cur_line_ = tok->line;
      cur_col_ = tok->col;
      return true;
    }
    Result<MilToken> next = lexer_.Next();
    if (!next.ok()) {
      diags_.Error(lexer_.token_line(), lexer_.token_col(),
                   next.status().message(), next.status().code());
      return false;
    }
    *tok = std::move(next).value();
    cur_line_ = tok->line;
    cur_col_ = tok->col;
    return true;
  }

  void PushBack(MilToken tok) { pushed_.push_back(std::move(tok)); }

  void Error(const MilToken& at, std::string message,
             StatusCode code = StatusCode::kInvalidArgument) {
    diags_.Error(at.line, at.col, std::move(message), code);
  }

  void Warn(const MilToken& at, std::string message) {
    diags_.Warning(at.line, at.col, std::move(message));
  }

  // -- Environment ---------------------------------------------------------

  /// Seeds the lattice from a real Bat the execution will start from (a
  /// catalog resolution or a session variable): exact row count, zone-map
  /// hull over non-NaN tails, NaN presence, dictionary contents, sortedness
  /// and index state — one O(rows) scan, the same per-row double casts the
  /// runtime's SelectRange applies.
  void SeedFromBat(SType* t, const Bat& bat) {
    t->SetExactRows(bat.size());
    t->concrete = &bat;
    t->tail_index = bat.accel_info().tail_index_built;
    switch (bat.tail_type()) {
      case TailType::kInt: {
        t->maybe_nan = false;
        t->hull_known = true;
        t->hull_empty = true;
        t->sorted = true;
        double prev = 0.0;
        for (const int64_t raw : bat.int_tails()) {
          const double v = static_cast<double>(raw);
          if (t->hull_empty) {
            t->hull_min = v;
            t->hull_max = v;
            t->hull_empty = false;
          } else {
            if (v < prev) t->sorted = false;
            t->hull_min = std::min(t->hull_min, v);
            t->hull_max = std::max(t->hull_max, v);
          }
          prev = v;
        }
        break;
      }
      case TailType::kFloat: {
        t->maybe_nan = false;
        t->hull_known = true;
        t->hull_empty = true;
        t->sorted = true;
        bool first = true;
        double prev = 0.0;
        for (const double v : bat.float_tails()) {
          if (std::isnan(v)) {
            t->maybe_nan = true;
            t->sorted = false;
            continue;
          }
          if (!first && v < prev) t->sorted = false;
          if (t->hull_empty) {
            t->hull_min = v;
            t->hull_max = v;
            t->hull_empty = false;
          } else {
            t->hull_min = std::min(t->hull_min, v);
            t->hull_max = std::max(t->hull_max, v);
          }
          prev = v;
          first = false;
        }
        break;
      }
      case TailType::kStr: {
        t->maybe_nan = false;
        auto dict = std::make_shared<std::set<std::string>>();
        for (size_t c = 0; c < bat.DictSize(); ++c) {
          dict->insert(bat.DictAt(static_cast<uint32_t>(c)));
        }
        t->dict = std::move(dict);
        break;
      }
      case TailType::kOid:
        t->maybe_nan = false;
        break;
    }
  }

  void SeedSessionVariables() {
    if (ctx_.variables == nullptr) return;
    for (const auto& [name, value] : *ctx_.variables) {
      if (const double* d = std::get_if<double>(&value)) {
        vars_[name] = SType::NumVal(*d);
      } else if (const std::string* s = std::get_if<std::string>(&value)) {
        vars_[name] = SType::StrVal(*s);
      } else {
        const Bat& bat = std::get<Bat>(value);
        SType t = SType::BatOf(bat.tail_type());
        SeedFromBat(&t, bat);
        vars_[name] = t;
      }
    }
  }

  /// Resolves a catalog BAT name through the in-script persist() overlay,
  /// then the real catalog. Returns false after recording a NotFound
  /// diagnostic; on success *tail is the tail type when known and
  /// *concrete, when non-null, is the live catalog Bat (set ONLY for a real
  /// catalog hit — the abstract overlay has no bytes to seed from).
  bool LookupCatalog(const std::string& name, const MilToken& at,
                     std::optional<TailType>* tail,
                     const Bat** concrete = nullptr) {
    if (concrete != nullptr) *concrete = nullptr;
    auto overlay = overlay_.find(name);
    if (overlay != overlay_.end()) {
      *tail = overlay->second;
      return true;
    }
    // After a `load` the catalog the script will see is the recovered one,
    // not the one we can inspect — every lookup becomes fully conservative
    // (unknown tail, misses allowed), preserving zero false rejections.
    if (catalog_unknown_) {
      tail->reset();
      return true;
    }
    if (ctx_.catalog == nullptr) {
      tail->reset();
      return true;
    }
    Result<const Bat*> bat = ctx_.catalog->Get(name);
    if (!bat.ok()) {
      // A persist() whose target name was not statically known could have
      // created this binding by execution time — stay conservative then.
      if (overlay_wildcard_) {
        tail->reset();
        return true;
      }
      Error(at, bat.status().message(), bat.status().code());
      return false;
    }
    *tail = (*bat)->tail_type();
    if (concrete != nullptr) *concrete = *bat;
    return true;
  }

  /// Records one abstract-interpretation fact for the call site at
  /// `name_tok`, applying the unsound-narrowing test seam when armed (the
  /// seam narrows ONLY the upper bound — provable-empty and shard proofs
  /// stay genuine, so outputs stay byte-identical and only the containment
  /// walk of the differential harness can catch the defect).
  void EmitFact(const MilToken& name_tok, const std::string& op,
                const SType& out, bool provably_empty, int single_shard = -1,
                size_t single_of = 0, size_t shard_begin = 0,
                size_t shard_end = 0, bool index_present = false) {
    PlanFact f;
    f.line = name_tok.line;
    f.col = name_tok.col;
    f.op = op;
    f.rows_lo = out.rows_lo;
    f.rows_hi = out.rows_hi;
    f.provably_empty = provably_empty;
    f.single_shard = single_shard;
    f.single_shard_of = single_of;
    f.shard_begin = shard_begin;
    f.shard_end = shard_end;
    f.index_present = index_present;
    if (ctx_.unsafe_narrow_intervals && f.rows_hi > 0) {
      f.rows_hi = f.rows_hi == kCardUnbounded ? 1 : f.rows_hi / 2;
      f.rows_lo = std::min(f.rows_lo, f.rows_hi);
    }
    facts_.push_back(std::move(f));
  }

  // -- Statements ----------------------------------------------------------

  /// Storage statements are FailedPrecondition while the statically-known
  /// shard count exceeds 1 (mirroring the interpreter; see the shards(n)
  /// grammar notes in mil.h). A count set from a non-literal is unknown and
  /// passes conservatively — the zero-false-rejection contract.
  bool CheckNotSharded(const MilToken& stmt) {
    if (!shards_known_ || shards_ <= 1) return true;
    Error(stmt,
          StrFormat("%s illegal while the session is sharded (shards(%d) in "
                    "effect); storage is per-shard — reset with shards(1)",
                    stmt.text.c_str(), shards_),
          StatusCode::kFailedPrecondition);
    return false;
  }

  bool AnalyzeTrace() {
    MilToken mode;
    if (!Next(&mode)) return false;
    if (mode.kind != MilToken::Kind::kWord) {
      Error(mode, "trace expects on|off|dump|json");
      return false;
    }
    if (mode.text == "on") {
      trace_ready_ = true;
    } else if (mode.text == "off") {
      // The sink is kept, so a later dump/json stays legal.
    } else if (mode.text == "dump" || mode.text == "json") {
      if (!trace_ready_) {
        Error(mode, "trace has not been enabled; run 'trace on' first",
              StatusCode::kFailedPrecondition);
        return false;
      }
    } else {
      Error(mode, "trace expects on|off|dump|json, got '" + mode.text + "'");
      return false;
    }
    return true;
  }

  /// `save '<dir>'` / `load '<dir>'`. Mirrors the interpreter: load of a
  /// directory with no store is a NotFound (unless this script saved into
  /// it first, or no filesystem was provided to check against). After a
  /// load the inspectable catalog is stale, so lookups go conservative and
  /// pre-load BAT snapshots become stale-read hazards.
  bool AnalyzeSaveLoad(const MilToken& stmt) {
    MilToken arg;
    if (!Next(&arg)) return false;
    if (arg.kind != MilToken::Kind::kString) {
      Error(arg, stmt.text + " expects a quoted directory path");
      return false;
    }
    if (stmt.text == "save") {
      saved_dirs_.insert(arg.text);
      return true;
    }
    if (ctx_.fs != nullptr && saved_dirs_.count(arg.text) == 0 &&
        !PersistentStore::Exists(*ctx_.fs, arg.text)) {
      Error(arg, "no persistent store at " + arg.text, StatusCode::kNotFound);
      return false;
    }
    catalog_unknown_ = true;
    overlay_wildcard_ = true;
    reloaded_ = true;
    return true;
  }

  // -- Expressions ---------------------------------------------------------

  std::optional<SType> ParseExpr(int depth) {
    if (depth > kMaxExprDepth) {
      diags_.Error(cur_line_, cur_col_, "MIL expression nested too deeply");
      return std::nullopt;
    }
    MilToken tok;
    if (!Next(&tok)) return std::nullopt;
    if (tok.kind == MilToken::Kind::kNumber) return SType::NumVal(tok.number);
    if (tok.kind == MilToken::Kind::kString) return SType::StrVal(tok.text);
    if (tok.kind != MilToken::Kind::kWord) {
      Error(tok, "expected expression, got '" + tok.text + "'");
      return std::nullopt;
    }
    const MilToken name_tok = tok;
    const std::string name = tok.text;
    MilToken after;
    if (!Next(&after)) return std::nullopt;
    if (after.kind != MilToken::Kind::kLParen) {
      PushBack(std::move(after));
      auto it = vars_.find(name);
      if (it == vars_.end()) {
        Error(name_tok, "unknown MIL variable " + name, StatusCode::kNotFound);
        return std::nullopt;
      }
      const SType& value = it->second;
      if (!value.snapshot_of.empty() &&
          (persisted_.count(value.snapshot_of) != 0 || reloaded_)) {
        const std::string message =
            persisted_.count(value.snapshot_of) != 0
                ? "variable '" + name + "' reads a snapshot of BAT '" +
                      value.snapshot_of + "' taken before persist('" +
                      value.snapshot_of + "', ...) replaced it"
                : "variable '" + name + "' reads a snapshot of BAT '" +
                      value.snapshot_of +
                      "' taken before load replaced the catalog";
        if (ctx_.strict) {
          Error(name_tok, message, StatusCode::kFailedPrecondition);
          return std::nullopt;
        }
        diags_.Warning(name_tok.line, name_tok.col, message);
      }
      return value;
    }
    // Function call: parse comma-separated arguments.
    std::vector<SType> args;
    std::vector<MilToken> arg_toks;
    MilToken peek;
    if (!Next(&peek)) return std::nullopt;
    if (peek.kind != MilToken::Kind::kRParen) {
      PushBack(std::move(peek));
      for (;;) {
        MilToken first;
        if (!Next(&first)) return std::nullopt;
        arg_toks.push_back(first);
        PushBack(std::move(first));
        std::optional<SType> arg = ParseExpr(depth + 1);
        if (!arg) return std::nullopt;
        args.push_back(*arg);
        MilToken sep;
        if (!Next(&sep)) return std::nullopt;
        if (sep.kind == MilToken::Kind::kRParen) break;
        if (sep.kind != MilToken::Kind::kComma) {
          Error(sep, "expected ',' or ')' in call to " + name);
          return std::nullopt;
        }
      }
    }
    return CheckCall(name_tok, name, args, arg_toks);
  }

  std::optional<SType> CheckCall(const MilToken& name_tok,
                                 const std::string& name,
                                 const std::vector<SType>& args,
                                 const std::vector<MilToken>& arg_toks) {
    auto arity = [&](size_t n) -> bool {
      if (args.size() != n) {
        Error(name_tok, StrFormat("%s expects %zu arguments, got %zu",
                                  name.c_str(), n, args.size()));
        return false;
      }
      return true;
    };
    // Definitely-wrong checks only: kAny always passes.
    auto require_bat = [&](size_t i, const std::string& context) -> bool {
      if (args[i].kind == SType::Kind::kNumber ||
          args[i].kind == SType::Kind::kString) {
        Error(arg_toks[i], "expected a BAT for " + context);
        return false;
      }
      return true;
    };
    auto require_number = [&](size_t i, const std::string& context) -> bool {
      if (args[i].kind == SType::Kind::kString ||
          args[i].kind == SType::Kind::kBat) {
        Error(arg_toks[i], "expected a number for " + context);
        return false;
      }
      return true;
    };
    // A known number the interpreter casts to an integer must be in range
    // (MilIntegerRange), reported at the same argument.
    auto require_integer = [&](size_t i, bool is_signed,
                               const std::string& context) -> bool {
      if (args[i].kind != SType::Kind::kNumber || !args[i].value_known) {
        return true;
      }
      const Status range = MilIntegerRange(args[i].number, is_signed, context);
      if (!range.ok()) Error(arg_toks[i], range.message());
      return range.ok();
    };
    auto definitely_not_string = [&](size_t i) -> bool {
      return args[i].kind == SType::Kind::kNumber ||
             args[i].kind == SType::Kind::kBat;
    };

    if (name == "bat") {
      if (!arity(1)) return std::nullopt;
      if (definitely_not_string(0)) {
        Error(arg_toks[0], "bat() expects a name string");
        return std::nullopt;
      }
      SType out = SType::BatAny();
      if (args[0].value_known) {
        std::optional<TailType> tail;
        const Bat* concrete = nullptr;
        if (!LookupCatalog(args[0].str, arg_toks[0], &tail, &concrete)) {
          return std::nullopt;
        }
        if (tail) {
          out.tail_known = true;
          out.tail = *tail;
          out.maybe_nan = *tail == TailType::kFloat;
        }
        if (concrete != nullptr) SeedFromBat(&out, *concrete);
        out.snapshot_of = args[0].str;
      }
      return out;
    }
    if (name == "persist") {
      if (!arity(2)) return std::nullopt;
      if (definitely_not_string(0)) {
        Error(arg_toks[0], "persist() expects a name string");
        return std::nullopt;
      }
      if (!require_bat(1, "persist")) return std::nullopt;
      if (args[0].value_known) {
        overlay_[args[0].str] =
            args[1].tail_known ? std::optional<TailType>(args[1].tail)
                               : std::nullopt;
        persisted_.insert(args[0].str);
      } else {
        overlay_wildcard_ = true;
      }
      SType out = args[1];
      out.kind = SType::Kind::kBat;
      out.concrete = nullptr;
      return out;
    }
    if (name == "new") {
      if (!arity(1)) return std::nullopt;
      if (definitely_not_string(0)) {
        Error(arg_toks[0], "new() expects a type string");
        return std::nullopt;
      }
      SType out = SType::BatAny();
      if (args[0].value_known) {
        const std::string& type = args[0].str;
        if (type == "int") {
          out = SType::BatOf(TailType::kInt);
        } else if (type == "dbl") {
          out = SType::BatOf(TailType::kFloat);
        } else if (type == "str") {
          out = SType::BatOf(TailType::kStr);
        } else if (type == "oid") {
          out = SType::BatOf(TailType::kOid);
        } else {
          Error(arg_toks[0], "unknown BAT type " + type);
          return std::nullopt;
        }
        if (type == "str") {
          out.dict = std::make_shared<std::set<std::string>>();
        }
      }
      out.SetExactRows(0);
      out.hull_known = true;
      out.hull_empty = true;
      out.maybe_nan = false;
      out.sorted = true;
      return out;
    }
    if (name == "insert") {
      if (!arity(3)) return std::nullopt;
      if (!require_bat(0, "insert")) return std::nullopt;
      if (!require_number(1, "insert head") ||
          !require_integer(1, /*is_signed=*/false, "insert head")) {
        return std::nullopt;
      }
      if (args[0].tail_known) {
        if (args[0].tail == TailType::kStr) {
          if (args[2].kind == SType::Kind::kNumber ||
              args[2].kind == SType::Kind::kBat) {
            Error(arg_toks[2], "insert tail must be a string");
            return std::nullopt;
          }
        } else if (args[2].kind == SType::Kind::kString ||
                   args[2].kind == SType::Kind::kBat) {
          Error(arg_toks[2], "expected a number for insert tail");
          return std::nullopt;
        } else if (args[0].tail != TailType::kFloat &&
                   !require_integer(2, args[0].tail == TailType::kInt,
                                    "insert tail")) {
          return std::nullopt;
        }
      }
      SType out = args[0];
      out.kind = SType::Kind::kBat;
      out.concrete = nullptr;
      out.rows_lo = SatAdd(out.rows_lo, 1);
      out.rows_hi = SatAdd(out.rows_hi, 1);
      out.sorted = false;
      // Fold the appended tail value into the hull / dictionary.
      if (!args[0].tail_known) {
        out.hull_known = false;
        out.maybe_nan = true;
        out.dict = nullptr;
      } else if (args[0].tail == TailType::kStr) {
        if (args[2].value_known && args[2].kind == SType::Kind::kString &&
            out.dict != nullptr) {
          auto dict = std::make_shared<std::set<std::string>>(*out.dict);
          dict->insert(args[2].str);
          out.dict = std::move(dict);
        } else {
          out.dict = nullptr;
        }
      } else if (args[0].tail == TailType::kFloat) {
        if (args[2].value_known && args[2].kind == SType::Kind::kNumber) {
          ExtendHull(&out, args[2].number);
        } else {
          out.hull_known = false;
          out.maybe_nan = true;
        }
      } else if (args[0].tail == TailType::kInt) {
        const double v = args[2].number;
        // Only integral literals small enough for the double<->int64 round
        // trip to be exact extend the hull; anything else drops it.
        if (args[2].value_known && args[2].kind == SType::Kind::kNumber &&
            std::isfinite(v) && v == std::floor(v) && std::abs(v) <= 9.0e15) {
          ExtendHull(&out, v);
        } else {
          out.hull_known = false;
        }
      }
      return out;
    }
    if (name == "select") {
      if (args.size() == 2) {
        if (!require_bat(0, "select")) return std::nullopt;
        if (definitely_not_string(1)) {
          Error(arg_toks[1], "two-argument select expects a string");
          return std::nullopt;
        }
        if (args[0].tail_known && args[0].tail != TailType::kStr) {
          Error(arg_toks[0], "SelectStr requires a str tail");
          return std::nullopt;
        }
        const SType& in = args[0];
        // On the success path the input tail was str, so the output is too.
        SType out = SType::BatOf(TailType::kStr);
        out.snapshot_of = in.snapshot_of;
        out.rows_lo = 0;
        out.rows_hi = in.rows_hi;
        out.sorted = in.sorted;
        bool empty = in.ProvablyEmpty();
        if (empty) {
          Warn(name_tok, "select over a provably empty BAT is statically "
                         "empty");
        } else if (args[1].value_known && in.dict != nullptr &&
                   in.dict->count(args[1].str) == 0) {
          empty = true;
          Warn(name_tok,
               StrFormat("statically dead predicate: select \"%s\" misses "
                         "the input dictionary (%zu entries)",
                         args[1].str.c_str(), in.dict->size()));
        }
        if (args[1].value_known) {
          auto dict = std::make_shared<std::set<std::string>>();
          dict->insert(args[1].str);
          out.dict = std::move(dict);
        } else {
          out.dict = in.dict;
        }
        if (empty) out.rows_hi = 0;
        EmitFact(name_tok, "select", out, empty, -1, 0, 0, 0, in.tail_index);
        return out;
      }
      if (!arity(3)) return std::nullopt;
      if (!require_bat(0, "select")) return std::nullopt;
      if (!require_number(1, "select lo")) return std::nullopt;
      if (!require_number(2, "select hi")) return std::nullopt;
      if (args[0].tail_known && !args[0].IsNumericTail()) {
        Error(arg_toks[0], "SelectRange requires a numeric tail");
        return std::nullopt;
      }
      const SType& in = args[0];
      SType out = in;
      out.kind = SType::Kind::kBat;
      out.concrete = nullptr;
      out.tail_index = false;
      out.dict = nullptr;
      out.rows_lo = 0;          // rows_hi inherited: output is a subset
      out.maybe_nan = false;    // NaN rows never match a range
      const bool bounds_known = args[1].value_known && args[2].value_known;
      const double lo = args[1].number;
      const double hi = args[2].number;
      // Output hull: every surviving value lies in the predicate range
      // intersected with the input hull.
      if (bounds_known) {
        out.hull_known = true;
        out.hull_empty = false;
        out.hull_min = lo;
        out.hull_max = hi;
        if (in.hull_known && !in.hull_empty) {
          out.hull_min = std::max(lo, in.hull_min);
          out.hull_max = std::min(hi, in.hull_max);
        }
        if ((in.hull_known && in.hull_empty) || std::isnan(lo) ||
            std::isnan(hi) || out.hull_min > out.hull_max) {
          out.hull_empty = true;
        }
      }
      bool empty = in.ProvablyEmpty();
      if (empty) {
        Warn(name_tok, "select over a provably empty BAT is statically "
                       "empty");
      } else if (bounds_known) {
        if (std::isnan(lo) || std::isnan(hi) || lo > hi) {
          empty = true;
          Warn(name_tok,
               StrFormat("statically dead predicate: select range [%g, %g] "
                         "never matches",
                         lo, hi));
        } else if (in.hull_known) {
          if (in.hull_empty) {
            empty = true;
            Warn(name_tok,
                 "statically dead predicate: the input has no non-NaN "
                 "values for the range to match");
          } else if (lo > in.hull_max || hi < in.hull_min) {
            empty = true;
            Warn(name_tok,
                 StrFormat("statically dead predicate: select range "
                           "[%g, %g] misses the input value hull [%g, %g]",
                           lo, hi, in.hull_min, in.hull_max));
          }
        }
      }
      // Per-shard zone maps over the concrete input: prove which slices of
      // the runtime partition can produce rows at all.
      int single_shard = -1;
      size_t single_of = 0, shard_begin = 0, shard_end = 0;
      if (!empty && bounds_known && in.concrete != nullptr &&
          in.IsNumericTail() && shards_known_ && shards_ > 1) {
        const Bat& bat = *in.concrete;
        const std::vector<ShardRange> ranges = ShardRanges(
            bat.size(), static_cast<size_t>(shards_), ctx_.morsel_rows);
        int candidates = 0;
        int last = -1;
        for (size_t k = 0; k < ranges.size(); ++k) {
          if (SliceMayMatch(bat, ranges[k], lo, hi)) {
            ++candidates;
            last = static_cast<int>(k);
          }
        }
        if (candidates == 0) {
          empty = true;
          Warn(name_tok,
               "statically dead predicate: every shard's zone map misses "
               "the select range");
        } else if (candidates == 1) {
          single_shard = last;
          single_of = ranges.size();
          shard_begin = ranges[static_cast<size_t>(last)].begin;
          shard_end = ranges[static_cast<size_t>(last)].end;
        }
      }
      if (empty) {
        out.rows_hi = 0;
        out.hull_known = true;
        out.hull_empty = true;
      }
      EmitFact(name_tok, "select", out, empty, single_shard, single_of,
               shard_begin, shard_end, in.tail_index);
      return out;
    }
    if (name == "threadcnt" || name == "shards") {
      const bool is_shards = name == "shards";
      const double limit = is_shards ? 64.0 : 1024.0;
      if (!arity(1)) return std::nullopt;
      if (!require_number(0, name)) return std::nullopt;
      if (args[0].value_known) {
        const double n = args[0].number;
        if (n < 1.0 || n != std::floor(n) || n > limit) {
          Error(arg_toks[0],
                StrFormat("%s expects an integer in [1, %g], got %g",
                          name.c_str(), limit, n));
          return std::nullopt;
        }
        if (is_shards) {
          shards_known_ = true;
          shards_ = static_cast<int>(n);
        }
        return SType::NumVal(n);
      }
      // Abstract-value consumer: a scalar whose static interval lies
      // entirely outside the legal range fails at runtime for every
      // possible value, so reject it now (still zero false rejections).
      if (args[0].num_bounds_known &&
          (args[0].num_hi < 1.0 || args[0].num_lo > limit)) {
        Error(arg_toks[0],
              StrFormat("%s expects an integer in [1, %g]; the argument is "
                        "statically in [%g, %g]",
                        name.c_str(), limit, args[0].num_lo,
                        args[0].num_hi));
        return std::nullopt;
      }
      if (is_shards) shards_known_ = false;
      return SType::Num();
    }
    if (name == "join" || name == "semijoin" || name == "diff") {
      if (!arity(2)) return std::nullopt;
      if (!require_bat(0, name)) return std::nullopt;
      if (!require_bat(1, name)) return std::nullopt;
      const SType& a = args[0];
      const SType& b = args[1];
      if (name == "join") {
        if (a.tail_known && a.tail != TailType::kOid) {
          Error(arg_toks[0], "Join needs an oid tail on the left BAT");
          return std::nullopt;
        }
        // Output tail values all come from b; each of a's rows matches at
        // most every b row, hence the product upper bound.
        SType out = b;
        out.kind = SType::Kind::kBat;
        out.concrete = nullptr;
        out.tail_index = false;
        out.snapshot_of.clear();
        out.sorted = false;
        out.rows_lo = 0;
        out.rows_hi = SatMul(a.rows_hi, b.rows_hi);
        const bool empty = a.ProvablyEmpty() || b.ProvablyEmpty();
        if (empty) out.rows_hi = 0;
        EmitFact(name_tok, "join", out, empty);
        return out;
      }
      // Semijoin/diff are order-preserving filters of a: tail facts, hull,
      // dictionary and sortedness survive; the row count can only shrink.
      SType out = a;
      out.kind = SType::Kind::kBat;
      out.concrete = nullptr;
      out.tail_index = false;
      out.rows_lo = 0;
      bool empty = a.ProvablyEmpty();
      if (name == "semijoin") {
        empty = empty || b.ProvablyEmpty();
      } else if (b.ProvablyEmpty()) {
        out.rows_lo = a.rows_lo;  // diff against nothing passes a through
      }
      if (empty) out.rows_hi = 0;
      EmitFact(name_tok, name, out, empty);
      return out;
    }
    if (name == "concat") {
      if (!arity(2)) return std::nullopt;
      if (!require_bat(0, "concat")) return std::nullopt;
      if (!require_bat(1, "concat")) return std::nullopt;
      const SType& a = args[0];
      const SType& b = args[1];
      if (a.tail_known && b.tail_known && a.tail != b.tail) {
        Error(name_tok, "concat requires matching tail types");
        return std::nullopt;
      }
      SType out;
      if (a.tail_known) {
        out = SType::BatOf(a.tail);
      } else if (b.tail_known) {
        out = SType::BatOf(b.tail);
      } else {
        out = SType::BatAny();
      }
      out.rows_lo = SatAdd(a.rows_lo, b.rows_lo);
      out.rows_hi = SatAdd(a.rows_hi, b.rows_hi);
      out.maybe_nan = a.maybe_nan || b.maybe_nan;
      if (a.hull_known && b.hull_known) {
        out.hull_known = true;
        if (a.hull_empty && b.hull_empty) {
          out.hull_empty = true;
        } else if (a.hull_empty) {
          out.hull_min = b.hull_min;
          out.hull_max = b.hull_max;
        } else if (b.hull_empty) {
          out.hull_min = a.hull_min;
          out.hull_max = a.hull_max;
        } else {
          out.hull_min = std::min(a.hull_min, b.hull_min);
          out.hull_max = std::max(a.hull_max, b.hull_max);
        }
      }
      if (a.dict != nullptr && b.dict != nullptr) {
        auto dict = std::make_shared<std::set<std::string>>(*a.dict);
        dict->insert(b.dict->begin(), b.dict->end());
        out.dict = std::move(dict);
      }
      out.snapshot_of = a.snapshot_of;
      EmitFact(name_tok, "concat", out, out.rows_hi == 0);
      return out;
    }
    if (name == "info") {
      if (!arity(1)) return std::nullopt;
      if (args[0].kind == SType::Kind::kString) {
        if (args[0].value_known) {
          std::optional<TailType> tail;
          if (!LookupCatalog(args[0].str, arg_toks[0], &tail)) {
            return std::nullopt;
          }
        }
      } else if (args[0].kind == SType::Kind::kNumber) {
        Error(arg_toks[0], "expected a BAT for info");
        return std::nullopt;
      }
      return SType::Str();
    }
    if (name == "reverse" || name == "mirror") {
      if (!arity(1)) return std::nullopt;
      if (!require_bat(0, name)) return std::nullopt;
      if (name == "reverse" && args[0].tail_known &&
          args[0].tail != TailType::kOid) {
        Error(arg_toks[0], "Reverse requires an oid tail");
        return std::nullopt;
      }
      SType out = SType::BatOf(TailType::kOid);
      out.rows_lo = args[0].rows_lo;
      out.rows_hi = args[0].rows_hi;
      out.snapshot_of = args[0].snapshot_of;
      return out;
    }
    if (name == "group") {
      if (!arity(1)) return std::nullopt;
      if (!require_bat(0, "group")) return std::nullopt;
      // One dense group id per input row: the row count carries over
      // exactly, whatever the tail type.
      SType out = SType::BatOf(TailType::kOid);
      out.rows_lo = args[0].rows_lo;
      out.rows_hi = args[0].rows_hi;
      out.snapshot_of = args[0].snapshot_of;
      EmitFact(name_tok, "group", out, args[0].ProvablyEmpty());
      return out;
    }
    if (name == "slice") {
      if (!arity(3)) return std::nullopt;
      if (!require_bat(0, "slice")) return std::nullopt;
      if (!require_number(1, "slice begin") ||
          !require_integer(1, /*is_signed=*/false, "slice begin") ||
          !require_number(2, "slice end") ||
          !require_integer(2, /*is_signed=*/false, "slice end")) {
        return std::nullopt;
      }
      SType out = args[0];
      out.kind = SType::Kind::kBat;
      out.concrete = nullptr;
      out.tail_index = false;
      out.rows_lo = 0;  // rows_hi inherited: a slice never grows
      if (args[1].value_known && args[2].value_known) {
        const double begin = args[1].number;
        const double end = args[2].number;
        // Mirror the runtime's clamp (end > size clamps, begin >= end is
        // empty); only trust literals whose size_t round trip is exact.
        if (begin >= 0 && end >= 0 && begin == std::floor(begin) &&
            end == std::floor(end) && begin <= 9.0e15 && end <= 9.0e15) {
          const uint64_t b = static_cast<uint64_t>(begin);
          const uint64_t e = static_cast<uint64_t>(end);
          out.rows_hi = std::min(out.rows_hi, e > b ? e - b : 0);
          if (args[0].RowsExact()) {
            const uint64_t clamped = std::min(e, args[0].rows_lo);
            out.SetExactRows(b < clamped ? clamped - b : 0);
          }
        }
      }
      return out;
    }
    if (name == "sum" || name == "max" || name == "min" || name == "count" ||
        name == "argmax") {
      if (!arity(1)) return std::nullopt;
      if (!require_bat(0, name)) return std::nullopt;
      const SType& in = args[0];
      if (name == "count") {
        if (in.RowsExact()) {
          return SType::NumVal(static_cast<double>(in.rows_lo));
        }
        SType out = SType::Num();
        out.num_bounds_known = true;
        out.num_lo = static_cast<double>(in.rows_lo);
        out.num_hi = in.rows_hi == kCardUnbounded
                         ? INFINITY
                         : static_cast<double>(in.rows_hi);
        return out;
      }
      // Mirror the runtime check order: Min/ArgMax test emptiness before
      // the tail type (Max delegates to ArgMax, hence its messages).
      if (name != "sum" && in.ProvablyEmpty()) {
        Error(name_tok,
              name == "min" ? "Min of empty BAT" : "ArgMax of empty BAT",
              StatusCode::kFailedPrecondition);
        return std::nullopt;
      }
      if (in.tail_known && !in.IsNumericTail()) {
        if (name == "sum") {
          Error(arg_toks[0], "Sum requires a numeric tail");
        } else if (name == "min") {
          Error(arg_toks[0], "Min requires a numeric tail");
        } else {
          Error(arg_toks[0], "ArgMax requires a numeric tail");
        }
        return std::nullopt;
      }
      SType out = SType::Num();
      if (name == "min" || name == "max") {
        // The result is one of the non-NaN tail values unless the BAT is
        // all-NaN (then it is NaN) — bounds only when NaN is impossible.
        if (in.hull_known && !in.hull_empty && !in.maybe_nan) {
          out.num_bounds_known = true;
          out.num_lo = in.hull_min;
          out.num_hi = in.hull_max;
        }
      } else if (name == "sum") {
        if (in.ProvablyEmpty()) return SType::NumVal(0.0);
        // A sum of c values each inside the hull lies between the extreme
        // products; one NaN poisons the fold, so bounds need !maybe_nan.
        if (in.hull_known && !in.hull_empty && !in.maybe_nan &&
            in.rows_hi != kCardUnbounded) {
          const double n_lo = static_cast<double>(in.rows_lo);
          const double n_hi = static_cast<double>(in.rows_hi);
          double lo = std::min(n_lo * in.hull_min, n_hi * in.hull_min);
          double hi = std::max(n_lo * in.hull_max, n_hi * in.hull_max);
          if (in.rows_lo == 0) {
            lo = std::min(lo, 0.0);
            hi = std::max(hi, 0.0);
          }
          out.num_bounds_known = true;
          out.num_lo = lo;
          out.num_hi = hi;
        }
      } else {  // argmax: a global row position of the input
        if (in.rows_hi != kCardUnbounded && in.rows_hi > 0) {
          out.num_bounds_known = true;
          out.num_lo = 0.0;
          out.num_hi = static_cast<double>(in.rows_hi - 1);
        }
      }
      return out;
    }
    Error(name_tok, "unknown MIL function " + name);
    return std::nullopt;
  }

  MilLexer lexer_;
  const MilAnalysisContext& ctx_;
  DiagnosticList diags_;
  std::vector<PlanFact> facts_;
  std::vector<MilToken> pushed_;
  int cur_line_ = 1;
  int cur_col_ = 1;

  std::map<std::string, SType> vars_;
  /// Names persist()ed by this script (shadowing the catalog), with their
  /// tail type when statically known.
  std::map<std::string, std::optional<TailType>> overlay_;
  /// True after a persist() whose target name was not statically known: any
  /// catalog-miss after that point may be satisfied at runtime.
  bool overlay_wildcard_ = false;
  std::set<std::string> persisted_;
  bool trace_ready_ = false;
  /// Statically-tracked shard count: seeded from the session, updated by
  /// shards(<literal>); a non-literal argument makes it unknown.
  bool shards_known_ = true;
  int shards_ = 1;
  /// Directories this script has saved into (a later `load` of one is
  /// known-good even if the directory does not exist yet at analysis time).
  std::set<std::string> saved_dirs_;
  /// True after a `load`: the catalog visible at analysis time no longer
  /// predicts execution time, so catalog lookups stop reporting misses.
  bool catalog_unknown_ = false;
  /// True after a `load`: pre-load bat() snapshots held in variables are
  /// stale-read hazards (errors in strict mode, warnings otherwise).
  bool reloaded_ = false;
};

}  // namespace

MilAnalysis AnalyzeMilScriptWithFacts(const std::string& script,
                                      const MilAnalysisContext& context) {
  MilAnalyzer analyzer(script, context);
  MilAnalysis out;
  out.diags = analyzer.Run();
  out.facts = analyzer.TakeFacts();
  return out;
}

DiagnosticList AnalyzeMilScript(const std::string& script,
                                const MilAnalysisContext& context) {
  return AnalyzeMilScriptWithFacts(script, context).diags;
}

}  // namespace cobra::kernel
