// Static verification of MIL scripts (AnalyzeMilScript / the abstract
// interpreter AnalyzeMilScriptWithFacts, declared in mil.h).
//
// The analyzer walks the program ParseMilScript produced — the program the
// interpreter in mil.cc runs — over an abstract value domain: instead of
// BATs/doubles/strings it propagates a lattice of static facts — kind,
// cardinality interval, numeric value hull, NaN-possibility, dictionary
// contents — and checks every call against the same operator table and
// rules (mil_program.h), in the same evaluation order. Because MIL is
// straight-line — no control flow — the abstract walk visits exactly the
// states the interpreter would, which gives the key properties:
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
// int tails are cast per row exactly like Bat::SelectRange), and copies the
// string dictionary. The one assumption making this sound is single-writer
// catalog access during a script: a bat('x') resolved at analysis time is
// assumed to still resolve to the same value moments later at execution
// time. Within the script, mutations (persist/load/insert/assignment) are
// tracked by the abstract walk itself, so facts always describe the state
// at their program point.

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
#include "kernel/mil_program.h"
#include "kernel/persist.h"
#include "kernel/shard.h"

namespace cobra::kernel {
namespace {

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
/// The kind is always exact; the facts below are exact or over-approximate.
struct SType {
  MilKind kind = MilKind::kNumber;

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

  static SType Num() { return SType{}; }
  static SType NumVal(double v) {
    SType t = Num();
    t.value_known = true;
    t.number = v;
    return t;
  }
  static SType Str() {
    SType t;
    t.kind = MilKind::kString;
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
    t.kind = MilKind::kBat;
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

  /// The value the signature check reads: a statically known number.
  const double* KnownNumber() const {
    return kind == MilKind::kNumber && value_known ? &number : nullptr;
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

class MilAnalyzer {
 public:
  explicit MilAnalyzer(const MilAnalysisContext& ctx)
      : ctx_(ctx), trace_ready_(ctx.trace_ready), shards_(ctx.shards) {
    SeedSessionVariables();
  }

  MilAnalysis Run(const MilProgram& program) {
    for (const MilStmt& stmt : program) {
      if (!Statement(stmt)) break;
    }
    return {std::move(diags_), std::move(facts_)};
  }

 private:
  /// Records an error; the nullopt lets an expression walk return it.
  std::nullopt_t Error(const MilPos& at, std::string message,
                       StatusCode code = StatusCode::kInvalidArgument) {
    diags_.Error(at.line, at.col, std::move(message), code);
    return std::nullopt;
  }
  std::nullopt_t Error(const MilPos& at, const Status& status) {
    return Error(at, status.message(), status.code());
  }

  void Warn(const MilPos& at, std::string message) {
    diags_.Warning(at.line, at.col, std::move(message));
  }

  // -- Environment ---------------------------------------------------------

  /// Seeds the lattice from a real Bat the execution will start from (a
  /// catalog resolution or a session variable): exact row count, zone-map
  /// hull over non-NaN tails, NaN presence and dictionary contents — one
  /// O(rows) scan, the same per-row double casts the runtime's SelectRange
  /// applies.
  void SeedFromBat(SType* t, const Bat& bat) {
    t->SetExactRows(bat.size());
    t->concrete = &bat;
    t->maybe_nan = false;
    if (bat.tail_type() == TailType::kStr) {
      auto dict = std::make_shared<std::set<std::string>>();
      for (size_t c = 0; c < bat.DictSize(); ++c) {
        dict->insert(bat.DictAt(static_cast<uint32_t>(c)));
      }
      t->dict = std::move(dict);
    } else if (bat.tail_type() != TailType::kOid) {
      t->hull_known = true;
      t->hull_empty = true;
      for (const int64_t v : bat.int_tails()) {
        ExtendHull(t, static_cast<double>(v));
      }
      for (const double v : bat.float_tails()) ExtendHull(t, v);
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
  bool LookupCatalog(const std::string& name, const MilPos& at,
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
    if (catalog_unknown_ || ctx_.catalog == nullptr) {
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
      Error(at, bat.status());
      return false;
    }
    *tail = (*bat)->tail_type();
    if (concrete != nullptr) *concrete = *bat;
    return true;
  }

  /// Records one abstract-interpretation fact for the call site `call`,
  /// applying the unsound-narrowing test seam when armed (the seam narrows
  /// ONLY the upper bound — provable-empty and shard proofs stay genuine,
  /// so outputs stay byte-identical and only the containment walk of the
  /// differential harness can catch the defect).
  void EmitFact(const MilExpr& call, const SType& out, bool provably_empty,
                int single_shard = -1, size_t single_of = 0,
                size_t shard_begin = 0, size_t shard_end = 0) {
    PlanFact f;
    f.line = call.line;
    f.col = call.col;
    f.op = call.op->name;
    f.rows_lo = out.rows_lo;
    f.rows_hi = out.rows_hi;
    f.provably_empty = provably_empty;
    f.single_shard = single_shard;
    f.single_shard_of = single_of;
    f.shard_begin = shard_begin;
    f.shard_end = shard_end;
    if (ctx_.unsafe_narrow_intervals && f.rows_hi > 0) {
      f.rows_hi = f.rows_hi == kCardUnbounded ? 1 : f.rows_hi / 2;
      f.rows_lo = std::min(f.rows_lo, f.rows_hi);
    }
    facts_.push_back(std::move(f));
  }

  // -- Statements ----------------------------------------------------------

  bool Statement(const MilStmt& stmt) {
    using Kind = MilStmt::Kind;
    switch (stmt.kind) {
      case Kind::kAssign:
        if (vars_.count(stmt.name) == 0) {
          Error(stmt, "assignment to undeclared variable " + stmt.name,
                StatusCode::kNotFound);
          return false;
        }
        [[fallthrough]];
      case Kind::kVar: {
        std::optional<SType> value = Eval(stmt.expr);
        if (!value) return false;
        vars_.insert_or_assign(stmt.name, std::move(*value));
        return true;
      }
      case Kind::kPrint:
      case Kind::kExpr:
        return Eval(stmt.expr).has_value();
      case Kind::kTrace: {
        // `off` keeps the sink, so a later dump/json stays legal.
        const Status ready = MilTraceRule(stmt, trace_ready_);
        if (!ready.ok()) {
          Error(stmt.expr, ready);
          return false;
        }
        if (stmt.expr.text == "on") trace_ready_ = true;
        return true;
      }
      case Kind::kCheck:
        // Strict-mode analysis of the quoted script happens at runtime; its
        // findings are output, not errors, so they do not invalidate the
        // enclosing script.
        return true;
      case Kind::kSave:
      case Kind::kLoad:
      case Kind::kCheckpoint:
        return Storage(stmt);
    }
    return true;
  }

  /// save/load/checkpoint. The storage rule sees the statically-known shard
  /// count; one set from a non-literal is unknown and passes conservatively
  /// — the zero-false-rejection contract. A load of a directory with no
  /// store is a NotFound (unless this script saved into it first, or no
  /// filesystem was provided to check against). After a load the
  /// inspectable catalog is stale, so lookups go conservative and pre-load
  /// BAT snapshots become stale-read hazards.
  bool Storage(const MilStmt& stmt) {
    const Status rule = MilStorageRule(stmt, shards_known_ ? shards_ : 1,
                                       ctx_.data_dir_attached);
    if (!rule.ok()) {
      Error(stmt, rule);
      return false;
    }
    const std::string& dir = stmt.expr.text;
    if (stmt.kind == MilStmt::Kind::kSave) saved_dirs_.insert(dir);
    if (stmt.kind != MilStmt::Kind::kLoad) return true;
    if (ctx_.fs != nullptr && saved_dirs_.count(dir) == 0 &&
        !PersistentStore::Exists(*ctx_.fs, dir)) {
      Error(stmt.expr, "no persistent store at " + dir,
            StatusCode::kNotFound);
      return false;
    }
    catalog_unknown_ = true;
    overlay_wildcard_ = true;
    reloaded_ = true;
    return true;
  }

  // -- Expressions ---------------------------------------------------------

  std::optional<SType> Eval(const MilExpr& e) {
    switch (e.kind) {
      case MilExpr::Kind::kNumber:
        return SType::NumVal(e.number);
      case MilExpr::Kind::kString:
        return SType::StrVal(e.text);
      case MilExpr::Kind::kVar:
        return Variable(e);
      case MilExpr::Kind::kCall:
        break;
    }
    std::vector<SType> args;
    for (const MilExpr& arg : e.args) {
      std::optional<SType> t = Eval(arg);
      if (!t) return std::nullopt;
      args.push_back(std::move(*t));
    }
    for (size_t i = 0; i < args.size(); ++i) {
      const Status s =
          CheckMilArg(*e.op, i, args[i].kind, args[i].KnownNumber());
      if (!s.ok()) return Error(e.args[i], s);
    }
    return Transfer(e, args);
  }

  std::optional<SType> Variable(const MilExpr& e) {
    auto it = vars_.find(e.text);
    if (it == vars_.end()) {
      return Error(e, "unknown MIL variable " + e.text, StatusCode::kNotFound);
    }
    const SType& value = it->second;
    const std::string& of = value.snapshot_of;
    if (!of.empty() && (persisted_.count(of) != 0 || reloaded_)) {
      const std::string message =
          "variable '" + e.text + "' reads a snapshot of BAT '" + of +
          "' taken before " +
          (persisted_.count(of) != 0
               ? "persist('" + of + "', ...) replaced it"
               : std::string("load replaced the catalog"));
      if (ctx_.strict) {
        return Error(e, message, StatusCode::kFailedPrecondition);
      }
      Warn(e, message);
    }
    return value;
  }

  /// The transfer function of each operator over arguments that passed the
  /// signature check: the output's static facts, or an error the operator
  /// provably raises.
  std::optional<SType> Transfer(const MilExpr& e,
                                const std::vector<SType>& args) {
    using Code = MilOp::Code;
    const Code code = e.op->code;
    switch (code) {
      case Code::kBat: {
        SType out = SType::BatAny();
        if (args[0].value_known) {
          std::optional<TailType> tail;
          const Bat* concrete = nullptr;
          if (!LookupCatalog(args[0].str, e.args[0], &tail, &concrete)) {
            return std::nullopt;
          }
          if (tail) out = SType::BatOf(*tail);
          if (concrete != nullptr) SeedFromBat(&out, *concrete);
          out.snapshot_of = args[0].str;
        }
        return out;
      }
      case Code::kPersist: {
        if (args[0].value_known) {
          overlay_[args[0].str] =
              args[1].tail_known ? std::optional<TailType>(args[1].tail)
                                 : std::nullopt;
          persisted_.insert(args[0].str);
        } else {
          overlay_wildcard_ = true;
        }
        SType out = args[1];
        out.concrete = nullptr;
        return out;
      }
      case Code::kNew: {
        SType out = SType::BatAny();
        if (args[0].value_known) {
          const Result<TailType> tail = MilNewType(args[0].str);
          if (!tail.ok()) return Error(e.args[0], tail.status());
          out = SType::BatOf(*tail);
          if (*tail == TailType::kStr) {
            out.dict = std::make_shared<std::set<std::string>>();
          }
        }
        out.SetExactRows(0);
        out.hull_known = true;
        out.hull_empty = true;
        out.maybe_nan = false;
        return out;
      }
      case Code::kInsert: {
        const SType& in = args[0];
        const SType& tail = args[2];
        if (in.tail_known) {
          const Status s =
              MilInsertTail(in.tail, tail.kind, tail.KnownNumber());
          if (!s.ok()) return Error(e.args[2], s);
        }
        SType out = in;
        out.concrete = nullptr;
        out.rows_lo = SatAdd(out.rows_lo, 1);
        out.rows_hi = SatAdd(out.rows_hi, 1);
        // Fold the appended tail value into the hull / dictionary; the
        // tail rule above proved its kind matches the BAT's tail type.
        if (!in.tail_known) {
          out.hull_known = false;
          out.maybe_nan = true;
          out.dict = nullptr;
        } else if (in.tail == TailType::kStr) {
          if (tail.value_known && out.dict != nullptr) {
            auto dict = std::make_shared<std::set<std::string>>(*out.dict);
            dict->insert(tail.str);
            out.dict = std::move(dict);
          } else {
            out.dict = nullptr;
          }
        } else if (in.tail == TailType::kFloat) {
          if (tail.value_known) {
            ExtendHull(&out, tail.number);
          } else {
            out.hull_known = false;
            out.maybe_nan = true;
          }
        } else if (in.tail == TailType::kInt) {
          const double v = tail.number;
          // Only integral literals small enough for the double<->int64
          // round trip to be exact extend the hull; anything else drops it.
          if (tail.value_known && std::isfinite(v) && v == std::floor(v) &&
              std::abs(v) <= 9.0e15) {
            ExtendHull(&out, v);
          } else {
            out.hull_known = false;
          }
        }
        return out;
      }
      case Code::kSelectStr: {
        const SType& in = args[0];
        if (in.tail_known && in.tail != TailType::kStr) {
          return Error(e.args[0], "SelectStr requires a str tail");
        }
        // On the success path the input tail was str, so the output is too.
        SType out = SType::BatOf(TailType::kStr);
        out.snapshot_of = in.snapshot_of;
        out.rows_hi = in.rows_hi;
        bool empty = in.ProvablyEmpty();
        if (empty) {
          Warn(e, "select over a provably empty BAT is statically empty");
        } else if (args[1].value_known && in.dict != nullptr &&
                   in.dict->count(args[1].str) == 0) {
          empty = true;
          Warn(e, StrFormat("statically dead predicate: select \"%s\" misses "
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
        EmitFact(e, out, empty);
        return out;
      }
      case Code::kSelectRange:
        return SelectRange(e, args);
      case Code::kThreadcnt:
      case Code::kShards: {
        const bool is_shards = code == Code::kShards;
        if (args[0].value_known) {
          const double n = args[0].number;
          const Status range = MilCountRange(*e.op, n);
          if (!range.ok()) return Error(e.args[0], range);
          if (is_shards) {
            shards_known_ = true;
            shards_ = static_cast<int>(n);
          }
          return SType::NumVal(n);
        }
        // Abstract-value consumer: a scalar whose static interval lies
        // entirely outside the legal range fails at runtime for every
        // possible value, so reject it now (still zero false rejections).
        const double limit = MilCountLimit(*e.op);
        if (args[0].num_bounds_known &&
            (args[0].num_hi < 1.0 || args[0].num_lo > limit)) {
          return Error(e.args[0],
                       StrFormat("%s expects an integer in [1, %g]; the "
                                 "argument is statically in [%g, %g]",
                                 e.op->name, limit, args[0].num_lo,
                                 args[0].num_hi));
        }
        if (is_shards) shards_known_ = false;
        return SType::Num();
      }
      case Code::kJoin: {
        const SType& a = args[0];
        const SType& b = args[1];
        if (a.tail_known && a.tail != TailType::kOid) {
          return Error(e.args[0], "Join needs an oid tail on the left BAT");
        }
        // Output tail values all come from b; each of a's rows matches at
        // most every b row, hence the product upper bound.
        SType out = b;
        out.concrete = nullptr;
        out.snapshot_of.clear();
        out.rows_lo = 0;
        out.rows_hi = SatMul(a.rows_hi, b.rows_hi);
        const bool empty = a.ProvablyEmpty() || b.ProvablyEmpty();
        if (empty) out.rows_hi = 0;
        EmitFact(e, out, empty);
        return out;
      }
      case Code::kSemijoin:
      case Code::kDiff: {
        // Order-preserving filters of a: tail facts, hull and dictionary
        // survive; the row count can only shrink.
        const SType& a = args[0];
        const SType& b = args[1];
        SType out = a;
        out.concrete = nullptr;
        out.rows_lo = 0;
        bool empty = a.ProvablyEmpty();
        if (code == Code::kSemijoin) {
          empty = empty || b.ProvablyEmpty();
        } else if (b.ProvablyEmpty()) {
          out.rows_lo = a.rows_lo;  // diff against nothing passes a through
        }
        if (empty) out.rows_hi = 0;
        EmitFact(e, out, empty);
        return out;
      }
      case Code::kConcat:
        return Concat(e, args[0], args[1]);
      case Code::kInfo:
        if (args[0].kind == MilKind::kString && args[0].value_known) {
          std::optional<TailType> tail;
          if (!LookupCatalog(args[0].str, e.args[0], &tail)) {
            return std::nullopt;
          }
        }
        return SType::Str();
      case Code::kReverse:
      case Code::kMirror:
      case Code::kGroup: {
        if (code == Code::kReverse && args[0].tail_known &&
            args[0].tail != TailType::kOid) {
          return Error(e.args[0], "Reverse requires an oid tail");
        }
        // One oid row per input row: the row count carries over exactly,
        // whatever the tail type (group assigns dense group ids).
        SType out = SType::BatOf(TailType::kOid);
        out.rows_lo = args[0].rows_lo;
        out.rows_hi = args[0].rows_hi;
        out.snapshot_of = args[0].snapshot_of;
        if (code == Code::kGroup) EmitFact(e, out, args[0].ProvablyEmpty());
        return out;
      }
      case Code::kSlice: {
        SType out = args[0];
        out.concrete = nullptr;
        out.rows_lo = 0;  // rows_hi inherited: a slice never grows
        if (args[1].value_known && args[2].value_known) {
          const double begin = args[1].number;
          const double end = args[2].number;
          // Mirror the runtime's clamp (end > size clamps, begin >= end is
          // empty); only trust literals whose size_t round trip is exact.
          if (begin >= 0 && end >= 0 && begin == std::floor(begin) &&
              end == std::floor(end) && begin <= 9.0e15 && end <= 9.0e15) {
            const uint64_t b = static_cast<uint64_t>(begin);
            const uint64_t en = static_cast<uint64_t>(end);
            out.rows_hi = std::min(out.rows_hi, en > b ? en - b : 0);
            if (args[0].RowsExact()) {
              const uint64_t clamped = std::min(en, args[0].rows_lo);
              out.SetExactRows(b < clamped ? clamped - b : 0);
            }
          }
        }
        return out;
      }
      case Code::kSum:
      case Code::kMax:
      case Code::kMin:
      case Code::kCount:
      case Code::kArgmax:
        return Aggregate(e, args[0]);
    }
    return std::nullopt;
  }

  std::optional<SType> SelectRange(const MilExpr& e,
                                   const std::vector<SType>& args) {
    const SType& in = args[0];
    if (in.tail_known && !in.IsNumericTail()) {
      return Error(e.args[0], "SelectRange requires a numeric tail");
    }
    SType out = in;
    out.concrete = nullptr;
    out.dict = nullptr;
    out.rows_lo = 0;        // rows_hi inherited: output is a subset
    out.maybe_nan = false;  // NaN rows never match a range
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
      Warn(e, "select over a provably empty BAT is statically empty");
    } else if (bounds_known) {
      if (std::isnan(lo) || std::isnan(hi) || lo > hi) {
        empty = true;
        Warn(e, StrFormat("statically dead predicate: select range [%g, %g] "
                          "never matches",
                          lo, hi));
      } else if (in.hull_known) {
        if (in.hull_empty) {
          empty = true;
          Warn(e,
               "statically dead predicate: the input has no non-NaN values "
               "for the range to match");
        } else if (lo > in.hull_max || hi < in.hull_min) {
          empty = true;
          Warn(e, StrFormat("statically dead predicate: select range "
                            "[%g, %g] misses the input value hull [%g, %g]",
                            lo, hi, in.hull_min, in.hull_max));
        }
      }
    }
    // Per-shard zone maps over the concrete input, with the runtime's own
    // zone-map scan and miss predicate: prove which slices of the runtime
    // partition can produce rows at all.
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
        if (!ZoneMapMisses(ZoneMap(bat, ranges[k].begin, ranges[k].end), lo,
                           hi)) {
          ++candidates;
          last = static_cast<int>(k);
        }
      }
      if (candidates == 0) {
        empty = true;
        Warn(e,
             "statically dead predicate: every shard's zone map misses the "
             "select range");
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
    EmitFact(e, out, empty, single_shard, single_of, shard_begin, shard_end);
    return out;
  }

  std::optional<SType> Concat(const MilExpr& e, const SType& a,
                              const SType& b) {
    if (a.tail_known && b.tail_known) {
      const Status tails = MilConcatTails(a.tail, b.tail);
      if (!tails.ok()) return Error(e, tails);
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
    EmitFact(e, out, out.rows_hi == 0);
    return out;
  }

  /// sum/max/min/count/argmax.
  std::optional<SType> Aggregate(const MilExpr& e, const SType& in) {
    using Code = MilOp::Code;
    const Code code = e.op->code;
    if (code == Code::kCount) {
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
    if (code != Code::kSum && in.ProvablyEmpty()) {
      return Error(e, code == Code::kMin ? "Min of empty BAT"
                                         : "ArgMax of empty BAT",
                   StatusCode::kFailedPrecondition);
    }
    if (in.tail_known && !in.IsNumericTail()) {
      return Error(e.args[0], std::string(code == Code::kSum   ? "Sum"
                                          : code == Code::kMin ? "Min"
                                                               : "ArgMax") +
                                  " requires a numeric tail");
    }
    SType out = SType::Num();
    if (code == Code::kMin || code == Code::kMax) {
      // The result is one of the non-NaN tail values unless the BAT is
      // all-NaN (then it is NaN) — bounds only when NaN is impossible.
      if (in.hull_known && !in.hull_empty && !in.maybe_nan) {
        out.num_bounds_known = true;
        out.num_lo = in.hull_min;
        out.num_hi = in.hull_max;
      }
    } else if (code == Code::kSum) {
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
    } else if (in.rows_hi != kCardUnbounded && in.rows_hi > 0) {
      // argmax: a global row position of the input.
      out.num_bounds_known = true;
      out.num_lo = 0.0;
      out.num_hi = static_cast<double>(in.rows_hi - 1);
    }
    return out;
  }

  const MilAnalysisContext& ctx_;
  DiagnosticList diags_;
  std::vector<PlanFact> facts_;

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

MilAnalysis AnalyzeMilProgram(const MilProgram& program,
                              const MilAnalysisContext& context) {
  return MilAnalyzer(context).Run(program);
}

MilAnalysis AnalyzeMilScriptWithFacts(const std::string& script,
                                      const MilAnalysisContext& context) {
  MilAnalysis out;
  const MilProgram program = ParseMilScript(script, &out.diags);
  if (!out.diags.ok()) return out;
  return AnalyzeMilProgram(program, context);
}

DiagnosticList AnalyzeMilScript(const std::string& script,
                                const MilAnalysisContext& context) {
  return AnalyzeMilScriptWithFacts(script, context).diags;
}

}  // namespace cobra::kernel
