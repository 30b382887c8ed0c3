#include "kernel/mil.h"

#include <cctype>
#include <cstdlib>
#include <cmath>
#include <functional>
#include <optional>
#include <type_traits>

#include "base/strings.h"
#include "kernel/mil_lexer.h"
#include "kernel/persist.h"
#include "kernel/shard.h"

namespace cobra::kernel {
namespace {

using Token = MilToken;

Result<double> AsNumber(const MilValue& v, const char* context) {
  if (const double* d = std::get_if<double>(&v)) return *d;
  return Status::InvalidArgument(std::string("expected a number for ") +
                                 context);
}

/// A script number cast to integer type T (see MilIntegerRange).
template <typename T>
Result<T> AsInteger(const MilValue& v, const char* context) {
  COBRA_ASSIGN_OR_RETURN(double d, AsNumber(v, context));
  COBRA_RETURN_IF_ERROR(MilIntegerRange(d, std::is_signed_v<T>, context));
  return static_cast<T>(d);
}

Result<const Bat*> AsBat(const MilValue& v, const char* context) {
  if (const Bat* bat = std::get_if<Bat>(&v)) return bat;
  return Status::InvalidArgument(std::string("expected a BAT for ") + context);
}

std::string ValueToString(const MilValue& v) {
  if (const double* d = std::get_if<double>(&v)) return StrFormat("%g", *d);
  if (const std::string* s = std::get_if<std::string>(&v)) return *s;
  const Bat& bat = std::get<Bat>(v);
  std::string out = StrFormat("BAT[oid,%s] #%zu {",
                              std::string(TailTypeName(bat.tail_type())).c_str(),
                              bat.size());
  const size_t show = std::min<size_t>(bat.size(), 6);
  for (size_t i = 0; i < show; ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%llu->%s",
                     static_cast<unsigned long long>(bat.HeadAt(i)),
                     bat.TailAt(i).ToString().c_str());
  }
  if (bat.size() > show) out += ", ...";
  out += "}";
  return out;
}

/// An operand as the kernel operators' piece list: the BAT itself (one
/// piece) unsharded, or under shards(n > 1) its partition on the context's
/// morsel grid (so even Sum's float fold is byte-identical).
class Operand {
 public:
  Operand(const Bat& bat, const ExecContext& exec) {
    if (exec.shards > 1) {
      part_.emplace(bat, static_cast<size_t>(exec.shards), exec.MorselRows());
      view_ = part_->View();
    } else {
      view_ = ShardedBat::Whole(bat);
    }
  }
  Operand(const Operand&) = delete;
  Operand& operator=(const Operand&) = delete;

  const ShardedBat& view() const { return view_; }

 private:
  std::optional<PartitionedBat> part_;
  ShardedBat view_;
};

}  // namespace

MilSession::MilSession(Catalog* catalog, std::string data_dir)
    : catalog_(catalog),
      fs_(io::RealFilesystem()),
      data_dir_(std::move(data_dir)) {
  if (data_dir_.empty()) {
    if (const char* env = std::getenv("COBRA_DATA_DIR")) data_dir_ = env;
  }
}

MilSession::~MilSession() {
  // The catalog outlives the session; drop its pointer to our store.
  if (store_ != nullptr) catalog_->AttachStore(nullptr);
}

Result<const MilValue*> MilSession::Get(const std::string& name) const {
  auto it = variables_.find(name);
  if (it == variables_.end()) {
    return Status::NotFound("no MIL variable " + name);
  }
  return &it->second;
}

Result<std::string> MilSession::Execute(const std::string& script) {
  // Compile-time verification first: a script that cannot execute cleanly
  // is rejected with a positioned diagnostic before ANY operator runs, so a
  // failing script never leaves partial side effects behind. The same
  // abstract-interpretation pass yields per-call-site PlanFacts — static
  // cardinality intervals and provable-empty / single-shard proofs — keyed
  // by the 1-based line/column of each call's name token; the operator
  // branches below attach them to trace spans and apply the rewrites.
  std::map<std::pair<int, int>, PlanFact> facts;
  {
    MilAnalysisContext actx;
    actx.catalog = catalog_;
    actx.variables = &variables_;
    actx.trace_ready = trace_sink_ != nullptr;
    actx.fs = fs_;
    actx.data_dir_attached = !data_dir_.empty();
    actx.shards = exec_.shards;
    actx.morsel_rows = exec_.MorselRows();
    actx.unsafe_narrow_intervals = unsafe_narrow_intervals_;
    MilAnalysis analysis = AnalyzeMilScriptWithFacts(script, actx);
    COBRA_RETURN_IF_ERROR(analysis.diags.ToStatus("mil"));
    for (PlanFact& fact : analysis.facts) {
      facts.emplace(std::make_pair(fact.line, fact.col), std::move(fact));
    }
  }

  MilLexer lexer(script);
  std::string output;

  // Every kernel operator runs through its piece-list form on an Operand:
  // one piece unsharded, the shards(n) partition otherwise.
  ExchangeOptions opts;
  opts.unsafe_unordered_merge = unsafe_unordered_merge_;
  const auto find_fact = [&facts](const Token& name_tok) -> const PlanFact* {
    const auto it = facts.find(std::make_pair(name_tok.line, name_tok.col));
    return it == facts.end() ? nullptr : &it->second;
  };

  // Recursive-descent expression evaluation over the token stream. The
  // parser is LL(1) with one pushed-back token. Nesting is bounded so a
  // pathological script ("f(f(f(...")) yields a typed error instead of
  // exhausting the call stack.
  constexpr int kMaxExprDepth = 200;
  std::vector<Token> pushed;
  auto next = [&]() -> Result<Token> {
    if (!pushed.empty()) {
      Token tok = std::move(pushed.back());
      pushed.pop_back();
      return tok;
    }
    return lexer.Next();
  };
  auto push_back = [&](Token tok) { pushed.push_back(std::move(tok)); };

  std::function<Result<MilValue>(int)> parse_expr =
      [&](int depth) -> Result<MilValue> {
    if (depth > kMaxExprDepth) {
      return Status::InvalidArgument("MIL expression nested too deeply");
    }
    COBRA_ASSIGN_OR_RETURN(Token tok, next());
    if (tok.kind == Token::Kind::kNumber) return MilValue(tok.number);
    if (tok.kind == Token::Kind::kString) return MilValue(tok.text);
    if (tok.kind != Token::Kind::kWord) {
      return Status::InvalidArgument("expected expression, got '" + tok.text +
                                     "'");
    }
    const std::string name = tok.text;
    // The analyzer keys PlanFacts on the name token's position; keep it.
    const Token name_tok = tok;
    COBRA_ASSIGN_OR_RETURN(Token after, next());
    if (after.kind != Token::Kind::kLParen) {
      push_back(after);
      auto it = variables_.find(name);
      if (it == variables_.end()) {
        return Status::NotFound("unknown MIL variable " + name);
      }
      return MilValue(it->second);
    }
    // Function call: parse comma-separated arguments.
    std::vector<MilValue> args;
    COBRA_ASSIGN_OR_RETURN(Token peek, next());
    if (peek.kind != Token::Kind::kRParen) {
      push_back(peek);
      for (;;) {
        COBRA_ASSIGN_OR_RETURN(MilValue arg, parse_expr(depth + 1));
        args.push_back(std::move(arg));
        COBRA_ASSIGN_OR_RETURN(Token sep, next());
        if (sep.kind == Token::Kind::kRParen) break;
        if (sep.kind != Token::Kind::kComma) {
          return Status::InvalidArgument("expected ',' or ')' in call to " +
                                         name);
        }
      }
    }
    auto arity = [&](size_t n) -> Status {
      if (args.size() != n) {
        return Status::InvalidArgument(
            StrFormat("%s expects %zu arguments, got %zu", name.c_str(), n,
                      args.size()));
      }
      return Status::OK();
    };

    if (name == "bat") {
      COBRA_RETURN_IF_ERROR(arity(1));
      const std::string* bat_name = std::get_if<std::string>(&args[0]);
      if (bat_name == nullptr) {
        return Status::InvalidArgument("bat() expects a name string");
      }
      COBRA_ASSIGN_OR_RETURN(
          const Bat* bat,
          static_cast<const Catalog*>(catalog_)->Get(*bat_name));
      return MilValue(*bat);
    }
    if (name == "persist") {
      COBRA_RETURN_IF_ERROR(arity(2));
      const std::string* bat_name = std::get_if<std::string>(&args[0]);
      if (bat_name == nullptr) {
        return Status::InvalidArgument("persist() expects a name string");
      }
      COBRA_ASSIGN_OR_RETURN(const Bat* bat, AsBat(args[1], "persist"));
      catalog_->Put(*bat_name, Bat(*bat));
      return MilValue(*bat);
    }
    if (name == "new") {
      COBRA_RETURN_IF_ERROR(arity(1));
      const std::string* type = std::get_if<std::string>(&args[0]);
      if (type == nullptr) {
        return Status::InvalidArgument("new() expects a type string");
      }
      if (*type == "int") return MilValue(Bat(TailType::kInt));
      if (*type == "dbl") return MilValue(Bat(TailType::kFloat));
      if (*type == "str") return MilValue(Bat(TailType::kStr));
      if (*type == "oid") return MilValue(Bat(TailType::kOid));
      return Status::InvalidArgument("unknown BAT type " + *type);
    }
    if (name == "insert") {
      COBRA_RETURN_IF_ERROR(arity(3));
      COBRA_ASSIGN_OR_RETURN(const Bat* bat, AsBat(args[0], "insert"));
      COBRA_ASSIGN_OR_RETURN(Oid head, AsInteger<Oid>(args[1], "insert head"));
      Bat copy(*bat);
      Value tail;
      switch (copy.tail_type()) {
        case TailType::kInt: {
          COBRA_ASSIGN_OR_RETURN(int64_t v,
                                 AsInteger<int64_t>(args[2], "insert tail"));
          tail = Value::Int(v);
          break;
        }
        case TailType::kFloat: {
          COBRA_ASSIGN_OR_RETURN(double v, AsNumber(args[2], "insert tail"));
          tail = Value::Float(v);
          break;
        }
        case TailType::kStr: {
          const std::string* s = std::get_if<std::string>(&args[2]);
          if (s == nullptr) {
            return Status::InvalidArgument("insert tail must be a string");
          }
          tail = Value::Str(*s);
          break;
        }
        case TailType::kOid: {
          COBRA_ASSIGN_OR_RETURN(Oid v, AsInteger<Oid>(args[2], "insert tail"));
          tail = Value::OfOid(v);
          break;
        }
      }
      COBRA_RETURN_IF_ERROR(copy.Append(head, tail));
      return MilValue(std::move(copy));
    }
    if (name == "select") {
      const PlanFact* fact = find_fact(name_tok);
      trace::SpanGuard mspan(exec_.trace, exec_.trace_parent, "mil.select");
      if (fact != nullptr) mspan.StaticCard(fact->rows_lo, fact->rows_hi);
      ExecContext sub = exec_;
      sub.trace_parent = mspan.span();
      if (args.size() == 2) {
        COBRA_ASSIGN_OR_RETURN(const Bat* bat, AsBat(args[0], "select"));
        const std::string* s = std::get_if<std::string>(&args[1]);
        if (s == nullptr) {
          return Status::InvalidArgument(
              "two-argument select expects a string");
        }
        mspan.RowsIn(bat->size());
        // Provable-empty rewrite: the analyzer proved zero rows can match
        // (empty input or dictionary miss), so skip the kernel entirely.
        // Applied only once the kernel's own precondition (a string tail)
        // holds, so a would-be type error is never masked; the kernel's
        // result for such a plan is a fresh empty str BAT, byte-identical
        // to this one.
        if (fact != nullptr && fact->provably_empty &&
            !disable_static_rewrites_ &&
            bat->tail_type() == TailType::kStr) {
          mspan.Detail("rewrite=provably_empty");
          return MilValue(Bat(TailType::kStr));
        }
        COBRA_ASSIGN_OR_RETURN(
            Bat selected,
            ShardedSelectStr(Operand(*bat, exec_).view(), *s, sub, opts));
        mspan.RowsOut(selected.size());
        return MilValue(std::move(selected));
      }
      COBRA_RETURN_IF_ERROR(arity(3));
      COBRA_ASSIGN_OR_RETURN(const Bat* bat, AsBat(args[0], "select"));
      COBRA_ASSIGN_OR_RETURN(double lo, AsNumber(args[1], "select lo"));
      COBRA_ASSIGN_OR_RETURN(double hi, AsNumber(args[2], "select hi"));
      mspan.RowsIn(bat->size());
      const bool numeric_tail = bat->tail_type() == TailType::kInt ||
                                bat->tail_type() == TailType::kFloat;
      if (fact != nullptr && fact->provably_empty &&
          !disable_static_rewrites_ && numeric_tail) {
        mspan.Detail("rewrite=provably_empty");
        return MilValue(Bat(bat->tail_type()));
      }
      // Provable-single-shard rewrite: every other slice's zone map
      // misses [lo, hi], so the scatter-gather collapses to one serial
      // kernel call over that slice. The fact's slice boundaries are
      // revalidated against the runtime partition first, so an analysis
      // computed on a different morsel grid merely fails to apply —
      // never misapplies. Byte-identity holds because Slice preserves
      // global heads and every matching row provably lives in slice k.
      if (exec_.shards > 1 && fact != nullptr && fact->single_shard >= 0 &&
          !disable_static_rewrites_ && numeric_tail &&
          fact->single_shard_of == static_cast<size_t>(exec_.shards)) {
        const std::vector<ShardRange> ranges =
            ShardRanges(bat->size(), static_cast<size_t>(exec_.shards),
                        exec_.MorselRows());
        const size_t k = static_cast<size_t>(fact->single_shard);
        if (k < ranges.size() && ranges[k].begin == fact->shard_begin &&
            ranges[k].end == fact->shard_end) {
          if (mspan.enabled()) {
            mspan.Detail(StrFormat("rewrite=single_shard k=%zu of %zu", k,
                                   ranges.size()));
          }
          const Bat slice = bat->Slice(fact->shard_begin, fact->shard_end);
          COBRA_ASSIGN_OR_RETURN(Bat selected,
                                 slice.SelectRange(lo, hi, sub));
          mspan.RowsOut(selected.size());
          return MilValue(std::move(selected));
        }
      }
      // Zone-map stats let the exchange prune shards that cannot match even
      // when more than one shard survives analysis.
      const Operand src(*bat, exec_);
      ExchangeOptions pruning = opts;
      std::vector<ShardStats> stats;
      if (numeric_tail && exec_.shards > 1) {
        stats = ComputeShardStats(src.view(), sub);
        pruning.scan_stats = &stats;
      }
      COBRA_ASSIGN_OR_RETURN(
          Bat selected, ShardedSelectRange(src.view(), lo, hi, sub, pruning));
      mspan.RowsOut(selected.size());
      return MilValue(std::move(selected));
    }
    if (name == "threadcnt") {
      COBRA_RETURN_IF_ERROR(arity(1));
      COBRA_ASSIGN_OR_RETURN(double n, AsNumber(args[0], "threadcnt"));
      if (n < 1.0 || n != std::floor(n) || n > 1024.0) {
        return Status::InvalidArgument(
            StrFormat("threadcnt expects an integer in [1, 1024], got %g", n));
      }
      exec_.threadcnt = static_cast<int>(n);
      return MilValue(n);
    }
    if (name == "shards") {
      COBRA_RETURN_IF_ERROR(arity(1));
      COBRA_ASSIGN_OR_RETURN(double n, AsNumber(args[0], "shards"));
      if (n < 1.0 || n != std::floor(n) || n > 64.0) {
        return Status::InvalidArgument(
            StrFormat("shards expects an integer in [1, 64], got %g", n));
      }
      exec_.shards = static_cast<int>(n);
      return MilValue(n);
    }
    if (name == "join" || name == "semijoin" || name == "diff") {
      COBRA_RETURN_IF_ERROR(arity(2));
      COBRA_ASSIGN_OR_RETURN(const Bat* a, AsBat(args[0], name.c_str()));
      COBRA_ASSIGN_OR_RETURN(const Bat* b, AsBat(args[1], name.c_str()));
      const PlanFact* fact = find_fact(name_tok);
      trace::SpanGuard mspan(exec_.trace, exec_.trace_parent,
                             name == "join"       ? "mil.join"
                             : name == "semijoin" ? "mil.semijoin"
                                                  : "mil.diff");
      if (fact != nullptr) mspan.StaticCard(fact->rows_lo, fact->rows_hi);
      mspan.RowsIn(a->size() + b->size());
      ExecContext sub = exec_;
      sub.trace_parent = mspan.span();
      // Left operand sharded, right operand broadcast to every shard.
      const Operand src(*a, exec_);
      const ShardedBat& left = src.view();
      COBRA_ASSIGN_OR_RETURN(
          Bat out, name == "join"       ? ShardedJoin(left, *b, sub, opts)
                   : name == "semijoin" ? ShardedSemijoin(left, *b, sub, opts)
                                        : ShardedDiff(left, *b, sub, opts));
      mspan.RowsOut(out.size());
      return MilValue(std::move(out));
    }
    if (name == "concat") {
      COBRA_RETURN_IF_ERROR(arity(2));
      COBRA_ASSIGN_OR_RETURN(const Bat* a, AsBat(args[0], "concat"));
      COBRA_ASSIGN_OR_RETURN(const Bat* b, AsBat(args[1], "concat"));
      if (a->tail_type() != b->tail_type()) {
        return Status::InvalidArgument("concat requires matching tail types");
      }
      const PlanFact* fact = find_fact(name_tok);
      trace::SpanGuard mspan(exec_.trace, exec_.trace_parent, "mil.concat");
      if (fact != nullptr) mspan.StaticCard(fact->rows_lo, fact->rows_hi);
      mspan.RowsIn(a->size() + b->size());
      ExecContext sub = exec_;
      sub.trace_parent = mspan.span();
      Bat copy(*a);
      copy.Concat(*b, sub);
      mspan.RowsOut(copy.size());
      return MilValue(std::move(copy));
    }
    if (name == "group") {
      COBRA_RETURN_IF_ERROR(arity(1));
      COBRA_ASSIGN_OR_RETURN(const Bat* bat, AsBat(args[0], "group"));
      const PlanFact* fact = find_fact(name_tok);
      trace::SpanGuard mspan(exec_.trace, exec_.trace_parent, "mil.group");
      if (fact != nullptr) mspan.StaticCard(fact->rows_lo, fact->rows_hi);
      mspan.RowsIn(bat->size());
      ExecContext sub = exec_;
      sub.trace_parent = mspan.span();
      COBRA_ASSIGN_OR_RETURN(Bat ids, ShardedGroup(Operand(*bat, exec_).view(),
                                                   nullptr, sub, opts));
      mspan.RowsOut(ids.size());
      return MilValue(std::move(ids));
    }
    if (name == "argmax") {
      COBRA_RETURN_IF_ERROR(arity(1));
      COBRA_ASSIGN_OR_RETURN(const Bat* bat, AsBat(args[0], "argmax"));
      COBRA_ASSIGN_OR_RETURN(
          size_t pos, ShardedArgMax(Operand(*bat, exec_).view(), exec_, opts));
      return MilValue(static_cast<double>(pos));
    }
    if (name == "info") {
      COBRA_RETURN_IF_ERROR(arity(1));
      // With a name string, inspect the catalog BAT in place — bat() hands
      // out copies, which start with a fresh (empty) acceleration state.
      const Bat* bat = nullptr;
      std::string label = "<expr>";
      if (const std::string* bat_name = std::get_if<std::string>(&args[0])) {
        COBRA_ASSIGN_OR_RETURN(
            bat, static_cast<const Catalog*>(catalog_)->Get(*bat_name));
        label = *bat_name;
      } else {
        COBRA_ASSIGN_OR_RETURN(bat, AsBat(args[0], "info"));
      }
      const Bat::AccelInfo a = bat->accel_info();
      return MilValue(StrFormat(
          "info(%s): BAT[oid,%s] #%zu version=%llu dict=%zu "
          "tail_index[built=%d fresh=%d builds=%llu probes=%llu] "
          "head_index[built=%d fresh=%d builds=%llu probes=%llu]",
          label.c_str(),
          std::string(TailTypeName(bat->tail_type())).c_str(), bat->size(),
          static_cast<unsigned long long>(a.version), a.dict_entries,
          static_cast<int>(a.tail_index_built),
          static_cast<int>(a.tail_index_fresh),
          static_cast<unsigned long long>(a.tail_builds),
          static_cast<unsigned long long>(a.tail_probes),
          static_cast<int>(a.head_index_built),
          static_cast<int>(a.head_index_fresh),
          static_cast<unsigned long long>(a.head_builds),
          static_cast<unsigned long long>(a.head_probes)));
    }
    if (name == "reverse" || name == "mirror") {
      COBRA_RETURN_IF_ERROR(arity(1));
      COBRA_ASSIGN_OR_RETURN(const Bat* bat, AsBat(args[0], name.c_str()));
      if (name == "mirror") return MilValue(bat->Mirror());
      COBRA_ASSIGN_OR_RETURN(Bat reversed, bat->Reverse());
      return MilValue(std::move(reversed));
    }
    if (name == "slice") {
      COBRA_RETURN_IF_ERROR(arity(3));
      COBRA_ASSIGN_OR_RETURN(const Bat* bat, AsBat(args[0], "slice"));
      COBRA_ASSIGN_OR_RETURN(size_t b,
                             AsInteger<size_t>(args[1], "slice begin"));
      COBRA_ASSIGN_OR_RETURN(size_t e, AsInteger<size_t>(args[2], "slice end"));
      return MilValue(bat->Slice(b, e));
    }
    if (name == "sum" || name == "max" || name == "min" || name == "count") {
      COBRA_RETURN_IF_ERROR(arity(1));
      COBRA_ASSIGN_OR_RETURN(const Bat* bat, AsBat(args[0], name.c_str()));
      if (name == "count") return MilValue(static_cast<double>(bat->Count()));
      const Operand src(*bat, exec_);
      COBRA_ASSIGN_OR_RETURN(
          double v, name == "sum"   ? ShardedSum(src.view(), exec_, opts)
                    : name == "max" ? ShardedMax(src.view(), exec_, opts)
                                    : ShardedMin(src.view(), exec_, opts));
      return MilValue(v);
    }
    return Status::InvalidArgument("unknown MIL function " + name);
  };

  for (;;) {
    COBRA_ASSIGN_OR_RETURN(Token tok, next());
    if (tok.kind == Token::Kind::kEnd) break;
    if (tok.kind == Token::Kind::kSemi) continue;

    if (tok.kind == Token::Kind::kWord && tok.text == "VAR") {
      COBRA_ASSIGN_OR_RETURN(Token name, next());
      if (name.kind != Token::Kind::kWord) {
        return Status::InvalidArgument("expected variable name after VAR");
      }
      COBRA_ASSIGN_OR_RETURN(Token assign, next());
      if (assign.kind != Token::Kind::kAssign) {
        return Status::InvalidArgument("expected ':=' after VAR " + name.text);
      }
      COBRA_ASSIGN_OR_RETURN(MilValue value, parse_expr(0));
      variables_.insert_or_assign(name.text, std::move(value));
      continue;
    }
    if (tok.kind == Token::Kind::kWord && tok.text == "PRINT") {
      COBRA_ASSIGN_OR_RETURN(MilValue value, parse_expr(0));
      output += ValueToString(value);
      output += "\n";
      continue;
    }
    if (tok.kind == Token::Kind::kWord && tok.text == "check") {
      COBRA_ASSIGN_OR_RETURN(Token arg, next());
      if (arg.kind != Token::Kind::kString) {
        return Status::InvalidArgument("check expects a quoted MIL script");
      }
      // Strict static analysis of the quoted script against the session's
      // current environment; findings become output, nothing executes.
      MilAnalysisContext actx;
      actx.catalog = catalog_;
      actx.variables = &variables_;
      actx.trace_ready = trace_sink_ != nullptr;
      actx.fs = fs_;
      actx.data_dir_attached = !data_dir_.empty();
      actx.shards = exec_.shards;
      actx.strict = true;
      const DiagnosticList diags = AnalyzeMilScript(arg.text, actx);
      if (diags.empty()) {
        output += "check: ok\n";
      } else {
        output += diags.ToString("mil");
      }
      continue;
    }
    if (tok.kind == Token::Kind::kWord &&
        (tok.text == "save" || tok.text == "load")) {
      if (exec_.shards > 1) {
        // Storage of a sharded deployment is per-shard (ShardedCatalog
        // checkpoints into dir/shard-<k>); a single-directory save/load
        // would silently capture one node's view of a cluster.
        return Status::FailedPrecondition(StrFormat(
            "%s illegal while the session is sharded (shards(%d) in "
            "effect); storage is per-shard — reset with shards(1)",
            tok.text.c_str(), exec_.shards));
      }
      const bool saving = tok.text == "save";
      COBRA_ASSIGN_OR_RETURN(Token arg, next());
      if (arg.kind != Token::Kind::kString) {
        return Status::InvalidArgument(tok.text +
                                       " expects a quoted directory path");
      }
      if (saving) {
        PersistentStore store(fs_, arg.text);
        COBRA_RETURN_IF_ERROR(store.Open());
        COBRA_RETURN_IF_ERROR(store.Checkpoint(*catalog_));
        output += StrFormat(
            "save: %zu bats (lsn %llu)\n", catalog_->Names().size(),
            static_cast<unsigned long long>(store.last_lsn()));
      } else {
        if (!PersistentStore::Exists(*fs_, arg.text)) {
          return Status::NotFound("no persistent store at " + arg.text);
        }
        PersistentStore store(fs_, arg.text);
        COBRA_ASSIGN_OR_RETURN(PersistentStore::RecoveryInfo info,
                               store.Recover(catalog_));
        output += StrFormat(
            "load: %zu bats (lsn %llu)\n", info.bat_count,
            static_cast<unsigned long long>(info.lsn));
      }
      continue;
    }
    if (tok.kind == Token::Kind::kWord && tok.text == "checkpoint") {
      if (exec_.shards > 1) {
        return Status::FailedPrecondition(StrFormat(
            "checkpoint illegal while the session is sharded (shards(%d) in "
            "effect); storage is per-shard — reset with shards(1)",
            exec_.shards));
      }
      if (data_dir_.empty()) {
        return Status::FailedPrecondition(
            "checkpoint requires an attached data directory; construct the "
            "session with one or set COBRA_DATA_DIR");
      }
      if (store_ == nullptr) {
        store_ = std::make_unique<PersistentStore>(fs_, data_dir_);
        COBRA_RETURN_IF_ERROR(store_->Open());
        catalog_->AttachStore(store_.get());
      }
      COBRA_RETURN_IF_ERROR(store_->Checkpoint(*catalog_));
      output += StrFormat(
          "checkpoint: %zu bats (lsn %llu)\n", catalog_->Names().size(),
          static_cast<unsigned long long>(store_->last_lsn()));
      continue;
    }
    if (tok.kind == Token::Kind::kWord && tok.text == "trace") {
      COBRA_ASSIGN_OR_RETURN(Token mode, next());
      if (mode.kind != Token::Kind::kWord) {
        return Status::InvalidArgument("trace expects on|off|dump|json");
      }
      if (mode.text == "on") {
        // A fresh sink per `trace on`: spans accumulate across statements
        // (and Execute calls) until the next `trace on`.
        trace_sink_ = std::make_unique<trace::TraceSink>();
        exec_.trace = trace_sink_.get();
        exec_.trace_parent = nullptr;
      } else if (mode.text == "off") {
        exec_.trace = nullptr;
        exec_.trace_parent = nullptr;
      } else if (mode.text == "dump" || mode.text == "json") {
        if (trace_sink_ == nullptr) {
          return Status::FailedPrecondition(
              "trace has not been enabled; run 'trace on' first");
        }
        if (mode.text == "dump") {
          output += trace_sink_->ToText();
        } else {
          output += trace_sink_->ToJson();
          output += "\n";
        }
      } else {
        return Status::InvalidArgument("trace expects on|off|dump|json, got '" +
                                       mode.text + "'");
      }
      continue;
    }
    // Either an assignment to an existing variable or a bare expression.
    if (tok.kind == Token::Kind::kWord) {
      COBRA_ASSIGN_OR_RETURN(Token after, next());
      if (after.kind == Token::Kind::kAssign) {
        if (variables_.count(tok.text) == 0) {
          return Status::NotFound("assignment to undeclared variable " +
                                  tok.text);
        }
        COBRA_ASSIGN_OR_RETURN(MilValue value, parse_expr(0));
        variables_.insert_or_assign(tok.text, std::move(value));
        continue;
      }
      push_back(after);
    }
    push_back(tok);
    COBRA_ASSIGN_OR_RETURN(MilValue value, parse_expr(0));
    (void)value;
  }
  return output;
}

}  // namespace cobra::kernel
