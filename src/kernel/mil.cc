#include "kernel/mil.h"

#include <cstdlib>
#include <functional>
#include <optional>
#include <utility>

#include "base/strings.h"
#include "kernel/mil_program.h"
#include "kernel/persist.h"
#include "kernel/shard.h"

namespace cobra::kernel {
namespace {

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

/// info(): one-line acceleration report of a BAT.
std::string InfoLine(const std::string& label, const Bat& bat) {
  const Bat::AccelInfo a = bat.accel_info();
  const auto index = [](const char* side, bool built, bool fresh,
                        uint64_t builds, uint64_t probes) {
    return StrFormat("%s_index[built=%d fresh=%d builds=%llu probes=%llu]",
                     side, static_cast<int>(built), static_cast<int>(fresh),
                     static_cast<unsigned long long>(builds),
                     static_cast<unsigned long long>(probes));
  };
  return StrFormat(
      "info(%s): BAT[oid,%s] #%zu version=%llu dict=%zu %s %s", label.c_str(),
      std::string(TailTypeName(bat.tail_type())).c_str(), bat.size(),
      static_cast<unsigned long long>(a.version), a.dict_entries,
      index("tail", a.tail_index_built, a.tail_index_fresh, a.tail_builds,
            a.tail_probes)
          .c_str(),
      index("head", a.head_index_built, a.head_index_fresh, a.head_builds,
            a.head_probes)
          .c_str());
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

template <typename T>
Result<MilValue> ToValue(Result<T> result) {
  if (!result.ok()) return result.status();
  return MilValue(std::move(result).value());
}

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
  // The environment both the script and its `check` statements are
  // analyzed in: the session's state at the time of the call.
  const auto analysis_context = [this] {
    MilAnalysisContext actx;
    actx.catalog = catalog_;
    actx.variables = &variables_;
    actx.trace_ready = trace_sink_ != nullptr;
    actx.fs = fs_;
    actx.data_dir_attached = !data_dir_.empty();
    actx.shards = exec_.shards;
    actx.morsel_rows = exec_.MorselRows();
    actx.unsafe_narrow_intervals = unsafe_narrow_intervals_;
    return actx;
  };

  // One parse, then compile-time verification of the whole program: a
  // script that cannot execute cleanly is rejected with a positioned
  // diagnostic before ANY operator runs, so a failing script never leaves
  // partial side effects behind. The same abstract-interpretation pass
  // yields per-call-site PlanFacts — static cardinality intervals and
  // provable-empty / single-shard proofs — keyed by the 1-based line/column
  // of each call; the dispatcher below stamps them on the calls' spans and
  // the select executors apply the rewrites.
  DiagnosticList syntax;
  const MilProgram program = ParseMilScript(script, &syntax);
  COBRA_RETURN_IF_ERROR(syntax.ToStatus("mil"));
  MilAnalysis analysis = AnalyzeMilProgram(program, analysis_context());
  COBRA_RETURN_IF_ERROR(analysis.diags.ToStatus("mil"));
  std::map<std::pair<int, int>, PlanFact> facts;
  for (PlanFact& fact : analysis.facts) {
    facts.emplace(std::make_pair(fact.line, fact.col), std::move(fact));
  }

  std::string output;
  // Every kernel operator runs through its piece-list form on an Operand:
  // one piece unsharded, the shards(n) partition otherwise.
  ExchangeOptions opts;
  opts.unsafe_unordered_merge = unsafe_unordered_merge_;

  // The executors, one per operator code, over arguments that passed the
  // signature check (so the variant accessors below cannot throw). `ctx`
  // is the session's context with the call's span, if any, as the trace
  // parent; `fact` is the analyzer's PlanFact for the call site.
  const auto call = [&](const MilOp& op, std::vector<MilValue>& args,
                        const ExecContext& ctx, const PlanFact* fact,
                        trace::SpanGuard& span) -> Result<MilValue> {
    const auto bat = [&args](size_t i) -> const Bat& {
      return std::get<Bat>(args[i]);
    };
    const auto num = [&args](size_t i) { return std::get<double>(args[i]); };
    const auto str = [&args](size_t i) -> const std::string& {
      return std::get<std::string>(args[i]);
    };
    const bool rewrite = fact != nullptr && !disable_static_rewrites_;
    using Code = MilOp::Code;
    switch (op.code) {
      case Code::kBat: {
        COBRA_ASSIGN_OR_RETURN(
            const Bat* b, static_cast<const Catalog*>(catalog_)->Get(str(0)));
        return MilValue(*b);
      }
      case Code::kPersist:
        catalog_->Put(str(0), bat(1));
        return std::move(args[1]);
      case Code::kNew: {
        COBRA_ASSIGN_OR_RETURN(TailType type, MilNewType(str(0)));
        return MilValue(Bat(type));
      }
      case Code::kInsert: {
        Bat copy(bat(0));
        COBRA_RETURN_IF_ERROR(MilInsertTail(copy.tail_type(), KindOf(args[2]),
                                            std::get_if<double>(&args[2])));
        Value tail;
        switch (copy.tail_type()) {
          case TailType::kInt:
            tail = Value::Int(static_cast<int64_t>(num(2)));
            break;
          case TailType::kFloat:
            tail = Value::Float(num(2));
            break;
          case TailType::kStr:
            tail = Value::Str(str(2));
            break;
          case TailType::kOid:
            tail = Value::OfOid(static_cast<Oid>(num(2)));
            break;
        }
        COBRA_RETURN_IF_ERROR(copy.Append(static_cast<Oid>(num(1)), tail));
        return MilValue(std::move(copy));
      }
      case Code::kSelectStr:
        // Provable-empty rewrite: the analyzer proved zero rows can match
        // (empty input or dictionary miss), so skip the kernel entirely.
        // Applied only once the kernel's own precondition (a string tail)
        // holds, so a would-be type error is never masked; the kernel's
        // result for such a plan is a fresh empty str BAT, byte-identical
        // to this one.
        if (rewrite && fact->provably_empty &&
            bat(0).tail_type() == TailType::kStr) {
          span.Detail("rewrite=provably_empty");
          return MilValue(Bat(TailType::kStr));
        }
        return ToValue(
            ShardedSelectStr(Operand(bat(0), ctx).view(), str(1), ctx, opts));
      case Code::kSelectRange: {
        const Bat& b = bat(0);
        const double lo = num(1);
        const double hi = num(2);
        const bool numeric_tail = b.tail_type() == TailType::kInt ||
                                  b.tail_type() == TailType::kFloat;
        if (rewrite && fact->provably_empty && numeric_tail) {
          span.Detail("rewrite=provably_empty");
          return MilValue(Bat(b.tail_type()));
        }
        // Provable-single-shard rewrite: every other slice's zone map
        // misses [lo, hi], so the scatter-gather collapses to one serial
        // kernel call over that slice. The fact's slice boundaries are
        // revalidated against the runtime partition first, so an analysis
        // computed on a different morsel grid merely fails to apply —
        // never misapplies. Byte-identity holds because Slice preserves
        // global heads and every matching row provably lives in slice k.
        if (ctx.shards > 1 && rewrite && fact->single_shard >= 0 &&
            numeric_tail &&
            fact->single_shard_of == static_cast<size_t>(ctx.shards)) {
          const std::vector<ShardRange> ranges = ShardRanges(
              b.size(), static_cast<size_t>(ctx.shards), ctx.MorselRows());
          const size_t k = static_cast<size_t>(fact->single_shard);
          if (k < ranges.size() && ranges[k].begin == fact->shard_begin &&
              ranges[k].end == fact->shard_end) {
            if (span.enabled()) {
              span.Detail(StrFormat("rewrite=single_shard k=%zu of %zu", k,
                                    ranges.size()));
            }
            const Bat slice = b.Slice(fact->shard_begin, fact->shard_end);
            return ToValue(slice.SelectRange(lo, hi, ctx));
          }
        }
        // Zone-map stats let the exchange prune shards that cannot match
        // even when more than one shard survives analysis.
        const Operand src(b, ctx);
        ExchangeOptions pruning = opts;
        std::vector<ShardStats> stats;
        if (numeric_tail && ctx.shards > 1) {
          stats = ComputeShardStats(src.view(), ctx);
          pruning.scan_stats = &stats;
        }
        return ToValue(ShardedSelectRange(src.view(), lo, hi, ctx, pruning));
      }
      case Code::kThreadcnt:
      case Code::kShards:
        COBRA_RETURN_IF_ERROR(MilCountRange(op, num(0)));
        (op.code == Code::kShards ? exec_.shards : exec_.threadcnt) =
            static_cast<int>(num(0));
        return std::move(args[0]);
      case Code::kJoin:
      case Code::kSemijoin:
      case Code::kDiff: {
        // Left operand sharded, right operand broadcast to every shard.
        const Operand src(bat(0), ctx);
        return ToValue(op.code == Code::kJoin
                           ? ShardedJoin(src.view(), bat(1), ctx, opts)
                       : op.code == Code::kSemijoin
                           ? ShardedSemijoin(src.view(), bat(1), ctx, opts)
                           : ShardedDiff(src.view(), bat(1), ctx, opts));
      }
      case Code::kConcat: {
        COBRA_RETURN_IF_ERROR(
            MilConcatTails(bat(0).tail_type(), bat(1).tail_type()));
        Bat copy(bat(0));
        copy.Concat(bat(1), ctx);
        return MilValue(std::move(copy));
      }
      case Code::kGroup:
        return ToValue(
            ShardedGroup(Operand(bat(0), ctx).view(), nullptr, ctx, opts));
      case Code::kArgmax: {
        COBRA_ASSIGN_OR_RETURN(
            size_t pos, ShardedArgMax(Operand(bat(0), ctx).view(), ctx, opts));
        return MilValue(static_cast<double>(pos));
      }
      case Code::kInfo: {
        // With a name string, inspect the catalog BAT in place — bat()
        // hands out copies, which start with a fresh (empty) acceleration
        // state.
        if (KindOf(args[0]) == MilKind::kBat) {
          return MilValue(InfoLine("<expr>", bat(0)));
        }
        COBRA_ASSIGN_OR_RETURN(
            const Bat* b, static_cast<const Catalog*>(catalog_)->Get(str(0)));
        return MilValue(InfoLine(str(0), *b));
      }
      case Code::kReverse:
        return ToValue(bat(0).Reverse());
      case Code::kMirror:
        return MilValue(bat(0).Mirror());
      case Code::kSlice:
        return MilValue(bat(0).Slice(static_cast<size_t>(num(1)),
                                     static_cast<size_t>(num(2))));
      case Code::kCount:
        return MilValue(static_cast<double>(bat(0).Count()));
      case Code::kSum:
      case Code::kMax:
      case Code::kMin: {
        const Operand src(bat(0), ctx);
        return ToValue(op.code == Code::kSum
                           ? ShardedSum(src.view(), ctx, opts)
                       : op.code == Code::kMax
                           ? ShardedMax(src.view(), ctx, opts)
                           : ShardedMin(src.view(), ctx, opts));
      }
    }
    return Status::Internal("unhandled MIL function " + std::string(op.name));
  };

  // The expression walk and the one dispatcher: evaluate the arguments,
  // check them against the signature, then — for an operator whose
  // descriptor names a span — open the span, stamp the static interval,
  // count rows in and out, and run the executor under it.
  std::function<Result<MilValue>(const MilExpr&)> eval =
      [&](const MilExpr& e) -> Result<MilValue> {
    switch (e.kind) {
      case MilExpr::Kind::kNumber:
        return MilValue(e.number);
      case MilExpr::Kind::kString:
        return MilValue(e.text);
      case MilExpr::Kind::kVar: {
        auto it = variables_.find(e.text);
        if (it == variables_.end()) {
          return Status::NotFound("unknown MIL variable " + e.text);
        }
        return it->second;
      }
      case MilExpr::Kind::kCall:
        break;
    }
    std::vector<MilValue> args;
    for (const MilExpr& arg : e.args) {
      COBRA_ASSIGN_OR_RETURN(MilValue value, eval(arg));
      args.push_back(std::move(value));
    }
    const MilOp& op = *e.op;
    for (size_t i = 0; i < args.size(); ++i) {
      COBRA_RETURN_IF_ERROR(CheckMilArg(op, i, KindOf(args[i]),
                                        std::get_if<double>(&args[i])));
    }
    const auto found = facts.find(std::make_pair(e.line, e.col));
    const PlanFact* fact = found == facts.end() ? nullptr : &found->second;
    trace::SpanGuard span(op.span != nullptr ? exec_.trace : nullptr,
                          exec_.trace_parent,
                          op.span != nullptr ? op.span : "");
    ExecContext ctx = exec_;
    if (span.enabled()) {
      if (fact != nullptr) span.StaticCard(fact->rows_lo, fact->rows_hi);
      for (const MilValue& arg : args) {
        if (const Bat* b = std::get_if<Bat>(&arg)) span.RowsIn(b->size());
      }
      ctx.trace_parent = span.span();
    }
    COBRA_ASSIGN_OR_RETURN(MilValue out, call(op, args, ctx, fact, span));
    if (const Bat* b = std::get_if<Bat>(&out)) span.RowsOut(b->size());
    return out;
  };

  for (const MilStmt& stmt : program) {
    switch (stmt.kind) {
      case MilStmt::Kind::kVar:
      case MilStmt::Kind::kAssign: {
        COBRA_ASSIGN_OR_RETURN(MilValue value, eval(stmt.expr));
        variables_.insert_or_assign(stmt.name, std::move(value));
        break;
      }
      case MilStmt::Kind::kPrint: {
        COBRA_ASSIGN_OR_RETURN(MilValue value, eval(stmt.expr));
        output += ValueToString(value);
        output += "\n";
        break;
      }
      case MilStmt::Kind::kExpr:
        COBRA_RETURN_IF_ERROR(eval(stmt.expr).status());
        break;
      case MilStmt::Kind::kCheck: {
        // Strict static analysis of the quoted script against the session's
        // current environment; findings become output, nothing executes.
        MilAnalysisContext actx = analysis_context();
        actx.strict = true;
        const DiagnosticList diags = AnalyzeMilScript(stmt.expr.text, actx);
        output += diags.empty() ? "check: ok\n" : diags.ToString("mil");
        break;
      }
      case MilStmt::Kind::kSave:
      case MilStmt::Kind::kLoad:
      case MilStmt::Kind::kCheckpoint: {
        COBRA_RETURN_IF_ERROR(
            MilStorageRule(stmt, exec_.shards, !data_dir_.empty()));
        const std::string& dir = stmt.expr.text;
        if (stmt.kind == MilStmt::Kind::kSave) {
          PersistentStore store(fs_, dir);
          COBRA_RETURN_IF_ERROR(store.Open());
          COBRA_RETURN_IF_ERROR(store.Checkpoint(*catalog_));
          output += StrFormat(
              "save: %zu bats (lsn %llu)\n", catalog_->Names().size(),
              static_cast<unsigned long long>(store.last_lsn()));
        } else if (stmt.kind == MilStmt::Kind::kLoad) {
          if (!PersistentStore::Exists(*fs_, dir)) {
            return Status::NotFound("no persistent store at " + dir);
          }
          PersistentStore store(fs_, dir);
          COBRA_ASSIGN_OR_RETURN(PersistentStore::RecoveryInfo info,
                                 store.Recover(catalog_));
          output += StrFormat("load: %zu bats (lsn %llu)\n", info.bat_count,
                              static_cast<unsigned long long>(info.lsn));
        } else {
          if (store_ == nullptr) {
            store_ = std::make_unique<PersistentStore>(fs_, data_dir_);
            COBRA_RETURN_IF_ERROR(store_->Open());
            catalog_->AttachStore(store_.get());
          }
          COBRA_RETURN_IF_ERROR(store_->Checkpoint(*catalog_));
          output += StrFormat(
              "checkpoint: %zu bats (lsn %llu)\n", catalog_->Names().size(),
              static_cast<unsigned long long>(store_->last_lsn()));
        }
        break;
      }
      case MilStmt::Kind::kTrace: {
        COBRA_RETURN_IF_ERROR(MilTraceRule(stmt, trace_sink_ != nullptr));
        const std::string& mode = stmt.expr.text;
        if (mode == "on") {
          // A fresh sink per `trace on`: spans accumulate across statements
          // (and Execute calls) until the next `trace on`.
          trace_sink_ = std::make_unique<trace::TraceSink>();
          exec_.trace = trace_sink_.get();
          exec_.trace_parent = nullptr;
        } else if (mode == "off") {
          exec_.trace = nullptr;
          exec_.trace_parent = nullptr;
        } else if (mode == "dump") {
          output += trace_sink_->ToText();
        } else {
          output += trace_sink_->ToJson();
          output += "\n";
        }
        break;
      }
    }
  }
  return output;
}

}  // namespace cobra::kernel
