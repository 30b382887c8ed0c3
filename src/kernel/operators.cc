// The kernel operators, each written once as a {partial over a row range,
// ordered combine} pair, and Run, the one routine that runs them.
//
// An operator runs over an ordered list of pieces — a ShardedBat. A plain
// BAT is one piece at offset 0 (the Bat::Op(ctx) forms); a sharded BAT is
// its slices at their global offsets (the Sharded* forms of shard.h).
// Inside a piece the partials run per morsel; the combine folds every
// piece's partials in global order. The two paths differ only in how the
// pieces are scheduled and traced:
//
//   * morsel path (one piece): the operator's kernel.* span; the piece's
//     morsels fan out over ctx.threadcnt workers;
//   * exchange path (N pieces): an exchange.scatter span with one kernel.*
//     child per piece, each piece on threadcnt / N workers, then the
//     combine under an exchange.merge span.
//
// Both are byte-identical to the serial reference forms in bat.cc. Row
// producing combines concatenate, and the winner and group-numbering
// combines are associative, so they give the serial answer however the rows
// are cut. Sum's float fold is not: its partials are taken on the global
// morsel grid, which shard boundaries on that grid preserve (off the grid
// the pieces are gathered first).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "base/trace.h"
#include "kernel/bat.h"
#include "kernel/exec_context.h"
#include "kernel/shard.h"

namespace cobra::kernel {
namespace {

/// Head/tail index lifecycle accounting around a probe: snapshot before,
/// then record the probe plus any build (and whether a stale index forced
/// it) after. All accel_info() calls are gated on the span being live.
struct IndexProbeScope {
  IndexProbeScope(trace::SpanGuard& span, const Bat& bat, bool head)
      : span_(span), bat_(bat), head_(head) {
    if (!span_.enabled()) return;
    const Bat::AccelInfo before = bat_.accel_info();
    builds_before_ = head_ ? before.head_builds : before.tail_builds;
    was_stale_ = head_ ? (before.head_index_built && !before.head_index_fresh)
                       : (before.tail_index_built && !before.tail_index_fresh);
  }

  /// Call once the probe (index lookup attempt) has happened.
  void Record() {
    if (!span_.enabled()) return;
    span_.IndexProbes(1);
    const Bat::AccelInfo after = bat_.accel_info();
    const uint64_t built =
        (head_ ? after.head_builds : after.tail_builds) - builds_before_;
    span_.IndexBuilds(built);
    if (was_stale_ && built > 0) span_.IndexInvalidations(1);
  }

 private:
  trace::SpanGuard& span_;
  const Bat& bat_;
  bool head_;
  uint64_t builds_before_ = 0;
  bool was_stale_ = false;
};

/// Calls fn(column) with the typed tail column of a numeric BAT.
template <typename Fn>
decltype(auto) WithNumeric(const Bat& s, Fn&& fn) {
  return s.tail_type() == TailType::kInt ? fn(s.int_tails())
                                         : fn(s.float_tails());
}

/// Runs `partial(begin, end)` over one piece's rows into `out`, in morsel
/// order: per morsel when the piece goes parallel — or always, for an
/// on-grid operator whose combine depends on the morsel grid — and
/// otherwise once over the whole piece.
template <typename P, typename Fn>
void Partials(const ExecContext& ctx, size_t rows, bool on_grid,
              trace::SpanGuard& span, std::vector<P>* out, const P& empty,
              Fn partial) {
  if (rows == 0) return;
  if (!on_grid && !ctx.UseParallel(rows)) {
    out->push_back(partial(size_t{0}, rows));
    span.Morsels(1);
    return;
  }
  out->assign(ctx.NumMorsels(rows), empty);
  ForEachMorsel(ctx, rows, [&](size_t m, size_t begin, size_t end) {
    (*out)[m] = partial(begin, end);
  });
  span.Morsels(out->size());
}

/// A leftmost-winner candidate: a global row position and its value.
struct Winner {
  size_t pos = 0;
  double val = 0.0;
};

/// One row range's local group table, in local first-occurrence order.
struct GroupPartial {
  const Bat* piece = nullptr;
  size_t begin = 0;
  size_t end = 0;
  std::vector<uint64_t> keys;     // canonical keys (piece-private str codes)
  std::vector<size_t> first_pos;  // global position of each key's first row
  std::vector<uint32_t> row_ids;  // local id per row of the range
};

/// Rows a partial or result carries (trace row counts); a scalar is one.
uint64_t RowCount(const Bat& b) { return b.size(); }
uint64_t RowCount(const GroupPartial& g) { return g.end - g.begin; }
template <typename T>
uint64_t RowCount(const T&) {
  return 1;
}
template <typename P>
uint64_t RowCount(const std::vector<P>& parts) {
  uint64_t total = 0;
  for (const P& p : parts) total += RowCount(p);
  return total;
}

/// The broadcast right side of join/semijoin/diff, looked up once per call
/// (not once per piece): `b`'s persistent head index, or — with indexes
/// off, or past uint32 positions — a throwaway head table.
class BuildSide {
 public:
  /// Returns the plan name the span detail records.
  const char* Open(const Bat& b, bool auto_index, trace::SpanGuard& span) {
    if (auto_index) {
      IndexProbeScope probe(span, b, /*head=*/true);
      index_ = b.HeadIndex(/*force=*/true);
      probe.Record();
      if (index_ != nullptr) return "index_probe";
    }
    scan_.reserve(b.size());
    for (size_t j = 0; j < b.size(); ++j) scan_[b.HeadAt(j)].push_back(j);
    return "scan";
  }

  /// Calls fn(table) with the head -> positions map in use.
  template <typename Fn>
  void With(Fn&& fn) const {
    if (index_ != nullptr) {
      fn(index_->map);
    } else {
      fn(scan_);
    }
  }

 private:
  std::shared_ptr<const Bat::HashIndex> index_;
  std::unordered_map<Oid, std::vector<size_t>> scan_;
};

// -- Operator definitions ---------------------------------------------------
//
// Each operator provides:
//   Check(src)          type/precondition errors, identical on both paths
//   Prepare(...)        once per call, before any piece (broadcast lookups)
//   Scan(piece, ...)    the piece's partials, via Partials() or an index
//   Combine(parts, ctx) the ordered combine over all partials
// plus its kernel span and exchange detail names.

/// Hooks most operators leave at their defaults.
struct OpBase {
  const char* span_name;  // kernel span, e.g. "kernel.select_eq"
  const char* op_name;    // exchange detail, e.g. "select_eq"
  /// Whether partials must sit on the global morsel grid (Sum).
  static constexpr bool kOnGrid = false;

  size_t RowsIn(const ShardedBat& src) const { return src.rows(); }
  void Prepare(const ShardedBat&, const ExecContext&, trace::SpanGuard&) {}
  /// Zone-map piece filter: true when the piece provably contributes no row.
  bool Misses(const ShardStats&) const { return false; }
};

/// Row-producing operators: Bat partials, combined by ordered concat
/// (dictionary codes remap through Bat::Concat). A lone non-empty part is
/// moved, not copied.
struct RowOp : OpBase {
  using Partial = Bat;
  using Out = Bat;
  TailType type;  // of the output

  Bat Combine(std::vector<Bat>& parts, const ExecContext&) const {
    Bat* lone = nullptr;
    size_t nonempty = 0;
    size_t total = 0;
    for (Bat& p : parts) {
      if (p.empty()) continue;
      lone = &p;
      ++nonempty;
      total += p.size();
    }
    if (nonempty == 0) return Bat(type);
    if (nonempty == 1) return std::move(*lone);
    Bat out(type);
    out.Reserve(total);
    for (const Bat& p : parts) out.Concat(p);
    return out;
  }
};

Status RequireNumeric(const ShardedBat& src, const char* what) {
  if (src.tail_type == TailType::kInt || src.tail_type == TailType::kFloat) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrFormat("%s requires a numeric tail", what));
}

/// select(v) / select("s"): rows whose tail equals the probe.
struct SelectEqOp : RowOp {
  Value v;
  bool str_only;

  Status Check(const ShardedBat& src) const {
    if (str_only && src.tail_type != TailType::kStr) {
      return Status::InvalidArgument("SelectStr requires a str tail");
    }
    if (v.type() != src.tail_type) {
      return Status::InvalidArgument("SelectEq value type mismatch");
    }
    return Status::OK();
  }

  void Scan(const Bat& s, size_t, const ExecContext& ctx,
            trace::SpanGuard& span, std::vector<Bat>* out) const {
    // The key resolves per piece: dictionary codes are piece-private. Some
    // probes provably match no row (absent string, NaN).
    uint64_t key = 0;
    if (!s.ProbeKey(v, &key)) return;
    if (s.tail_type() == TailType::kStr) span.DictHits(1);
    if (ctx.auto_index) {
      IndexProbeScope probe(span, s, /*head=*/false);
      if (auto idx = s.TailIndex(/*force=*/false)) {
        probe.Record();
        auto it = idx->map.find(key);
        if (it != idx->map.end()) out->push_back(s.EmitEqHits(it->second, v));
        return;
      }
    }
    // The scan runs only below the auto-index size or with indexes off.
    Partials(ctx, s.size(), false, span, out, Bat(type),
             [&](size_t begin, size_t end) {
               std::vector<size_t> hits;
               for (size_t i = begin; i < end; ++i) {
                 if (s.TailKeyAt(i) == key) hits.push_back(i);
               }
               return s.EmitEqHits(hits, v);
             });
  }
};

/// select(lo, hi): rows with numeric tail in [lo, hi].
struct SelectRangeOp : RowOp {
  double lo;
  double hi;

  Status Check(const ShardedBat& src) const {
    return RequireNumeric(src, "SelectRange");
  }

  // A NaN row never satisfies lo <= v <= hi, so an all-NaN (or empty)
  // piece always misses; NaN bounds compare false and prune nothing.
  bool Misses(const ShardStats& st) const {
    return !st.has_non_nan || st.max < lo || st.min > hi;
  }

  void Scan(const Bat& s, size_t, const ExecContext& ctx,
            trace::SpanGuard& span, std::vector<Bat>* out) const {
    Partials(ctx, s.size(), false, span, out, Bat(type),
             [&](size_t begin, size_t end) {
               Bat part(type);
               WithNumeric(s, [&](const auto& col) {
                 for (size_t i = begin; i < end; ++i) {
                   const double x = static_cast<double>(col[i]);
                   if (x >= lo && x <= hi) {
                     part.AppendRowFrom(s.HeadAt(i), s, i);
                   }
                 }
               });
               return part;
             });
  }
};

/// join(a, b): the left operand is the source, `b` is broadcast.
struct JoinOp : RowOp {
  const Bat& b;
  BuildSide side;

  size_t RowsIn(const ShardedBat& src) const { return src.rows() + b.size(); }

  Status Check(const ShardedBat& src) const {
    if (src.tail_type != TailType::kOid) {
      return Status::InvalidArgument("Join needs an oid tail on the left BAT");
    }
    return Status::OK();
  }

  void Prepare(const ShardedBat& src, const ExecContext& ctx,
               trace::SpanGuard& span) {
    const char* plan = side.Open(b, ctx.auto_index, span);
    if (span.enabled()) {
      span.Detail(StrFormat("probe=%zu build=%zu plan=%s", src.rows(),
                            b.size(), plan));
    }
  }

  void Scan(const Bat& s, size_t, const ExecContext& ctx,
            trace::SpanGuard& span, std::vector<Bat>* out) const {
    Partials(ctx, s.size(), false, span, out, Bat(type),
             [&](size_t begin, size_t end) {
               Bat part(type);
               side.With([&](const auto& table) {
                 for (size_t i = begin; i < end; ++i) {
                   auto it = table.find(s.OidAt(i));
                   if (it == table.end()) continue;
                   for (auto j : it->second) {
                     part.AppendRowFrom(s.HeadAt(i), b, j);
                   }
                 }
               });
               return part;
             });
  }
};

/// semijoin(a, b) / kdiff(a, b): rows of the source whose head membership
/// among `b`'s heads equals keep_present.
struct FilterOp : RowOp {
  const Bat& b;
  bool keep_present;
  BuildSide side;

  size_t RowsIn(const ShardedBat& src) const { return src.rows() + b.size(); }
  Status Check(const ShardedBat&) const { return Status::OK(); }

  void Prepare(const ShardedBat& src, const ExecContext& ctx,
               trace::SpanGuard& span) {
    side.Open(b, ctx.auto_index, span);
    if (span.enabled()) {
      span.Detail(StrFormat("left=%zu right=%zu", src.rows(), b.size()));
    }
  }

  void Scan(const Bat& s, size_t, const ExecContext& ctx,
            trace::SpanGuard& span, std::vector<Bat>* out) const {
    Partials(ctx, s.size(), false, span, out, Bat(type),
             [&](size_t begin, size_t end) {
               Bat part(type);
               side.With([&](const auto& table) {
                 for (size_t i = begin; i < end; ++i) {
                   if ((table.count(s.HeadAt(i)) != 0) == keep_present) {
                     part.AppendRowFrom(s.HeadAt(i), s, i);
                   }
                 }
               });
               return part;
             });
  }
};

/// sum(): per-morsel partial sums refolded left to right in global morsel
/// order — the rounding is identical at every threadcnt and shard count.
struct SumOp : OpBase {
  using Partial = double;
  using Out = double;
  static constexpr bool kOnGrid = true;

  Status Check(const ShardedBat& src) const {
    return RequireNumeric(src, "Sum");
  }

  void Scan(const Bat& s, size_t, const ExecContext& ctx,
            trace::SpanGuard& span, std::vector<double>* out) const {
    Partials(ctx, s.size(), true, span, out, 0.0,
             [&](size_t begin, size_t end) {
               return WithNumeric(s, [&](const auto& col) {
                 double acc = 0.0;
                 for (size_t i = begin; i < end; ++i) {
                   acc += static_cast<double>(col[i]);
                 }
                 return acc;
               });
             });
  }

  double Combine(std::vector<double>& parts, const ExecContext&) const {
    double acc = 0.0;
    for (double p : parts) acc += p;
    return acc;
  }
};

/// min() / arg_max(): the NaN-skipping leftmost winner, per range and
/// again over the ranges in order (the rule is associative).
template <bool kMax>
struct ExtremumOp : OpBase {
  using Partial = Winner;
  using Out = Winner;
  const char* what;  // "Min" / "ArgMax", for the error messages

  static bool Better(double v, double best) {
    return kMax ? BetterMax(v, best) : BetterMin(v, best);
  }

  Status Check(const ShardedBat& src) const {
    if (src.rows() == 0) {
      return Status::FailedPrecondition(StrFormat("%s of empty BAT", what));
    }
    return RequireNumeric(src, what);
  }

  void Scan(const Bat& s, size_t offset, const ExecContext& ctx,
            trace::SpanGuard& span, std::vector<Winner>* out) const {
    Partials(ctx, s.size(), false, span, out, Winner{},
             [&](size_t begin, size_t end) {
               return WithNumeric(s, [&](const auto& col) {
                 Winner w{offset + begin, static_cast<double>(col[begin])};
                 for (size_t i = begin + 1; i < end; ++i) {
                   const double v = static_cast<double>(col[i]);
                   if (Better(v, w.val)) w = {offset + i, v};
                 }
                 return w;
               });
             });
  }

  Winner Combine(std::vector<Winner>& parts, const ExecContext&) const {
    Winner w = parts.front();  // Check guarantees at least one row
    for (const Winner& p : parts) {
      if (Better(p.val, w.val)) w = p;
    }
    return w;
  }
};

/// group(): dense group ids in first-occurrence order.
struct GroupOp : OpBase {
  using Partial = GroupPartial;
  using Out = Bat;
  std::vector<size_t>* representatives;

  Status Check(const ShardedBat&) const { return Status::OK(); }

  void Scan(const Bat& s, size_t offset, const ExecContext& ctx,
            trace::SpanGuard& span, std::vector<GroupPartial>* out) const {
    // Grouping a string tail resolves every row through the dictionary.
    if (s.tail_type() == TailType::kStr) span.DictHits(s.size());
    Partials(ctx, s.size(), false, span, out, GroupPartial{},
             [&](size_t begin, size_t end) {
               GroupPartial g;
               g.piece = &s;
               g.begin = begin;
               g.end = end;
               g.row_ids.reserve(end - begin);
               std::unordered_map<uint64_t, uint32_t> ids;
               for (size_t i = begin; i < end; ++i) {
                 const uint64_t key = s.TailKeyAt(i);
                 auto [it, inserted] = ids.try_emplace(
                     key, static_cast<uint32_t>(g.keys.size()));
                 if (inserted) {
                   g.keys.push_back(key);
                   g.first_pos.push_back(offset + i);
                 }
                 g.row_ids.push_back(it->second);
               }
               return g;
             });
  }

  Bat Combine(std::vector<GroupPartial>& parts,
              const ExecContext& ctx) const {
    // Global ids: a key's id is fixed by the first partial that saw it, so
    // the numbering is the serial first-occurrence order. String keys go
    // through the string itself — a piece's dictionary codes are private
    // to it; numeric keys are already portable.
    std::unordered_map<uint64_t, Oid> global;
    std::unordered_map<std::string_view, uint64_t> strings;
    if (representatives != nullptr) representatives->clear();
    std::vector<std::vector<Oid>> to_global(parts.size());
    std::vector<size_t> start(parts.size() + 1, 0);
    for (size_t j = 0; j < parts.size(); ++j) {
      const GroupPartial& g = parts[j];
      start[j + 1] = start[j] + (g.end - g.begin);
      to_global[j].reserve(g.keys.size());
      for (size_t k = 0; k < g.keys.size(); ++k) {
        uint64_t key = g.keys[k];
        if (g.piece->tail_type() == TailType::kStr) {
          key = strings
                    .try_emplace(g.piece->DictAt(static_cast<uint32_t>(key)),
                                 strings.size())
                    .first->second;
        }
        auto [it, inserted] =
            global.try_emplace(key, static_cast<Oid>(global.size()));
        if (inserted && representatives != nullptr) {
          representatives->push_back(g.first_pos[k]);
        }
        to_global[j].push_back(it->second);
      }
    }
    // Re-map the rows through the global table, one partial per task.
    std::vector<Oid> heads(start.back());
    std::vector<Oid> gids(start.back());
    ParallelForEach(ctx, parts.size(), [&](size_t j) {
      const GroupPartial& g = parts[j];
      for (size_t r = 0; r < g.end - g.begin; ++r) {
        heads[start[j] + r] = g.piece->HeadAt(g.begin + r);
        gids[start[j] + r] = to_global[j][g.row_ids[r]];
      }
    });
    return Bat::FromOidColumns(std::move(heads), std::move(gids));
  }
};

// -- Running an operator over its pieces ------------------------------------

/// Zone-map piece filter: with stats fresh for every piece, marks the
/// pieces the operator provably gets no row from. Stale stats (a version or
/// row count moved since they were taken, or a shard-count mismatch) are
/// ignored, never trusted.
template <typename Op>
std::vector<uint8_t> PrunedPieces(const Op& op, const ShardedBat& src,
                                  const std::vector<ShardStats>* stats) {
  const size_t n = src.num_shards();
  std::vector<uint8_t> skip(n, 0);
  if (stats == nullptr || stats->size() != n) return skip;
  for (size_t k = 0; k < n; ++k) {
    if ((*stats)[k].version != src.slices[k]->version() ||
        (*stats)[k].rows != src.slices[k]->size()) {
      return std::vector<uint8_t>(n, 0);
    }
  }
  for (size_t k = 0; k < n; ++k) skip[k] = op.Misses((*stats)[k]) ? 1 : 0;
  return skip;
}

template <typename Op>
Result<typename Op::Out> Run(Op op, const ShardedBat& src,
                             const ExecContext& ctx,
                             const ExchangeOptions& opts) {
  using P = typename Op::Partial;
  const size_t n = src.num_shards();
  const std::vector<uint8_t> skip = PrunedPieces(op, src, opts.scan_stats);
  std::vector<std::vector<P>> parts(n);

  if (n == 1) {  // morsel path
    trace::SpanGuard span(ctx.trace, ctx.trace_parent, op.span_name);
    span.RowsIn(op.RowsIn(src));
    COBRA_RETURN_IF_ERROR(op.Check(src));
    op.Prepare(src, ctx, span);
    if (skip[0] == 0) {
      op.Scan(*src.slices[0], src.offsets[0], ctx, span, &parts[0]);
    }
    typename Op::Out out = op.Combine(parts[0], ctx);
    span.RowsOut(RowCount(out));
    return out;
  }

  // Exchange path.
  COBRA_RETURN_IF_ERROR(op.Check(src));
  if constexpr (Op::kOnGrid) {
    if (!src.AlignedTo(ctx.MorselRows())) {
      // Piece partials off the context's morsel grid would regroup the
      // fold: gather and run one piece — byte-identical, just not
      // scatter-gather.
      const Bat whole = GatherShards(src, ctx);
      return Run(std::move(op), ShardedBat::Whole(whole), ctx, opts);
    }
  }
  {
    trace::SpanGuard scatter(ctx.trace, ctx.trace_parent, "exchange.scatter");
    scatter.RowsIn(src.rows());
    op.Prepare(src, ctx, scatter);
    if (scatter.enabled()) {
      const size_t pruned = static_cast<size_t>(
          std::count(skip.begin(), skip.end(), uint8_t{1}));
      scatter.Detail(StrFormat("shards=%zu op=%s", n, op.op_name) +
                     (pruned > 0 ? StrFormat(" pruned=%zu", pruned) : ""));
    }
    // Each piece gets the caller's worker budget divided across the pieces.
    ExecContext inner = ctx;
    inner.threadcnt = std::max(
        1, ctx.threadcnt / static_cast<int>(std::max<size_t>(n, 1)));
    inner.trace_parent = scatter.span();
    ParallelForEach(ctx, n, [&](size_t k) {
      if (skip[k] != 0) return;
      trace::SpanGuard span(inner.trace, inner.trace_parent, op.span_name);
      span.RowsIn(src.slices[k]->size());
      op.Scan(*src.slices[k], src.offsets[k], inner, span, &parts[k]);
      span.RowsOut(RowCount(parts[k]));
    });
  }
  trace::SpanGuard merge(ctx.trace, ctx.trace_parent, "exchange.merge");
  std::vector<P> flat;
  for (size_t i = 0; i < n; ++i) {
    // TEST SEAM (ExchangeOptions::unsafe_unordered_merge): pieces in
    // reversed order, the stand-in for a merge in completion order.
    std::vector<P>& piece = parts[opts.unsafe_unordered_merge ? n - 1 - i : i];
    for (P& p : piece) flat.push_back(std::move(p));
  }
  merge.RowsIn(RowCount(flat));
  typename Op::Out out = op.Combine(flat, ctx);
  merge.RowsOut(RowCount(out));
  return out;
}

ExtremumOp<false> MinOp() { return {{"kernel.min", "min"}, "Min"}; }
ExtremumOp<true> ArgMaxOp() {
  return {{"kernel.arg_max", "arg_max"}, "ArgMax"};
}

}  // namespace

// -- Entry points: a ShardedBat runs N pieces, a Bat runs one ---------------

Result<Bat> ShardedSelectEq(const ShardedBat& sb, const Value& v,
                            const ExecContext& ctx,
                            const ExchangeOptions& opts) {
  return Run(
      SelectEqOp{{{"kernel.select_eq", "select_eq"}, v.type()}, v, false}, sb,
      ctx, opts);
}

Result<Bat> ShardedSelectStr(const ShardedBat& sb, const std::string& s,
                             const ExecContext& ctx,
                             const ExchangeOptions& opts) {
  return Run(SelectEqOp{{{"kernel.select_str", "select_str"}, TailType::kStr},
                        Value::Str(s), true},
             sb, ctx, opts);
}

Result<Bat> ShardedSelectRange(const ShardedBat& sb, double lo, double hi,
                               const ExecContext& ctx,
                               const ExchangeOptions& opts) {
  return Run(SelectRangeOp{{{"kernel.select_range", "select_range"},
                            sb.tail_type},
                           lo, hi},
             sb, ctx, opts);
}

Result<Bat> ShardedJoin(const ShardedBat& a, const Bat& b,
                        const ExecContext& ctx, const ExchangeOptions& opts) {
  return Run(JoinOp{{{"kernel.join", "join"}, b.tail_type()}, b, {}}, a, ctx,
             opts);
}

Result<Bat> ShardedSemijoin(const ShardedBat& a, const Bat& b,
                            const ExecContext& ctx,
                            const ExchangeOptions& opts) {
  return Run(
      FilterOp{{{"kernel.semijoin", "semijoin"}, a.tail_type}, b, true, {}}, a,
      ctx, opts);
}

Result<Bat> ShardedDiff(const ShardedBat& a, const Bat& b,
                        const ExecContext& ctx, const ExchangeOptions& opts) {
  return Run(FilterOp{{{"kernel.diff", "diff"}, a.tail_type}, b, false, {}}, a,
             ctx, opts);
}

Result<double> ShardedSum(const ShardedBat& sb, const ExecContext& ctx,
                          const ExchangeOptions& opts) {
  return Run(SumOp{{"kernel.sum", "sum"}}, sb, ctx, opts);
}

Result<double> ShardedMin(const ShardedBat& sb, const ExecContext& ctx,
                          const ExchangeOptions& opts) {
  COBRA_ASSIGN_OR_RETURN(Winner w, Run(MinOp(), sb, ctx, opts));
  return w.val;
}

Result<size_t> ShardedArgMax(const ShardedBat& sb, const ExecContext& ctx,
                             const ExchangeOptions& opts) {
  COBRA_ASSIGN_OR_RETURN(Winner w, Run(ArgMaxOp(), sb, ctx, opts));
  return w.pos;
}

Result<double> ShardedMax(const ShardedBat& sb, const ExecContext& ctx,
                          const ExchangeOptions& opts) {
  // Max is ArgMax's winning value (same errors, same tie resolution); the
  // delegation nests under a kernel.max span.
  trace::SpanGuard span(ctx.trace, ctx.trace_parent, "kernel.max");
  span.RowsIn(sb.rows());
  COBRA_ASSIGN_OR_RETURN(
      Winner w, Run(ArgMaxOp(), sb, ctx.WithTraceParent(span.span()), opts));
  span.RowsOut(1);
  return w.val;
}

Result<Bat> ShardedGroup(const ShardedBat& sb,
                         std::vector<size_t>* representatives,
                         const ExecContext& ctx, const ExchangeOptions& opts) {
  return Run(GroupOp{{"kernel.group", "group"}, representatives}, sb, ctx,
             opts);
}

Result<Bat> Bat::SelectEq(const Value& v, const ExecContext& ctx) const {
  return ShardedSelectEq(ShardedBat::Whole(*this), v, ctx);
}

Result<Bat> Bat::SelectStr(const std::string& s, const ExecContext& ctx) const {
  return ShardedSelectStr(ShardedBat::Whole(*this), s, ctx);
}

Result<Bat> Bat::SelectRange(double lo, double hi,
                             const ExecContext& ctx) const {
  return ShardedSelectRange(ShardedBat::Whole(*this), lo, hi, ctx);
}

Result<double> Bat::Sum(const ExecContext& ctx) const {
  return ShardedSum(ShardedBat::Whole(*this), ctx);
}

Result<double> Bat::Min(const ExecContext& ctx) const {
  return ShardedMin(ShardedBat::Whole(*this), ctx);
}

Result<double> Bat::Max(const ExecContext& ctx) const {
  return ShardedMax(ShardedBat::Whole(*this), ctx);
}

Result<size_t> Bat::ArgMax(const ExecContext& ctx) const {
  return ShardedArgMax(ShardedBat::Whole(*this), ctx);
}

Result<Bat> Join(const Bat& a, const Bat& b, const ExecContext& ctx) {
  return ShardedJoin(ShardedBat::Whole(a), b, ctx);
}

Bat Semijoin(const Bat& a, const Bat& b, const ExecContext& ctx) {
  return ShardedSemijoin(ShardedBat::Whole(a), b, ctx).value();
}

Bat Diff(const Bat& a, const Bat& b, const ExecContext& ctx) {
  return ShardedDiff(ShardedBat::Whole(a), b, ctx).value();
}

Bat Group(const Bat& a, std::vector<size_t>* representatives,
          const ExecContext& ctx) {
  return ShardedGroup(ShardedBat::Whole(a), representatives, ctx).value();
}

}  // namespace cobra::kernel
