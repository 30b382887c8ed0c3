#ifndef COBRA_KERNEL_SHARD_H_
#define COBRA_KERNEL_SHARD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/io.h"
#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "kernel/bat.h"
#include "kernel/catalog.h"
#include "kernel/exec_context.h"
#include "kernel/persist.h"

namespace cobra::kernel {

// -- Partitioning -----------------------------------------------------------
//
// A logical BAT is partitioned into N shards by contiguous row ranges whose
// boundaries lie on multiples of an alignment quantum (the default equals
// ExecContext::kDefaultMorselRows). Range partitioning — ROADMAP item 1
// allows "oid range or hash" — is what keeps scatter-gather byte-identical
// to the single-catalog plan:
//
//   * the logical BAT is the concatenation of the shard slices in shard
//     order, so order-preserving operators (selects, joins, group) merge by
//     concatenation in shard order, with dictionary codes remapped through
//     Bat::Concat exactly as the morsel merges of PR 1 do;
//   * every shard boundary is a multiple of the alignment quantum, so when
//     the execution context's morsel size divides the quantum, the shard
//     slices tile the GLOBAL morsel grid. Floating-point reductions (Sum)
//     gather the per-morsel partials and refold them in global morsel
//     order — the exact left fold Bat::Sum(ctx) performs — instead of
//     folding per-shard scalars, which would reassociate the additions.
//
// Appends to a sharded BAT route to the LAST shard: earlier shard offsets
// stay aligned no matter how the tail grows.

/// Row range [begin, end) of one shard's slice of a logical BAT.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Splits `rows` into `shards` contiguous ranges with every boundary a
/// multiple of `align` (whole aligned blocks are distributed as evenly as
/// possible, earlier shards first; the final range takes the remainder).
std::vector<ShardRange> ShardRanges(size_t rows, size_t shards, size_t align);

/// A partitioned logical BAT: non-owning views of the per-shard slices, in
/// shard order. `offsets[k]` is the global row offset of slice k (the sum of
/// the earlier slice sizes). Valid only while the underlying BATs live.
///
/// This is also the kernel operators' source: the ordered piece list their
/// one Run routine (operators.cc) takes. A plain BAT is one piece at offset
/// 0 (Whole) and runs the morsel path; more pieces run the exchange path.
struct ShardedBat {
  std::vector<const Bat*> slices;
  std::vector<size_t> offsets;
  TailType tail_type = TailType::kInt;

  /// `bat` as a single piece at offset 0.
  static ShardedBat Whole(const Bat& bat);

  size_t num_shards() const { return slices.size(); }
  size_t rows() const;
  /// True when every slice offset is a multiple of `quantum` — the
  /// precondition for refolding Sum on the global morsel grid.
  bool AlignedTo(size_t quantum) const;
};

/// An owning ephemeral partition of a BAT (the MIL `shards(n)` path and the
/// differential harness partition session values on the fly).
class PartitionedBat {
 public:
  /// Copies `bat` into `shards` aligned slices (see ShardRanges).
  PartitionedBat(const Bat& bat, size_t shards, size_t align);

  ShardedBat View() const;
  const Bat& slice(size_t k) const { return slices_[k]; }
  size_t num_shards() const { return slices_.size(); }

 private:
  std::vector<Bat> slices_;
  std::vector<size_t> offsets_;
  TailType tail_type_;
};

// -- Exchange operators -----------------------------------------------------
//
// The piece-list entry points of the kernel operators. Every operator is
// defined once (operators.cc) as a {partial over a row range, ordered
// combine} pair; these forms run it over the slices of `sb`. With more than
// one slice the exchange path scatters one piece per shard (ParallelForEach
// over shards, each piece morsel-split under a context whose threadcnt is
// the caller's divided by the shard count) and combines every piece's
// partials in shard order; a one-slice ShardedBat runs the morsel path of
// the Bat/ExecContext forms. Each form is byte-identical to the single-BAT
// kernel call over the gathered input — including -0.0/NaN placement, tie
// resolution, and dictionary-code assignment — with the same errors.
//
// When the context carries a trace sink, the exchange path records an
// `exchange.scatter` span (one kernel.* span per shard nests under it) and
// an `exchange.merge` span around the combine, both under ctx.trace_parent.

/// Per-slice scan statistics — a zone map over one shard's slice of a
/// numeric BAT. `min`/`max` ignore NaN tails (SelectRange never matches a
/// NaN row); a slice of only-NaN rows has has_non_nan == false and is
/// always prunable.
struct ShardStats {
  uint64_t version = 0;  // Bat::version() the stats were computed at
  size_t rows = 0;
  bool has_non_nan = false;
  double min = 0.0;
  double max = 0.0;
};

struct ExchangeOptions {
  /// TEST SEAM — never enable outside tests. The combine takes the shards'
  /// partials in REVERSED shard order (the deterministic stand-in for an
  /// exchange that merges in completion order). The differential harness
  /// must catch it.
  bool unsafe_unordered_merge = false;
  /// Optional zone maps (one per shard, from ShardedCatalog::ScanStats or
  /// ComputeShardStats) enabling partition pruning in ShardedSelectRange:
  /// a shard whose [min, max] interval provably misses [lo, hi] is never
  /// scanned. Pruned shards contribute zero rows by construction, so the
  /// merged output is unchanged. Ignored by every other operator.
  const std::vector<ShardStats>* scan_stats = nullptr;
};

/// Zone maps for every slice of `sb`, computed by one scan per shard
/// (parallel across shards). Only meaningful for numeric tails.
std::vector<ShardStats> ComputeShardStats(const ShardedBat& sb,
                                          const ExecContext& ctx);

/// Gathers the slices back into one BAT (concat in shard order, dictionary
/// codes remapped) — the exchange that feeds a non-sharded consumer.
Bat GatherShards(const ShardedBat& sb, const ExecContext& ctx);

Result<Bat> ShardedSelectEq(const ShardedBat& sb, const Value& v,
                            const ExecContext& ctx,
                            const ExchangeOptions& opts = {});
Result<Bat> ShardedSelectRange(const ShardedBat& sb, double lo, double hi,
                               const ExecContext& ctx,
                               const ExchangeOptions& opts = {});
Result<Bat> ShardedSelectStr(const ShardedBat& sb, const std::string& s,
                             const ExecContext& ctx,
                             const ExchangeOptions& opts = {});

/// Join/Semijoin/Diff with the LEFT operand sharded and the right operand
/// broadcast (every shard probes the same build side — the classic
/// broadcast-join exchange).
Result<Bat> ShardedJoin(const ShardedBat& a, const Bat& b,
                        const ExecContext& ctx,
                        const ExchangeOptions& opts = {});
Result<Bat> ShardedSemijoin(const ShardedBat& a, const Bat& b,
                            const ExecContext& ctx,
                            const ExchangeOptions& opts = {});
Result<Bat> ShardedDiff(const ShardedBat& a, const Bat& b,
                        const ExecContext& ctx,
                        const ExchangeOptions& opts = {});

/// Aggregates. Sum refolds the per-morsel partials in global morsel order
/// when the shard offsets sit on the context's morsel grid (and otherwise
/// gathers and runs one piece, still byte-identical). Min/Max/ArgMax
/// combine partials in order with the kernel's NaN-skipping leftmost-winner
/// rule, which is associative, so no grid alignment is required. ArgMax
/// returns the GLOBAL row position.
Result<double> ShardedSum(const ShardedBat& sb, const ExecContext& ctx,
                          const ExchangeOptions& opts = {});
Result<double> ShardedMin(const ShardedBat& sb, const ExecContext& ctx,
                          const ExchangeOptions& opts = {});
Result<double> ShardedMax(const ShardedBat& sb, const ExecContext& ctx,
                          const ExchangeOptions& opts = {});
Result<size_t> ShardedArgMax(const ShardedBat& sb, const ExecContext& ctx,
                             const ExchangeOptions& opts = {});

/// Sharded group-by: local tables per range, then local ids are remapped to
/// global ids by walking the ranges in order and keying on shard-portable
/// canonical values (the string itself for str tails — local dictionary
/// codes do not transfer — and the -0.0-normalized bit pattern otherwise),
/// preserving global first-occurrence numbering.
/// `representatives`, when non-null, receives one GLOBAL position per group.
Result<Bat> ShardedGroup(const ShardedBat& sb,
                         std::vector<size_t>* representatives,
                         const ExecContext& ctx,
                         const ExchangeOptions& opts = {});

// -- ShardedCatalog ---------------------------------------------------------

/// N kernel catalogs behind one namespace — the deployment unit of the
/// scatter-gather layer. Every logical BAT exists in all shards (a slice
/// may be empty); `Put` partitions on the aligned grid, appends route to
/// the last shard, and `View` hands out the ShardedBat the exchange
/// operators consume.
///
/// Persistence is per shard and independent: `AttachStores` opens one
/// PersistentStore per shard under `dir/shard-<k>`, `Checkpoint` fans out
/// in parallel, and `Recover` rebuilds each shard from its own store — a
/// crash during shard k's checkpoint never involves any other shard's
/// files (they live in disjoint directories).
///
/// Thread-safety: the per-shard Catalogs carry their own locks; `mu_`
/// guards only this class's zone-map cache. Structural mutations (Put/
/// Create/Append/Drop) require external exclusive access, like Bat itself.
class ShardedCatalog {
 public:
  /// `align` is the partition quantum; the default matches the default
  /// morsel size, so default-context Sum always takes the scatter path.
  explicit ShardedCatalog(
      size_t num_shards, size_t align = ExecContext::kDefaultMorselRows);

  ShardedCatalog(const ShardedCatalog&) = delete;
  ShardedCatalog& operator=(const ShardedCatalog&) = delete;

  size_t num_shards() const { return shards_.size(); }
  size_t align() const { return align_; }
  Catalog* shard(size_t k) { return shards_[k].get(); }
  const Catalog* shard(size_t k) const { return shards_[k].get(); }

  /// Creates an empty BAT under `name` in every shard.
  Status Create(const std::string& name, TailType tail_type);
  /// Partitions `bat` across the shards (aligned ranges), replacing any
  /// previous binding.
  Status Put(const std::string& name, const Bat& bat);
  /// Appends one pair to the logical BAT (routed to the last shard).
  Status Append(const std::string& name, Oid head, const Value& tail);
  /// Drops the binding from every shard; NotFound if absent.
  Status Drop(const std::string& name);
  bool Exists(const std::string& name) const;

  /// The sharded view of a logical BAT (non-owning; valid until the next
  /// structural mutation of `name`).
  Result<ShardedBat> View(const std::string& name) const;
  /// The logical BAT materialized (gather in shard order).
  Result<Bat> Gather(const std::string& name, const ExecContext& ctx) const;
  /// Total rows of the logical BAT across all shards.
  Result<size_t> Rows(const std::string& name) const;

  /// Zone maps for `name`, one per shard, cached per Bat::version() and
  /// recomputed lazily after a mutation (self-organizing, like the kernel's
  /// accreted hash indexes). Feed into ExchangeOptions::scan_stats.
  Result<std::vector<ShardStats>> ScanStats(const std::string& name,
                                            const ExecContext& ctx) const
      COBRA_EXCLUDES(mu_);

  // -- Per-shard persistence ----------------------------------------------

  /// Opens one PersistentStore per shard under `dir/shard-<k>` and attaches
  /// each to its catalog for stats reporting.
  Status AttachStores(io::Fs* fs, const std::string& dir);
  /// Checkpoints every shard into its own store, fanned out in parallel
  /// (ParallelForEach over shards under `ctx`). `extra` is stored in every
  /// shard's snapshot. Requires AttachStores.
  Status Checkpoint(const ExecContext& ctx, std::string_view extra = "");
  /// Rebuilds every shard from its own store, fanned out in parallel.
  /// Recovery is per-shard and independent: shard k's outcome depends only
  /// on the files under `dir/shard-<k>`. Returns one RecoveryInfo per
  /// shard, in shard order. Requires AttachStores.
  Result<std::vector<PersistentStore::RecoveryInfo>> Recover(
      const ExecContext& ctx);

  PersistentStore* store(size_t k) { return stores_[k].get(); }

  /// Shard directory naming scheme, shared with discovery.
  static std::string ShardDir(const std::string& dir, size_t k);
  /// Number of consecutive `dir/shard-<k>` directories (k = 0, 1, ...)
  /// holding persisted state — how a recovering process learns the shard
  /// count of an existing deployment. 0 when none exist.
  static size_t DiscoverShardCount(const io::Fs& fs, const std::string& dir);

 private:
  const size_t align_;
  std::vector<std::unique_ptr<Catalog>> shards_;
  std::vector<std::unique_ptr<PersistentStore>> stores_;

  struct CachedStats {
    std::vector<uint64_t> versions;  // Bat::version() per shard at compute
    std::vector<ShardStats> stats;
  };
  mutable Mutex mu_;
  mutable std::map<std::string, CachedStats> scan_cache_ COBRA_GUARDED_BY(mu_);
};

}  // namespace cobra::kernel

#endif  // COBRA_KERNEL_SHARD_H_
