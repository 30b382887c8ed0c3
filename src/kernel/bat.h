#ifndef COBRA_KERNEL_BAT_H_
#define COBRA_KERNEL_BAT_H_

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "base/status.h"
#include "kernel/exec_context.h"

namespace cobra::kernel {

/// Object identifier — the head column type of every BAT, exactly as in
/// Monet's binary relational model.
using Oid = uint64_t;

/// Tail column type of a BAT.
enum class TailType { kInt, kFloat, kStr, kOid };

std::string_view TailTypeName(TailType t);

/// A tail value. Oid tails are carried as the distinct `Oid`-typed
/// alternative of the variant (index 3).
class Value {
 public:
  Value() : data_(int64_t{0}), type_(TailType::kInt) {}
  static Value Int(int64_t v) { return Value(v, TailType::kInt); }
  static Value Float(double v) { return Value(v, TailType::kFloat); }
  static Value Str(std::string v) { return Value(std::move(v)); }
  static Value OfOid(Oid v) { return Value(v, TailType::kOid); }

  TailType type() const { return type_; }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsFloat() const { return std::get<double>(data_); }
  const std::string& AsStr() const { return std::get<std::string>(data_); }
  Oid AsOid() const { return std::get<Oid>(data_); }

  /// Numeric view: ints and floats convert; str/oid values are a typed
  /// InvalidArgument error (never silently 0).
  [[nodiscard]] Result<double> Numeric() const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.type_ == b.type_ && a.data_ == b.data_;
  }

 private:
  Value(int64_t v, TailType t) : data_(v), type_(t) {}
  Value(double v, TailType t) : data_(v), type_(t) {}
  Value(Oid v, TailType t) : data_(v), type_(t) {}
  explicit Value(std::string v)
      : data_(std::move(v)), type_(TailType::kStr) {}

  std::variant<int64_t, double, std::string, Oid> data_;
  TailType type_;
};

/// A Binary Association Table: a sequence of (head oid, tail value) pairs
/// with a fixed tail type. This is the Monet physical data model the paper
/// builds on (`BAT[oid,dbl] f1` in Fig. 4); all metadata in the Cobra layer
/// is decomposed into BATs.
///
/// Tails are stored column-wise in a typed vector, so scans touch only the
/// bytes they need (main-memory column execution). String tails are
/// dictionary-encoded: distinct strings live once in a per-BAT interning
/// heap and the column holds `uint32_t` codes, so string equality is a code
/// compare and highly repetitive columns (F1 annotations, event types)
/// shrink to four bytes per row.
///
/// BATs are *self-organizing*, as in Monet: equality probes accrete
/// persistent hash indexes (tail-value index for `SelectEq`/`SelectStr`,
/// head index for `Join`/`Semijoin`/`Diff` build sides) that are built
/// lazily on first probe and reused until a mutation bumps the BAT's
/// version counter, after which the next probe rebuilds them transparently.
/// Concurrent read-only probes on a shared BAT are thread-safe (index
/// builds are serialized internally); mutation requires exclusive access,
/// like the standard containers.
class Bat {
 public:
  /// Rows below this never auto-build an index on probe (scan is cheaper);
  /// once a BAT has accreted an index it is kept fresh regardless of size.
  static constexpr size_t kAutoIndexMinRows = 128;

  /// A persistent equality-probe accelerator: key -> ascending positions.
  /// Keys are the 64-bit canonical encoding of the column value (see
  /// `TailKeyAt`). Exposed for the kernel operators, `info()` and tests;
  /// treat as read-only.
  struct HashIndex {
    uint64_t built_version = 0;
    /// Rows [0, built_rows) are reflected in `map`. Equal to the BAT size at
    /// build time; incremental append maintenance advances it without a
    /// rebuild. An index is only served when built_version matches, so a
    /// fresh index always has built_rows == size().
    uint64_t built_rows = 0;
    std::unordered_map<uint64_t, std::vector<uint32_t>> map;
  };

  /// Snapshot of the acceleration state (surfaced by MIL `info()`).
  struct AccelInfo {
    uint64_t version = 0;
    bool tail_index_built = false;
    bool tail_index_fresh = false;
    bool head_index_built = false;
    bool head_index_fresh = false;
    uint64_t tail_builds = 0;
    uint64_t tail_probes = 0;
    uint64_t head_builds = 0;
    uint64_t head_probes = 0;
    /// In-place index extensions performed by append maintenance (streaming
    /// mode): each one kept an existing index fresh WITHOUT a rebuild.
    uint64_t tail_extends = 0;
    uint64_t head_extends = 0;
    /// Rows covered by the current indexes (0 when absent).
    size_t tail_indexed_rows = 0;
    size_t head_indexed_rows = 0;
    size_t dict_entries = 0;  // distinct strings (kStr tails only)
  };

  explicit Bat(TailType tail_type) : tail_type_(tail_type) {}
  ~Bat();

  /// Copies carry the columns and dictionary but start with a fresh
  /// acceleration state (indexes rebuild lazily in the copy).
  Bat(const Bat& other);
  Bat& operator=(const Bat& other);
  Bat(Bat&& other) noexcept;
  Bat& operator=(Bat&& other) noexcept;

  TailType tail_type() const { return tail_type_; }
  size_t size() const { return head_.size(); }
  bool empty() const { return head_.empty(); }

  /// Appends a pair; the value type must match the tail type.
  Status Append(Oid head, const Value& tail);
  /// Typed fast-path appends (no variant).
  void AppendInt(Oid head, int64_t v);
  void AppendFloat(Oid head, double v);
  void AppendStr(Oid head, std::string v);
  void AppendOid(Oid head, Oid v);

  /// Appends (head, tail of `src` at position `i`); `src` must have the same
  /// tail type. No variant round-trip.
  void AppendRowFrom(Oid head, const Bat& src, size_t i);

  /// Pre-sizes the columns for `n` pairs.
  void Reserve(size_t n);

  /// Appends every pair of `other` (same tail type) — bulk column concat,
  /// used to merge per-morsel operator outputs in morsel order. String
  /// codes are remapped through this BAT's dictionary. The context form is
  /// identical but records a trace span when a sink is installed.
  void Concat(const Bat& other);
  void Concat(const Bat& other, const ExecContext& ctx);

  /// Adopts pre-built head/tail columns (must be the same length) as a
  /// BAT[oid, oid].
  static Bat FromOidColumns(std::vector<Oid> heads, std::vector<Oid> tails);

  Oid HeadAt(size_t i) const { return head_[i]; }
  Value TailAt(size_t i) const;
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double FloatAt(size_t i) const { return floats_[i]; }
  const std::string& StrAt(size_t i) const {
    return *dict_order_[str_codes_[i]];
  }
  Oid OidAt(size_t i) const { return oids_[i]; }

  const std::vector<Oid>& heads() const { return head_; }
  const std::vector<double>& float_tails() const { return floats_; }
  const std::vector<int64_t>& int_tails() const { return ints_; }
  const std::vector<Oid>& oid_tails() const { return oids_; }
  /// Per-row dictionary codes of a string tail (parallel to heads()).
  const std::vector<uint32_t>& str_codes() const { return str_codes_; }
  /// The interned string for a dictionary code (codes are dense, insertion
  /// ordered: 0 .. DictSize()-1). Used by the persistence layer to walk the
  /// dictionary heap in its canonical order.
  const std::string& DictAt(uint32_t code) const { return *dict_order_[code]; }

  // -- Acceleration layer ---------------------------------------------------

  /// Mutation counter; indexes built at an older version rebuild on probe.
  uint64_t version() const { return version_; }
  /// Distinct strings in the dictionary (0 for non-string tails).
  size_t DictSize() const { return dict_order_.size(); }
  /// Forces an index build now (benchmarks/tests; probes do this lazily).
  void BuildTailIndex() const { (void)TailIndex(/*force=*/true); }
  void BuildHeadIndex() const { (void)HeadIndex(/*force=*/true); }
  AccelInfo accel_info() const;

  /// Current tail/head hash index, building per policy: always when
  /// `force`, else when one already exists (kept fresh) or the BAT has at
  /// least kAutoIndexMinRows rows. Returns null when the policy declines
  /// (callers fall back to a scan). Thread-safe.
  std::shared_ptr<const HashIndex> TailIndex(bool force) const;
  std::shared_ptr<const HashIndex> HeadIndex(bool force) const;

  /// Streaming append maintenance (default OFF): when enabled, every append
  /// extends any existing hash index in place — new rows are added to the
  /// published map and its built_version/built_rows are advanced — instead
  /// of invalidating it for a full rebuild on the next probe. The default
  /// mode keeps the classic Monet invalidate-on-mutation behavior
  /// unchanged. Like all mutation state, toggle only with exclusive access.
  ///
  /// A shared_ptr still held by a reader (a stashed probe snapshot) is
  /// never mutated: maintenance clones it, extends the clone, and publishes
  /// that — the snapshot keeps describing exactly the rows it was taken
  /// over.
  bool append_maintenance() const { return append_maintenance_; }
  void set_append_maintenance(bool on) { append_maintenance_ = on; }

  /// TEST ONLY — the seeded defect seam for the streaming differential
  /// harness: stamps any existing indexes as fresh (built_version/built_rows
  /// advanced to current) WITHOUT adding the missing rows to the map. Probes
  /// then silently miss every row appended since the last real build — the
  /// exact latent staleness bug incremental maintenance must not have. Never
  /// call outside a harness that asserts the corruption is caught.
  void unsafe_stamp_indexes_fresh();

  /// Rows whose tail equals `v`: probes the current tail index when one is
  /// fresh, otherwise counts by scan; never builds or mutates acceleration
  /// state (safe as a lightweight gating probe). Type-checked like SelectEq.
  Result<uint64_t> CountEq(const Value& v) const;

  /// Canonical 64-bit key of the tail at `i` (dictionary code for strings,
  /// bit pattern for numerics with -0.0 normalized to 0.0).
  uint64_t TailKeyAt(size_t i) const {
    switch (tail_type_) {
      case TailType::kInt:
        return std::bit_cast<uint64_t>(ints_[i]);
      case TailType::kFloat:
        return FloatKey(floats_[i]);
      case TailType::kStr:
        return str_codes_[i];
      case TailType::kOid:
        return oids_[i];
    }
    return 0;
  }

  /// The key of probe value `v` (which must have this BAT's tail type) in
  /// TailKeyAt's encoding; false when `v` provably matches no row — a NaN,
  /// or a string absent from the dictionary.
  bool ProbeKey(const Value& v, uint64_t* key) const;

  /// The select-equal output for ascending hit positions: (head, v) per
  /// hit. Emits the probe value, not the row's, so a -0.0 row hit by a 0.0
  /// probe reads back as 0.0 on every path. Defined for uint32_t (index)
  /// and size_t (scan) positions.
  template <typename Pos>
  Bat EmitEqHits(const std::vector<Pos>& hits, const Value& v) const;

  // -- MIL-style unary operators ------------------------------------------
  //
  // Each hot operator has a serial form and an ExecContext form. The
  // serial forms are the differential harness's reference: each keeps its
  // own plain loop. The context forms are defined once, in operators.cc,
  // as a {partial over a row range, ordered combine} pair: this BAT is a
  // single piece whose partials run morsel-parallel on the shared kernel
  // pool when ctx.UseParallel(size()) holds (kernel/shard.h runs the same
  // definitions over N shard pieces). They are equivalence-tested to
  // produce byte-identical output (values and order) at every threadcnt.
  // Equality selects probe the persistent tail index when the policy
  // allows (ctx.auto_index gates it on the context forms). When the context
  // carries a trace sink (ctx.trace), the context forms record a
  // trace::Span — rows in/out, morsel count, index probe/build/invalidation
  // events, dictionary hits — and are strict no-ops on that path otherwise.

  /// select(v): pairs whose tail equals v.
  Result<Bat> SelectEq(const Value& v) const;
  Result<Bat> SelectEq(const Value& v, const ExecContext& ctx) const;
  /// select(lo, hi): pairs with numeric tail in [lo, hi] (int/float tails).
  Result<Bat> SelectRange(double lo, double hi) const;
  Result<Bat> SelectRange(double lo, double hi, const ExecContext& ctx) const;
  /// select over string tails matching exactly `s`.
  Result<Bat> SelectStr(const std::string& s) const;
  Result<Bat> SelectStr(const std::string& s, const ExecContext& ctx) const;
  /// reverse(): swaps head and tail; tail must be oid-typed.
  Result<Bat> Reverse() const;
  /// mirror(): (head, head) as oid tail.
  Bat Mirror() const;
  /// slice of [begin, end) positions.
  Bat Slice(size_t begin, size_t end) const;

  // -- Aggregates ----------------------------------------------------------

  /// Numeric aggregates over int/float tails. The ExecContext forms reduce
  /// per fixed-size morsel and combine partials in morsel order, so the
  /// floating-point result is identical at every threadcnt (and to the
  /// serial form whenever the input fits one morsel). Min/Max/ArgMax skip
  /// NaN tails (a NaN is the result only when every tail is NaN), which
  /// keeps the serial and morsel scans equivalent for any NaN placement;
  /// Sum propagates NaN as IEEE addition does.
  Result<double> Sum() const;
  Result<double> Sum(const ExecContext& ctx) const;
  Result<double> Max() const;
  Result<double> Max(const ExecContext& ctx) const;
  Result<double> Min() const;
  Result<double> Min(const ExecContext& ctx) const;
  size_t Count() const { return size(); }

  /// Position of the maximum numeric tail; error when empty/non-numeric.
  /// Ties resolve to the lowest position on both paths.
  Result<size_t> ArgMax() const;
  Result<size_t> ArgMax(const ExecContext& ctx) const;

 private:
  struct Accel;

  /// Float key: -0.0 folds into +0.0 (they compare equal).
  static uint64_t FloatKey(double d) {
    return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);
  }

  /// Lazily-created shared acceleration state (atomic CAS publication, so
  /// concurrent const probes race safely on first touch).
  Accel& accel() const;
  /// Interns `v`, returning its dictionary code.
  uint32_t InternStr(std::string v);
  void Bump() { ++version_; }
  /// Post-append hook: rows [old_rows, size()) were just appended. In
  /// maintenance mode extends existing indexes in place (MaintainAppendSlow);
  /// a disabled hook costs one predictable branch.
  void MaintainAppend(size_t old_rows) {
    if (append_maintenance_) MaintainAppendSlow(old_rows);
  }
  void MaintainAppendSlow(size_t old_rows);

  TailType tail_type_;
  std::vector<Oid> head_;
  std::vector<int64_t> ints_;
  std::vector<double> floats_;
  std::vector<Oid> oids_;
  // Dictionary-encoded string column: per-row codes plus the interning
  // heap. `dict_` owns the strings (node-stable keys); `dict_order_` maps
  // code -> key in insertion order.
  std::vector<uint32_t> str_codes_;
  std::unordered_map<std::string, uint32_t> dict_;
  std::vector<const std::string*> dict_order_;

  // Bumped only by mutations, which require exclusive access to the BAT
  // (the container contract above); concurrent const probes read it under
  // Accel::mu, whose critical sections order the reads against the bump
  // made by the last pre-publication mutation.
  uint64_t version_ = 0;
  /// Streaming mode flag (see set_append_maintenance). Mutation-path state:
  /// read on every append, so it follows the exclusive-access contract.
  bool append_maintenance_ = false;
  mutable std::atomic<Accel*> accel_{nullptr};
};

/// The aggregates' NaN-skipping winner rules: the candidate replaces the
/// best when strictly better, or when the best so far is NaN and the
/// candidate is not. NaN tails therefore never win unless every tail is
/// NaN. Leftmost-winner selection under these rules is associative, so a
/// scan cut into ranges at any boundaries combines to the serial answer (a
/// plain `v > best` poisons whichever range happens to start on a NaN).
inline bool BetterMax(double v, double best) {
  return std::isnan(best) ? !std::isnan(v) : v > best;
}
inline bool BetterMin(double v, double best) {
  return std::isnan(best) ? !std::isnan(v) : v < best;
}

// -- Binary operators -------------------------------------------------------

/// join(a, b): for every (h, t) in `a` with oid tail and (t, v) in `b`,
/// emits (h, v). Hash join probing `b`'s persistent head index (built on
/// first use, reused across calls). The output is ordered by position in
/// `a`, with a row's matches emitted in `b` order.
Result<Bat> Join(const Bat& a, const Bat& b);

/// Parallel join with the same output as the serial form: probe morsels
/// over `a` run in parallel against the shared head index and the
/// per-morsel outputs merge in morsel order. With ctx.auto_index false a
/// throwaway head table is built instead (no state is left on `b`).
Result<Bat> Join(const Bat& a, const Bat& b, const ExecContext& ctx);

/// semijoin(a, b): pairs of `a` whose head occurs as a head in `b`.
Bat Semijoin(const Bat& a, const Bat& b);
Bat Semijoin(const Bat& a, const Bat& b, const ExecContext& ctx);

/// kdiff(a, b): pairs of `a` whose head does NOT occur as a head in `b`.
Bat Diff(const Bat& a, const Bat& b);
Bat Diff(const Bat& a, const Bat& b, const ExecContext& ctx);

/// group(a): maps equal tails to a dense group id; returns BAT[oid, oid]
/// (original head -> group id) and fills `representatives` with one input
/// position per group. Group ids are dense in first-occurrence order.
/// Grouping hashes the canonical 64-bit tail keys — dictionary codes for
/// strings — never the string bytes.
Bat Group(const Bat& a, std::vector<size_t>* representatives);

/// Parallel group with identical output: per-morsel local tables are built
/// in parallel, merged serially in morsel order into the global dense-id
/// table (preserving first-occurrence numbering; the merge keys a string
/// group by its string, once per group and morsel), then rows are
/// re-mapped in parallel.
Bat Group(const Bat& a, std::vector<size_t>* representatives,
          const ExecContext& ctx);

}  // namespace cobra::kernel

#endif  // COBRA_KERNEL_BAT_H_
