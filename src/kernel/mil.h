#ifndef COBRA_KERNEL_MIL_H_
#define COBRA_KERNEL_MIL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "base/diag.h"
#include "base/io.h"
#include "base/status.h"
#include "base/trace.h"
#include "kernel/bat.h"
#include "kernel/catalog.h"

namespace cobra::kernel {

class PersistentStore;

/// A value in a MIL script: a BAT, a scalar, or a string.
using MilValue = std::variant<Bat, double, std::string>;

/// A small interpreter for a MIL-like scripting language over the BAT
/// catalog — the interface language of the physical level (the paper's
/// Figs. 4/5 list MIL procedures; Moa operator programs are rewritten into
/// exactly this kind of script).
///
/// Statements (each terminated by ';' — a missing one is a positioned
/// InvalidArgument at the first extra token; empty statements are legal):
///   VAR name := <expr>;      declare a session variable
///   name := <expr>;          reassign
///   PRINT <expr>;            append the value to the output log
///   trace on|off|dump|json;  session profiling: `on` records a span for
///                            every traced operator the session runs, `dump`
///                            appends the indented span tree to the output,
///                            `json` appends the JSON export, `off` stops
///                            recording (collected spans are kept)
///   check '<script>';        static analysis only: runs AnalyzeMilScript in
///                            strict mode over the quoted script (in the
///                            session's variable/trace environment, on the
///                            session's shard count and morsel grid) and
///                            appends its findings — or "check: ok" — to the
///                            output without executing anything
///   save '<dir>';            checkpoint the whole catalog into a persistent
///                            store at <dir> (snapshot + WAL rotation)
///   load '<dir>';            replace the catalog with the recovered state
///                            of the store at <dir> (NotFound if none);
///                            session variables bound before the load keep
///                            their old snapshots (value semantics)
///   checkpoint;              checkpoint into the session's attached data
///                            directory (constructor argument or the
///                            COBRA_DATA_DIR environment variable);
///                            FailedPrecondition when neither is set
///   <expr>;                  evaluate for effect
///
/// Expressions:
///   bat("name")                     catalog BAT (copied into the session)
///   persist("name", e)              store a BAT into the catalog
///   new("int"|"dbl"|"str"|"oid")    empty BAT
///   insert(e, head, tail)           append one pair (returns the BAT)
///   select(e, lo, hi)               numeric range select
///   select(e, "s")                  string equality select
///   join(e1, e2) / semijoin(e1, e2) / diff(e1, e2)
///   concat(e1, e2)                  e1 with e2's rows appended
///   reverse(e) / mirror(e) / slice(e, begin, end)
///   group(e)                        dense group ids per row (oid tail, same
///                                   row count as e)
///   sum(e) / max(e) / min(e) / count(e)       scalar aggregates
///   argmax(e)                       position of the max (numeric tails;
///                                   FailedPrecondition on an empty BAT)
///   threadcnt(n)                    degree of parallelism for subsequent
///                                   select/join/aggregate calls (paper
///                                   Fig. 4); n >= 1, returns n
///   shards(n)                       shard count for subsequent select/join/
///                                   aggregate calls: n > 1 partitions the
///                                   operand on the morsel grid and runs the
///                                   scatter-gather exchange operators
///                                   (kernel/shard.h), byte-identical to the
///                                   single-catalog plan; n in [1, 64],
///                                   returns n. While n > 1 the storage
///                                   statements (save/load/checkpoint) are a
///                                   FailedPrecondition — storage of a
///                                   sharded deployment is per-shard
///                                   (ShardedCatalog), not a single
///                                   directory; reset with shards(1)
///   info("name") / info(e)          one-line acceleration report (index
///                                   lifecycle, version, dictionary size);
///                                   the name form inspects the catalog BAT
///                                   in place, so accreted indexes show up
///   numeric literals, "string" literals, variables
class MilSession {
 public:
  /// `data_dir` is the `checkpoint` statement's target; when empty it
  /// defaults to the COBRA_DATA_DIR environment variable (and `checkpoint`
  /// is a FailedPrecondition when neither names a directory).
  explicit MilSession(Catalog* catalog, std::string data_dir = "");
  ~MilSession();

  /// Runs a script; returns the PRINT output (one line per PRINT).
  ///
  /// Every script is parsed once and verified by the analyzer before it
  /// runs: syntax errors (the first one wins, even over an earlier
  /// statement's semantic error), then type, arity, use-before-define, and
  /// catalog errors are rejected with a positioned "mil:LINE:COL: error:
  /// ..." diagnostic BEFORE any operator executes, so a failing script
  /// never leaves partial side effects (no variables assigned, no BATs
  /// persisted, threadcnt unchanged).
  Result<std::string> Execute(const std::string& script);

  /// Reads a session variable (for host code after Execute).
  Result<const MilValue*> Get(const std::string& name) const;

  /// Execution parameters applied to parallelizable operators; threadcnt is
  /// scriptable via `threadcnt(n)` and persists across Execute() calls.
  const ExecContext& exec() const { return exec_; }
  void set_exec(const ExecContext& exec) { exec_ = exec; }

  /// The session's trace sink; null until `trace on` has run. Spans persist
  /// across Execute() calls until the next `trace on`.
  const trace::TraceSink* trace_sink() const { return trace_sink_.get(); }

  /// Filesystem save/load/checkpoint run against; defaults to the real one.
  /// Tests inject MemFs/FaultFs here.
  void set_fs(io::Fs* fs) { fs_ = fs; }
  const std::string& data_dir() const { return data_dir_; }

  /// TEST SEAM — never enable outside tests. Forwards to
  /// ExchangeOptions::unsafe_unordered_merge on every sharded operator this
  /// session runs, skipping the deterministic shard-order merge. The
  /// differential harness proves it can catch the bug class.
  void set_unsafe_unordered_merge(bool unsafe) {
    unsafe_unordered_merge_ = unsafe;
  }

  /// TEST SEAM — disables the analyzer-driven plan rewrites (provably-empty
  /// select skipping the kernel, provably-single-shard select skipping the
  /// scatter) so the differential harness can compare rewritten vs
  /// unrewritten plans byte for byte. Static intervals are still attached
  /// to trace spans.
  void set_disable_static_rewrites(bool disable) {
    disable_static_rewrites_ = disable;
  }

  /// TEST SEAM — never enable outside tests. Forwards
  /// MilAnalysisContext::unsafe_narrow_intervals into the analysis run
  /// before every Execute: static cardinality upper bounds come out too
  /// narrow (unsound). The differential harness's containment walk must
  /// catch this defect.
  void set_unsafe_narrow_intervals(bool unsafe) {
    unsafe_narrow_intervals_ = unsafe;
  }

 private:
  Catalog* catalog_;
  std::map<std::string, MilValue> variables_;
  ExecContext exec_;
  std::unique_ptr<trace::TraceSink> trace_sink_;
  io::Fs* fs_;
  std::string data_dir_;
  /// Store bound to data_dir_, created lazily by the first `checkpoint`.
  std::unique_ptr<PersistentStore> store_;
  bool unsafe_unordered_merge_ = false;
  bool disable_static_rewrites_ = false;
  bool unsafe_narrow_intervals_ = false;
};

/// Environment a MIL script is analyzed against: the catalog its bat()/
/// persist()/info() calls resolve in, the session variables already bound
/// (their static types seed the analysis), and whether `trace on` has
/// already run (so `trace dump` in a later Execute is legal).
struct MilAnalysisContext {
  const Catalog* catalog = nullptr;
  const std::map<std::string, MilValue>* variables = nullptr;
  bool trace_ready = false;
  /// Filesystem `load` existence checks run against; when null the analyzer
  /// assumes every directory exists (conservative: never a false rejection).
  const io::Fs* fs = nullptr;
  /// Whether the session has a data directory attached, so `checkpoint` has
  /// a target. Mirrors MilSession's constructor/COBRA_DATA_DIR state.
  bool data_dir_attached = false;
  /// Shard count in effect when the script starts (the session's
  /// ExecContext::shards). The analyzer tracks `shards(n)` literals from
  /// here; while the statically-known count exceeds 1, storage statements
  /// are positioned FailedPrecondition errors (mirroring the interpreter).
  /// An unknown count (set from a non-literal) passes conservatively.
  int shards = 1;
  /// Strict (`check` statement) mode: stale-snapshot hazards — a variable
  /// bound by bat('x') used after persist('x', ...) replaced the catalog
  /// BAT — are errors. In engine mode they are warnings, because MIL's
  /// value semantics make the read well-defined (merely stale).
  bool strict = false;
  /// Morsel row count of the executing session (ExecContext::MorselRows()).
  /// The abstract interpreter partitions catalog BATs on exactly this grid
  /// when computing per-shard zone maps for single-shard proofs; a mismatch
  /// with the runtime grid only costs precision, never soundness, because
  /// shard facts carry their slice boundaries and the rewrite revalidates
  /// them against the runtime partition before applying.
  size_t morsel_rows = size_t{1} << 16;
  /// TEST SEAM — never enable outside tests. Deliberately unsound: halves
  /// every finite static cardinality upper bound the analyzer derives (and
  /// clamps unbounded ones), so observed row counts can exceed their
  /// interval. Exists to prove the differential harness's containment walk
  /// has teeth.
  bool unsafe_narrow_intervals = false;
};

/// Sentinel for "no static upper bound" in a PlanFact / cardinality
/// interval.
inline constexpr uint64_t kCardUnbounded = ~uint64_t{0};

/// One statically-proven fact about an operator call site, keyed by the
/// 1-based line/column of the call's name token (MIL scripts are
/// straight-line, so a call site executes at most once per run and the key
/// is unambiguous). Produced by the abstract interpreter alongside the
/// diagnostics; consumed by MilSession to attach `static=[lo,hi]` intervals
/// to trace spans and to apply the provable-empty / provable-single-shard
/// rewrites.
struct PlanFact {
  int line = 0;
  int col = 0;
  /// MIL function name at the call site ("select", "join", "group", ...).
  std::string op;
  /// Static cardinality interval of the operator's output rows. Soundness
  /// contract: every execution of this call site over the analyzed catalog
  /// state produces rows_out with rows_lo <= rows_out <= rows_hi.
  uint64_t rows_lo = 0;
  uint64_t rows_hi = kCardUnbounded;
  /// The output is statically proven empty (predicate outside the value
  /// hull, empty input, or a string probe absent from a fully-known
  /// dictionary): execution can skip the operator and return an empty BAT.
  bool provably_empty = false;
  /// When >= 0 and the plan is sharded: every row of the output provably
  /// originates in this shard slice (zone maps of all other slices miss the
  /// predicate), so the scatter can run that one slice serially.
  int single_shard = -1;
  /// Shard count the single_shard proof was computed against; the rewrite
  /// only applies when the runtime partitioning matches.
  size_t single_shard_of = 0;
  /// Global row range [shard_begin, shard_end) of the proven shard slice.
  /// The rewrite revalidates these against the runtime partition before
  /// applying, so a grid mismatch costs precision, never soundness.
  size_t shard_begin = 0;
  size_t shard_end = 0;
};

/// Full result of the abstract interpretation: the diagnostics (exactly
/// AnalyzeMilScript's) plus the per-call-site facts in script order.
struct MilAnalysis {
  DiagnosticList diags;
  std::vector<PlanFact> facts;
};

/// Abstract-interpretation entry point: everything AnalyzeMilScript checks,
/// plus the PlanFact list (static cardinality intervals, provable-empty and
/// single-shard proofs). AnalyzeMilScript is this, minus the facts.
MilAnalysis AnalyzeMilScriptWithFacts(const std::string& script,
                                      const MilAnalysisContext& context);

/// Static "compile-time" verification of a MIL script: infers the static
/// type (number / string / BAT-with-tail-type) of every expression through
/// the script and reports use-before-define, arity and argument-type
/// mismatches, string ops on numeric tails (and vice versa), unknown
/// catalog/function names, out-of-range threadcnt/shards literals, storage
/// statements while the statically-known shard count exceeds 1, trace-state
/// violations, and aggregate calls on provably empty BATs — each with the
/// 1-based line/column of the offending token and the StatusCode execution
/// would have failed with. Conservative by construction: anything whose
/// type or value is not statically known passes, so a script the
/// interpreter would execute successfully is never rejected.
DiagnosticList AnalyzeMilScript(const std::string& script,
                                const MilAnalysisContext& context);

}  // namespace cobra::kernel

#endif  // COBRA_KERNEL_MIL_H_
