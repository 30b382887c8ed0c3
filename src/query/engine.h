#ifndef COBRA_QUERY_ENGINE_H_
#define COBRA_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/io.h"
#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "cobra/video_model.h"
#include "extensions/extension.h"
#include "kernel/exec_context.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "query/snapshot.h"

namespace cobra::query {

/// Result of a query: matching event-layer segments plus preprocessor
/// diagnostics (which methods ran, and whether extraction happened
/// dynamically at query time).
struct QueryResult {
  std::vector<model::EventRecord> segments;
  /// Extensions invoked by the preprocessor (empty when metadata existed).
  std::vector<std::string> methods_invoked;
  bool extracted_dynamically = false;
  /// True when the segments were served from the engine's result cache —
  /// neither dynamic extraction nor algebra evaluation ran.
  bool cache_hit = false;
  /// Set for PROFILE queries only: the span tree of this execution, as the
  /// indented text rendering and the stable-schema JSON export. A cache hit
  /// yields a minimal tree whose root is marked from_cache — the timings of
  /// the original (cached) execution are never replayed.
  std::string profile_text;
  std::string profile_json;
  /// Outcome line of a PERSIST/RECOVER storage command, or — for a sharded
  /// snapshot read — the epoch-vector stamp of the read set ("shards=N
  /// epochs=[...] coherent=..."). Empty for unsharded retrieval queries.
  std::string info;
  /// Non-zero for a WATCH query: the id the continuous-query host assigned
  /// to the registered watch. `segments` is empty — matches arrive as
  /// notifications, not as a one-shot result.
  uint64_t watch_id = 0;
};

/// Counters of the engine's extraction/result cache.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;  // capacity-driven only (not staleness drops)
  size_t entries = 0;
  size_t capacity = 0;
};

/// The front every read-only entry point shares (ExecuteSnapshot(text) and
/// the query server): a storage command (PERSIST/RECOVER) is a write and is
/// rejected with FailedPrecondition; anything else is parsed, once.
Result<QueryAnalysis> ParseReadOnlyQuery(const std::string& text);

/// The conceptual layer: parses a retrieval query, runs the query
/// preprocessor (checks whether the required metadata exists; when it does
/// not, picks an extraction method by the cost/quality model and invokes the
/// extension to populate it — the paper's dynamic feature/semantic
/// extraction), then evaluates the algebra over the event layer.
class QueryEngine {
 public:
  /// `data_dir` is the default target of the PERSIST/RECOVER storage
  /// commands; when empty it falls back to the COBRA_DATA_DIR environment
  /// variable (and a dir-less PERSIST is a FailedPrecondition when neither
  /// is set).
  QueryEngine(model::VideoCatalog* catalog,
              extensions::ExtensionRegistry* registry,
              std::string data_dir = "");
  ~QueryEngine();

  /// Parses and executes a query string. Two storage commands are
  /// dispatched ahead of the retrieval grammar:
  ///
  ///   PERSIST [INTO '<dir>']   checkpoint the catalog — BAT image plus the
  ///                            video-model state — into the store at <dir>
  ///   RECOVER [FROM '<dir>']   replace the catalog with the store's
  ///                            recovered state; the result cache is
  ///                            cleared and acceleration indexes rebuild
  ///                            lazily (neither is ever serialized)
  ///
  /// Both report via QueryResult::info and return no segments.
  Result<QueryResult> Execute(const std::string& query_text);

  /// Executes an already-parsed query.
  Result<QueryResult> Execute(const ParsedQuery& query);

  /// Read-only execution over `surface` — a pinned CatalogSnapshot or a
  /// ShardedSnapshotSet; the serving layer's read path. Same grammar, same
  /// algebra, same span shapes as the live path, with two deliberate
  /// differences:
  ///
  ///   * no result cache (a snapshot read is versioned by its epoch; the
  ///     shared cache is keyed by live state), matching the span shape of a
  ///     live engine with cache capacity 0;
  ///   * no dynamic extraction (a snapshot is immutable): a type with no
  ///     metadata in the snapshot but a registered provider fails with a
  ///     typed FailedPrecondition pointing at the live read-write path.
  ///
  /// A sharded set reads the shard owning the plan's video (a name no shard
  /// holds routes to shard 0, for a NotFound byte-identical to the
  /// single-catalog deployment) and stamps QueryResult::info with the read
  /// set's epoch vector ("shards=N epochs=[...] coherent=..."), so a
  /// response states the exact per-shard cut it was served from;
  /// InvalidArgument when the set is empty.
  ///
  /// The text form rejects storage commands (ParseReadOnlyQuery). Const and
  /// lock-free over catalog state: any number of threads may call this
  /// concurrently with a mutating writer.
  Result<QueryResult> ExecuteSnapshot(const std::string& query_text,
                                      const ReadSurface& surface) const;
  /// Parsed form under an explicit context: the caller owns tracing
  /// (PROFILE/EXPLAIN/WATCH flags are not interpreted — the server nests
  /// query spans under its own request span and exports the profile
  /// itself).
  Result<QueryResult> ExecuteSnapshot(const ParsedQuery& query,
                                      const ReadSurface& surface,
                                      const kernel::ExecContext& exec) const;

  /// EXPLAIN: the plan analyzer's static report, built from catalog facts
  /// only — per-operator cardinality intervals `static=[lo,hi]` (hi `*`
  /// when dynamic extraction makes the bound unknowable), positioned
  /// dead-predicate warnings, and a provably-empty note when the hull
  /// proves zero result rows. NOTHING executes: no extraction, no result
  /// cache, no algebra; `segments` is always empty and the report rides in
  /// QueryResult::profile_text (with a stable-schema JSON rendering in
  /// profile_json). `sites` — from the parse's QueryAnalysis — anchors each
  /// warning at its predicate's line:column; pass {} when the query did not
  /// come from text (warnings are then unpositioned but otherwise
  /// identical). For identical catalog state the report is byte-identical
  /// over every surface — the parity the server tests pin across
  /// transports; a sharded surface also gets the epoch stamp.
  Result<QueryResult> ExecuteExplain(const ParsedQuery& query,
                                     const std::vector<AttrSite>& sites,
                                     const ReadSurface& surface) const;

  /// Execution parameters for the evaluator: pattern filtering and the
  /// temporal join run morsel-parallel over the event lists past the serial
  /// cutoff. Defaults to the serial context.
  const kernel::ExecContext& exec() const { return exec_; }
  void set_exec(const kernel::ExecContext& exec) { exec_ = exec; }

  /// LRU result cache keyed by (video, event type, normalized predicate,
  /// temporal clause, preference). Entries record the VideoCatalog event
  /// version at store time; any event-layer mutation invalidates stale
  /// entries transparently on the next lookup. Capacity 0 disables caching.
  /// All cache bookkeeping is guarded by `cache_mu_`, so concurrent
  /// Execute() calls share the cache safely.
  CacheStats cache_stats() const COBRA_EXCLUDES(cache_mu_);
  size_t cache_capacity() const COBRA_EXCLUDES(cache_mu_);
  void set_cache_capacity(size_t capacity) COBRA_EXCLUDES(cache_mu_);
  void ClearCache() COBRA_EXCLUDES(cache_mu_);

  /// Filesystem the storage commands run against; defaults to the real
  /// one. Tests inject MemFs/FaultFs here (before the first command).
  void set_fs(io::Fs* fs) { fs_ = fs; }
  const std::string& data_dir() const { return data_dir_; }

  /// Hook a continuous-query host (query/continuous.h, installed by the
  /// query server) uses to receive WATCH queries: Execute(text) hands the
  /// parse of a WATCH text here and reports the returned id as
  /// QueryResult::watch_id. With no handler installed a WATCH query is a
  /// FailedPrecondition. Not thread-safe: install before serving queries.
  using WatchHandler = std::function<Result<uint64_t>(const QueryAnalysis&)>;
  void set_watch_handler(WatchHandler handler) {
    watch_handler_ = std::move(handler);
  }

 private:
  /// WATCH refusal, EXPLAIN, and PROFILE's private sink around Run — shared
  /// by the live (`live`) and read-only entry points.
  Result<QueryResult> Dispatch(const ParsedQuery& query,
                               const std::vector<AttrSite>& sites,
                               const ReadSurface& surface, bool live) const;

  /// The one execution body: resolve the surface → `query.execute` span →
  /// `query.verify` → (live only) result cache → EvaluateOver. PROFILE runs
  /// pass a context with a fresh trace sink; plain runs pass exec_ through
  /// unchanged (which may itself carry a host-installed sink).
  Result<QueryResult> Run(const ParsedQuery& query, const ReadSurface& surface,
                          const kernel::ExecContext& exec, bool live) const;

  /// Find video → preprocess (ensure availability) → read + filter →
  /// optional secondary preprocess/filter + temporal semijoin. Returns the
  /// matching segments; `version_at_read` receives the source's event
  /// version sampled after the primary preprocess (the live path's
  /// cache-entry version; see CacheStore).
  Result<std::vector<model::EventRecord>> EvaluateOver(
      const ParsedQuery& query, const kernel::ExecContext& qctx,
      const ReadSurface& source, bool live, QueryResult* result,
      uint64_t* version_at_read) const;

  /// Preprocessor step: ensures events of `type` exist for `video`. When
  /// missing, the live path extracts them dynamically (provider chosen per
  /// `preference`); a read-only path fails the way VerifyPlan predicted or
  /// with a typed FailedPrecondition when only extraction could help.
  Status Ensure(const ReadSurface& source, bool live, model::VideoId video,
                const std::string& type, MethodPreference preference,
                QueryResult* result) const;

  /// Attribute filters (case-insensitive value comparison).
  static bool MatchesPattern(const model::EventRecord& event,
                             const EventPattern& pattern);

  /// Temporal-join predicate between a primary and secondary interval.
  static bool TemporalMatch(TemporalOp op, const model::EventRecord& primary,
                            const model::EventRecord& secondary);

  /// Deterministic serialization of a parsed query — the predicate is
  /// already normalized by the parser (uppercased values, sorted attr map).
  static std::string CacheKey(const ParsedQuery& query);

  /// Cache lookup outcome; kHit fills `segments`.
  enum class CacheOutcome { kDisabled, kHit, kStale, kMiss };

  /// Single locked lookup: promotes and copies out on a fresh hit, drops a
  /// stale entry, counts hit/miss.
  CacheOutcome CacheLookup(const std::string& key,
                           std::vector<model::EventRecord>* segments) const
      COBRA_EXCLUDES(cache_mu_);

  /// Stores a computed result under `event_version` — the catalog version
  /// captured when the event lists were read, so an entry computed against
  /// state a concurrent writer has since replaced stores as already-stale
  /// (re-evaluated on the next lookup), never as wrongly fresh. Evicts past
  /// capacity.
  void CacheStore(const std::string& key,
                  const std::vector<model::EventRecord>& segments,
                  uint64_t event_version) const COBRA_EXCLUDES(cache_mu_);

  /// `PERSIST [INTO '<dir>']` / `RECOVER [FROM '<dir>']`; `rest` is the
  /// command text after the verb.
  Result<QueryResult> ExecuteStorageCommand(bool persist,
                                            std::string_view rest);
  /// Opens (or re-targets) the engine's store and attaches it to the model
  /// and kernel catalogs.
  Result<kernel::PersistentStore*> EnsureStore(const std::string& dir);

  model::VideoCatalog* catalog_;
  extensions::ExtensionRegistry* registry_;
  kernel::ExecContext exec_;
  io::Fs* fs_;
  std::string data_dir_;
  /// Store bound to the last PERSIST/RECOVER target, created lazily.
  std::unique_ptr<kernel::PersistentStore> store_;
  WatchHandler watch_handler_;

  struct CacheEntry {
    std::string key;
    std::vector<model::EventRecord> segments;
    uint64_t event_version = 0;
  };
  /// Evicts the LRU tail until the cache fits `capacity`.
  void EvictToCapacity(size_t capacity) const COBRA_REQUIRES(cache_mu_);

  /// The cache is live-only state behind the const execution body (only
  /// the live entry points run it with `live`), hence mutable.
  mutable Mutex cache_mu_;
  // front = MRU
  mutable std::list<CacheEntry> lru_ COBRA_GUARDED_BY(cache_mu_);
  mutable std::unordered_map<std::string, std::list<CacheEntry>::iterator>
      cache_map_ COBRA_GUARDED_BY(cache_mu_);
  size_t cache_capacity_ COBRA_GUARDED_BY(cache_mu_) = 64;
  mutable uint64_t cache_hits_ COBRA_GUARDED_BY(cache_mu_) = 0;
  mutable uint64_t cache_misses_ COBRA_GUARDED_BY(cache_mu_) = 0;
  mutable uint64_t cache_evictions_ COBRA_GUARDED_BY(cache_mu_) = 0;
};

}  // namespace cobra::query

#endif  // COBRA_QUERY_ENGINE_H_
