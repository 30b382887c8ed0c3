#ifndef COBRA_QUERY_CONTINUOUS_H_
#define COBRA_QUERY_CONTINUOUS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "cobra/video_model.h"
#include "kernel/catalog.h"
#include "query/engine.h"
#include "query/parser.h"
#include "query/snapshot.h"

namespace cobra::query {

/// One match delivered by a registered watch. The stream of notifications a
/// watch emits is a deterministic function of the event-write history alone
/// — batch boundaries, pump timing, and WINDOW bounds never change it
/// (that's the invariance the streaming differential harness pins): every
/// segment is reported exactly once, in the order evaluation first saw it
/// (snapshots list events begin-sorted), regardless of how the writes were
/// batched.
struct WatchNotification {
  uint64_t watch_id = 0;
  /// 1-based per-watch sequence number (gap-free; the duplicate/loss check
  /// of the recovery tests).
  uint64_t seq = 0;
  /// Snapshot identity the match was found at.
  uint64_t epoch = 0;
  uint64_t version = 0;
  model::EventRecord segment;
};

/// Registry and incremental evaluator of `WATCH` continuous queries — the
/// MavVStream-style standing-query layer over the existing snapshot-read
/// engine. The host (the query server) installs it as the engine's watch
/// handler and calls Pump() after every appended batch; each pump evaluates
/// the registered watches over ONE epoch-pinned snapshot and emits a
/// notification for every segment not already reported.
///
/// Per-pump work is bounded by a cheap append-only gate: a watch re-runs
/// its RETRIEVE body only when the event history moved AND the gate cannot
/// prove the new writes are appends that leave the watch's own event-type
/// cardinalities unchanged. The gate reads the kernel `event.type` column
/// through the probe-only `Bat::CountEq` — served by the incrementally
/// maintained hash index under streaming ingestion, so the common "batch of
/// foreign-type events" case skips the evaluator without scanning. Any
/// non-append mutation (e.g. DropEvents) fails the size-delta check and
/// forces a full evaluation — the gate is an optimization, never a
/// soundness assumption.
///
/// WINDOW bounds only the *standing view* (Standing()): segments whose end
/// lies within the trailing window of the newest end seen. Notifications
/// are never window-filtered — a windowed stream would depend on batch
/// timing, breaking the differential guarantee above.
///
/// Not thread-safe: the host serializes registration, pumps, and cursor
/// calls with its writer domain (readers never touch the manager).
class ContinuousQueryManager {
 public:
  struct Stats {
    uint64_t registered = 0;     // watches ever registered
    uint64_t evals = 0;          // RETRIEVE bodies executed
    uint64_t skipped_evals = 0;  // pumps gated out (version or count gate)
    uint64_t notifications = 0;
    uint64_t eval_errors = 0;  // swallowed evaluation failures (pre-data)
  };

  /// `engine` and `snapshots` must outlive the manager. `kernel` enables
  /// the count gate (pass the engine's kernel catalog); null disables
  /// gating — every pump with a moved version evaluates.
  ContinuousQueryManager(const QueryEngine* engine, SnapshotManager* snapshots,
                         kernel::Catalog* kernel = nullptr);

  /// Installs this manager as `engine`'s watch handler (engine must be the
  /// construction engine).
  void Attach(QueryEngine* engine);

  /// Registers the parse of a WATCH query. The video must already be
  /// registered — the failure is positioned at the query's video token
  /// ("query:L:C: error: no video named ..."); the watched event *types*
  /// need not exist yet (a watch waits for future data). Returns the
  /// 1-based watch id.
  Result<uint64_t> Register(const QueryAnalysis& analysis);
  /// Parse + Register. How a non-server host registers from text.
  Result<uint64_t> RegisterText(const std::string& text);

  Status Unregister(uint64_t id);

  /// Evaluates every watch against one freshly pinned snapshot, appending
  /// new matches to `out`. The `ctx` overload parents `watch.eval` spans
  /// under the caller's trace.
  Status Pump(std::vector<WatchNotification>* out);
  Status Pump(const kernel::ExecContext& ctx,
              std::vector<WatchNotification>* out);
  /// Same against a caller-pinned snapshot (the sharded path pumps each
  /// shard's owning snapshot).
  Status PumpOver(const CatalogSnapshot& snap, const kernel::ExecContext& ctx,
                  std::vector<WatchNotification>* out);

  /// The watch's standing view at its last evaluation: all matched
  /// segments, window-filtered when the watch carries WINDOW (segments with
  /// end_sec >= newest end seen - window), begin-sorted.
  Result<std::vector<model::EventRecord>> Standing(uint64_t id) const;

  /// Serializes every watch — definition, sequence counter, and the set of
  /// already-reported segments — so a host can re-register after RECOVER
  /// without duplicating or losing notifications. RestoreCursors replaces
  /// the current registry.
  std::string SerializeCursors() const;
  Status RestoreCursors(const std::string& payload);

  size_t watch_count() const { return watches_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Watch {
    uint64_t id = 0;
    /// The RETRIEVE body (watch/profile/explain flags stripped).
    ParsedQuery inner;
    double window_sec = 0.0;
    uint64_t seq = 0;
    /// event_version of the last snapshot evaluated (or gate-skipped).
    uint64_t last_version = 0;
    bool evaluated_once = false;
    /// Gate state at last_version: kernel `event.type` rows and this
    /// watch's per-type cardinalities.
    uint64_t last_type_rows = 0;
    uint64_t last_primary_count = 0;
    uint64_t last_secondary_count = 0;
    /// Canonical keys of every segment already notified.
    std::set<std::string> seen;
    /// Newest segment end observed — the WINDOW watermark.
    double watermark = 0.0;
    /// Segments of the last successful evaluation (the standing view).
    std::vector<model::EventRecord> last_segments;
  };

  /// Whether the gate proves the history move [w.last_version,
  /// snap.event_version()] cannot change this watch's result set.
  bool GateSkips(const Watch& w, const CatalogSnapshot& snap,
                 uint64_t* type_rows, uint64_t* primary_count,
                 uint64_t* secondary_count) const;
  Status PumpWatch(Watch* w, const CatalogSnapshot& snap,
                   const kernel::ExecContext& ctx,
                   std::vector<WatchNotification>* out);
  /// Canonical text form of a watch (re-parses to an equivalent query) —
  /// the cursor serialization of its definition.
  static std::string CanonicalText(const Watch& w);
  static std::string SegmentKey(const model::EventRecord& e);

  const QueryEngine* engine_;
  SnapshotManager* snapshots_;
  kernel::Catalog* kernel_;
  std::map<uint64_t, Watch> watches_;
  uint64_t next_id_ = 1;
  Stats stats_;
};

}  // namespace cobra::query

#endif  // COBRA_QUERY_CONTINUOUS_H_
