#ifndef COBRA_COBRA_VIDEO_MODEL_H_
#define COBRA_COBRA_VIDEO_MODEL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "kernel/catalog.h"
#include "moa/moa.h"
#include "rules/engine.h"

namespace cobra::model {

using VideoId = kernel::Oid;

/// Raw layer: one registered video source.
struct VideoDescriptor {
  VideoId id = 0;
  std::string name;
  double duration_sec = 0.0;
  double fps = 25.0;
};

/// Event layer record: a semantic occurrence within a video. `attrs` carries
/// domain attributes (driver name, caption kind, ...).
struct EventRecord {
  std::string type;
  double begin_sec = 0.0;
  double end_sec = 0.0;
  double confidence = 1.0;
  std::map<std::string, std::string> attrs;
};

/// Object layer record: a prominent spatial entity (driver, car, ...).
struct ObjectRecord {
  std::string cls;   // e.g. "driver"
  std::string name;  // e.g. "SCHUMACHER"
  std::map<std::string, std::string> attrs;
};

/// The Cobra video data model [15]: four layers — raw data, features,
/// objects, events — persisted via the Moa/kernel stack so that metadata is
/// ordinary database content that queries (and the preprocessor's
/// availability checks) can reach. Features are per-0.1 s-clip time series;
/// events are attributed intervals.
///
/// Thread-safe for concurrent readers against writers: the layer mirrors
/// and the event version are guarded by an internal mutex (the kernel
/// catalog beneath has its own), so query threads may read while a writer
/// stores events and checkpoints. Model mutations and Checkpoint take a
/// writer lock, which readers never take.
class VideoCatalog {
 public:
  explicit VideoCatalog(kernel::Catalog* catalog);

  // -- Raw layer ---------------------------------------------------------

  Result<VideoId> RegisterVideo(const std::string& name, double duration_sec,
                                double fps = 25.0);
  Result<VideoDescriptor> GetVideo(VideoId id) const;
  Result<VideoDescriptor> FindVideo(const std::string& name) const;
  std::vector<VideoDescriptor> Videos() const;

  // -- Feature layer -------------------------------------------------------

  /// Stores a named per-clip feature series (overwrites a previous one).
  Status StoreFeatureSeries(VideoId video, const std::string& feature,
                            const std::vector<double>& values);
  Result<std::vector<double>> LoadFeatureSeries(
      VideoId video, const std::string& feature) const;
  bool HasFeature(VideoId video, const std::string& feature) const;
  std::vector<std::string> FeatureNames(VideoId video) const;

  // -- Object layer -------------------------------------------------------

  Status StoreObject(VideoId video, const ObjectRecord& object);
  Result<std::vector<ObjectRecord>> Objects(VideoId video,
                                            const std::string& cls) const;

  // -- Event layer --------------------------------------------------------

  Status StoreEvent(VideoId video, const EventRecord& event);
  Status StoreEvents(VideoId video, const std::vector<EventRecord>& events);
  /// Events of a type (empty type = all), sorted by begin time.
  Result<std::vector<EventRecord>> Events(VideoId video,
                                          const std::string& type = "") const;
  bool HasEvents(VideoId video, const std::string& type) const;
  /// Drops all events of a type (used before re-extraction).
  Status DropEvents(VideoId video, const std::string& type);

  /// Monotonic counter bumped by every event-layer mutation (StoreEvent,
  /// StoreEvents, DropEvents). The query layer's result cache records it
  /// per entry, so any event change invalidates stale cached results.
  uint64_t event_version() const COBRA_EXCLUDES(mu_);

  /// Monotonic counter bumped by EVERY model mutation (RegisterVideo,
  /// StoreFeatureSeries, StoreObject, and all event-layer mutations) — the
  /// staleness signal for snapshot publication. Lock-free read, so heavy
  /// read traffic polling it never contends with a writer.
  uint64_t model_version() const {
    return model_version_.load(std::memory_order_acquire);
  }

  // -- Snapshot capture ----------------------------------------------------

  /// A point-in-time copy of everything a retrieval query reads, taken
  /// atomically under the model mutex: the raw layer (videos), the event
  /// layer, and the versions that state corresponds to. The query layer's
  /// SnapshotManager wraps this in epoch-pinned immutable snapshots so
  /// readers never touch the live mirrors (or this catalog's mutex) again.
  struct SnapshotState {
    uint64_t event_version = 0;
    uint64_t model_version = 0;
    std::vector<VideoDescriptor> videos;
    std::map<VideoId, std::vector<EventRecord>> events;
  };

  /// Copies the queryable state and its versions under one lock acquisition,
  /// so the returned versions exactly describe the returned data (a
  /// concurrent writer lands entirely before or entirely after the capture,
  /// never inside it).
  SnapshotState CaptureSnapshotState() const COBRA_EXCLUDES(mu_);

  // -- Durability ---------------------------------------------------------

  /// Attaches a persistent store: every model mutation (RegisterVideo,
  /// StoreFeatureSeries, StoreObject, StoreEvent, DropEvents) is WAL-logged
  /// as an opaque kModel record — fsync'd before this layer's state is
  /// considered committed — so work done after the last checkpoint survives
  /// a crash. Event-layer records carry the bumped event version, so the
  /// cache-invalidation counter recovers too. Pass null to detach; the
  /// store must outlive the attachment.
  void AttachStore(kernel::PersistentStore* store) COBRA_EXCLUDES(mu_);

  /// Re-executes one WAL-replayed kModel record (as handed back in
  /// RecoveryInfo::model_records) on top of the restored snapshot state.
  /// Replay is deterministic: records are applied in commit order and oid
  /// allocation resumes from the snapshot's serialized cursor, so ids come
  /// out identical to the original run. Mutations are not re-logged while a
  /// record is being applied.
  Status ApplyModelRecord(const std::string& record) COBRA_EXCLUDES(mu_);

  /// Serializes the model mirrors (videos, feature/object/event indexes,
  /// event version, next Moa oid) — the opaque `extra` payload a checkpoint
  /// carries alongside the BAT image.
  std::string SerializeState() const COBRA_EXCLUDES(mu_);

  /// Checkpoints the kernel catalog's BAT image plus SerializeState() into
  /// `store` as one cut. Model mutations write kernel BATs before their
  /// mirrors, so they wait for the checkpoint (and it for them); readers
  /// never take that lock and never wait.
  Status Checkpoint(kernel::PersistentStore* store)
      COBRA_EXCLUDES(write_mu_, mu_);

  /// Replaces the mirrors with a SerializeState image (as returned in
  /// RecoveryInfo::extra). `wal_event_version` is the newest replayed
  /// kEventVersion record; the restored counter is the max of the two, so a
  /// result cached before the crash can never read as fresh afterwards.
  Status RestoreState(const std::string& payload, uint64_t wal_event_version)
      COBRA_EXCLUDES(mu_);

  /// Bridges the event layer to the rule engine.
  static rules::EventFact ToFact(const EventRecord& event);
  static EventRecord FromFact(const rules::EventFact& fact);

  moa::MoaSession& session() { return session_; }

 private:
  std::string FeatureBatName(VideoId video, const std::string& feature) const;

  kernel::Catalog* catalog_;
  moa::MoaSession session_;

  /// Held by every model mutation for its whole body and by Checkpoint:
  /// one writer at a time over the BATs and the mirrors. Taken before mu_.
  Mutex write_mu_;
  mutable Mutex mu_;
  std::vector<VideoDescriptor> videos_ COBRA_GUARDED_BY(mu_);
  // Event storage: in-memory index mirroring the BAT-backed store.
  std::map<VideoId, std::vector<EventRecord>> events_ COBRA_GUARDED_BY(mu_);
  std::map<VideoId, std::vector<ObjectRecord>> objects_ COBRA_GUARDED_BY(mu_);
  std::map<VideoId, std::vector<std::string>> feature_names_
      COBRA_GUARDED_BY(mu_);
  uint64_t event_version_ COBRA_GUARDED_BY(mu_) = 0;
  /// Bumped (under mu_) by every model mutation; read lock-free.
  std::atomic<uint64_t> model_version_{0};
  /// WAL target for model mutation records; null when durability is off.
  kernel::PersistentStore* store_ COBRA_GUARDED_BY(mu_) = nullptr;
  /// True while ApplyModelRecord re-executes a replayed mutation, which must
  /// not be logged again.
  bool replaying_ COBRA_GUARDED_BY(mu_) = false;
};

}  // namespace cobra::model

#endif  // COBRA_COBRA_VIDEO_MODEL_H_
