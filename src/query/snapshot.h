#ifndef COBRA_QUERY_SNAPSHOT_H_
#define COBRA_QUERY_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "cobra/video_model.h"
#include "kernel/catalog.h"

namespace cobra::query {

/// An immutable point-in-time image of everything a retrieval query reads:
/// the raw layer (video descriptors) and the event layer, stamped with the
/// versions the image corresponds to. Once published it is never mutated —
/// any number of readers may evaluate against it concurrently without a
/// lock, while the live catalog keeps ingesting and checkpointing.
class CatalogSnapshot {
 public:
  CatalogSnapshot(uint64_t epoch, model::VideoCatalog::SnapshotState state,
                  uint64_t kernel_version, uint64_t checkpoint_lsn,
                  uint64_t last_lsn)
      : epoch_(epoch),
        state_(std::move(state)),
        kernel_version_(kernel_version),
        checkpoint_lsn_(checkpoint_lsn),
        last_lsn_(last_lsn) {}

  CatalogSnapshot(const CatalogSnapshot&) = delete;
  CatalogSnapshot& operator=(const CatalogSnapshot&) = delete;

  /// Publication counter of the owning SnapshotManager (1-based; each
  /// publication bumps it). The identity a server response claims.
  uint64_t epoch() const { return epoch_; }
  /// VideoCatalog::event_version at capture — the position in the event
  /// write history this image is exact at (the replay key of the
  /// consistency harness).
  uint64_t event_version() const { return state_.event_version; }
  /// VideoCatalog::model_version at capture (staleness signal).
  uint64_t model_version() const { return state_.model_version; }
  /// kernel::Catalog::version at capture (BAT namespace mutations).
  uint64_t kernel_version() const { return kernel_version_; }
  /// LSN handshake with the WAL store at capture: the newest durable
  /// checkpoint generation and log sequence number (0/0 when no store was
  /// attached). Lets a response state the durability point its data had.
  uint64_t checkpoint_lsn() const { return checkpoint_lsn_; }
  uint64_t last_lsn() const { return last_lsn_; }

  // -- The read surface (mirrors VideoCatalog's query API exactly) ---------

  Result<model::VideoDescriptor> FindVideo(const std::string& name) const;
  /// Events of a type (empty = all), sorted by begin time — byte-identical
  /// to VideoCatalog::Events over the same state.
  std::vector<model::EventRecord> Events(model::VideoId video,
                                         const std::string& type) const;
  bool HasEvents(model::VideoId video, const std::string& type) const;
  const std::vector<model::VideoDescriptor>& videos() const {
    return state_.videos;
  }

 private:
  const uint64_t epoch_;
  const model::VideoCatalog::SnapshotState state_;
  const uint64_t kernel_version_;
  const uint64_t checkpoint_lsn_;
  const uint64_t last_lsn_;
};

/// Publishes immutable CatalogSnapshots of a live VideoCatalog and hands
/// them to readers under epoch-counted pins — the serving layer's
/// snapshot-isolation mechanism:
///
///   * Acquire() checks staleness with two lock-free version loads
///     (model_version of the VideoCatalog, version of the kernel Catalog);
///     when the published snapshot is current this is one mutex hop and no
///     contact with the catalog locks at all, so heavy read traffic never
///     blocks an ingesting or checkpointing writer.
///   * When stale, the next Acquire() captures a fresh image atomically
///     (VideoCatalog::CaptureSnapshotState — one model-lock acquisition) and
///     publishes it under the next epoch. Readers already holding pins keep
///     their old epoch untouched.
///   * Reclamation is epoch/pin-counted: a superseded snapshot is destroyed
///     exactly when its pin count reaches zero — never while any reader
///     holds it (stats() exposes the published/reclaimed/pinned counters the
///     tests pin down).
class SnapshotManager {
 public:
  /// Both catalogs must outlive the manager. `kernel` may be null when only
  /// model-layer state is served (kernel_version then reads as 0).
  SnapshotManager(model::VideoCatalog* videos, kernel::Catalog* kernel);
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// A pinned snapshot: RAII over the epoch pin count. Movable; the
  /// snapshot stays valid (and is never reclaimed) until the last Pin on
  /// its epoch is destroyed.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept;
    Pin& operator=(Pin&& other) noexcept;
    ~Pin();

    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    bool valid() const { return snapshot_ != nullptr; }
    const CatalogSnapshot& operator*() const { return *snapshot_; }
    const CatalogSnapshot* operator->() const { return snapshot_.get(); }
    const CatalogSnapshot* get() const { return snapshot_.get(); }

   private:
    friend class SnapshotManager;
    Pin(SnapshotManager* manager,
        std::shared_ptr<const CatalogSnapshot> snapshot)
        : manager_(manager), snapshot_(std::move(snapshot)) {}

    SnapshotManager* manager_ = nullptr;
    std::shared_ptr<const CatalogSnapshot> snapshot_;
  };

  /// Pins the current snapshot, publishing a fresh one first when the live
  /// catalog has moved. Never returns an invalid Pin.
  Pin Acquire() COBRA_EXCLUDES(mu_);

  /// Forces the staleness check now (e.g. after a bulk load, so the first
  /// query does not pay the capture).
  void Refresh() COBRA_EXCLUDES(mu_);

  struct Stats {
    uint64_t current_epoch = 0;  // 0 until the first publication
    uint64_t published = 0;      // snapshots ever published
    uint64_t reclaimed = 0;      // superseded snapshots destroyed
    size_t live_epochs = 0;      // published and not yet reclaimed
    uint64_t pinned_readers = 0;       // outstanding Pins over all epochs
    uint64_t oldest_pinned_epoch = 0;  // 0 when nothing is pinned
  };
  Stats stats() const COBRA_EXCLUDES(mu_);

 private:
  struct EpochEntry {
    std::shared_ptr<const CatalogSnapshot> snapshot;
    uint64_t pins = 0;
  };

  /// Publishes a fresh snapshot when the live versions moved; reclaims the
  /// superseded epoch if unpinned.
  void RefreshLocked() COBRA_REQUIRES(mu_);
  /// Drops `epoch`'s pin; reclaims the entry when superseded and unpinned.
  void Unpin(uint64_t epoch) COBRA_EXCLUDES(mu_);
  /// Erases every superseded entry whose pin count is zero.
  void ReclaimLocked() COBRA_REQUIRES(mu_);

  model::VideoCatalog* const videos_;
  kernel::Catalog* const kernel_;

  mutable Mutex mu_;
  std::map<uint64_t, EpochEntry> epochs_ COBRA_GUARDED_BY(mu_);
  uint64_t current_epoch_ COBRA_GUARDED_BY(mu_) = 0;
  uint64_t published_ COBRA_GUARDED_BY(mu_) = 0;
  uint64_t reclaimed_ COBRA_GUARDED_BY(mu_) = 0;
};

/// One pinned CatalogSnapshot per shard of a sharded deployment, stamped
/// with the epoch vector the pins were taken at — the read set a sharded
/// scatter-gather query executes over. Each shard's snapshot is individually
/// immutable and snapshot-isolated; the set additionally records whether the
/// acquisition converged to a *coherent* cross-shard cut (no shard published
/// a newer epoch while the other pins were being taken). Movable, not
/// copyable (it owns the pins).
class ShardedSnapshotSet {
 public:
  ShardedSnapshotSet() = default;
  ShardedSnapshotSet(ShardedSnapshotSet&&) = default;
  ShardedSnapshotSet& operator=(ShardedSnapshotSet&&) = default;

  size_t size() const { return pins_.size(); }
  bool empty() const { return pins_.empty(); }
  const CatalogSnapshot& shard(size_t k) const { return *pins_[k]; }

  /// Epoch of each shard's pinned snapshot, in shard order — the identity a
  /// sharded response claims (stamped into QueryResult::info).
  const std::vector<uint64_t>& epochs() const { return epochs_; }

  /// Whether the bounded acquisition loop observed every shard still at its
  /// pinned epoch after all pins were taken. False means some shard kept
  /// publishing during acquisition; each pin is still a valid isolated
  /// snapshot, but the vector is not a single cross-shard instant.
  bool coherent() const { return coherent_; }

  /// Shard whose snapshot holds `video`. Falls back to shard 0 when no
  /// shard holds it, so the NotFound diagnostic the plan verifier and the
  /// engine raise is byte-identical to the single-catalog deployment's.
  size_t OwnerOf(const std::string& video) const;

  /// One-line stamp of the read set, e.g.
  /// "shards=2 epochs=[3,5] coherent=true".
  std::string EpochStamp() const;

 private:
  friend Result<ShardedSnapshotSet> AcquireShardedSnapshots(
      const std::vector<SnapshotManager*>& managers);

  std::vector<SnapshotManager::Pin> pins_;
  std::vector<uint64_t> epochs_;
  bool coherent_ = true;
};

/// The one surface a plan reads through: the live catalog, one immutable
/// CatalogSnapshot, or a ShardedSnapshotSet. It converts implicitly from
/// each, so plan verification, EXPLAIN and evaluation take one parameter
/// type whatever the deployment. A sharded set must be resolved to the shard
/// owning the plan's video before it is read; Resolve() is the one place
/// that routing is written. Non-owning: what it refers to must outlive it.
class ReadSurface {
 public:
  ReadSurface(const model::VideoCatalog& live) : live_(&live) {}  // NOLINT
  ReadSurface(const CatalogSnapshot& snapshot)  // NOLINT
      : snapshot_(&snapshot) {}
  ReadSurface(const ShardedSnapshotSet& shards)  // NOLINT
      : shards_(&shards) {}

  /// A sharded set becomes the snapshot of the shard owning `video` (shard
  /// 0 when none does, so the NotFound is byte-identical to the
  /// single-catalog deployment's) and keeps the set for EpochStamp();
  /// InvalidArgument when the set is empty. Any other surface is returned
  /// as is.
  Result<ReadSurface> Resolve(const std::string& video) const;

  /// The read set's epoch-vector stamp for a sharded surface, else "".
  std::string EpochStamp() const;

  // -- Reads (a sharded surface only after Resolve) ------------------------

  Result<model::VideoDescriptor> FindVideo(const std::string& name) const;
  Result<std::vector<model::EventRecord>> Events(
      model::VideoId video, const std::string& type) const;
  bool HasEvents(model::VideoId video, const std::string& type) const;
  uint64_t EventVersion() const;

 private:
  const CatalogSnapshot& snapshot() const;

  const model::VideoCatalog* live_ = nullptr;
  const CatalogSnapshot* snapshot_ = nullptr;
  const ShardedSnapshotSet* shards_ = nullptr;
};

/// Pins the current snapshot of every shard's SnapshotManager (in shard
/// order) and re-validates that no manager published a newer epoch while the
/// rest were being pinned, retrying the whole round a bounded number of
/// times. On convergence the returned set is a coherent cross-shard cut; if
/// writers outpace every retry the LAST round's pins are returned with
/// coherent() == false — still per-shard snapshot-isolated, never an error.
/// InvalidArgument when `managers` is empty or contains a null.
Result<ShardedSnapshotSet> AcquireShardedSnapshots(
    const std::vector<SnapshotManager*>& managers);

}  // namespace cobra::query

#endif  // COBRA_QUERY_SNAPSHOT_H_
