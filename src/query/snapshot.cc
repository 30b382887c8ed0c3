#include "query/snapshot.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"
#include "base/strings.h"

namespace cobra::query {

Result<model::VideoDescriptor> CatalogSnapshot::FindVideo(
    const std::string& name) const {
  for (const auto& v : state_.videos) {
    if (v.name == name) return v;
  }
  return Status::NotFound("no video named " + name);
}

std::vector<model::EventRecord> CatalogSnapshot::Events(
    model::VideoId video, const std::string& type) const {
  auto it = state_.events.find(video);
  std::vector<model::EventRecord> out;
  if (it != state_.events.end()) {
    for (const auto& e : it->second) {
      if (type.empty() || e.type == type) out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const model::EventRecord& a, const model::EventRecord& b) {
              return a.begin_sec < b.begin_sec;
            });
  return out;
}

bool CatalogSnapshot::HasEvents(model::VideoId video,
                                const std::string& type) const {
  auto it = state_.events.find(video);
  if (it == state_.events.end()) return false;
  for (const auto& e : it->second) {
    if (e.type == type) return true;
  }
  return false;
}

SnapshotManager::SnapshotManager(model::VideoCatalog* videos,
                                 kernel::Catalog* kernel)
    : videos_(videos), kernel_(kernel) {}

SnapshotManager::~SnapshotManager() = default;

SnapshotManager::Pin::Pin(Pin&& other) noexcept
    : manager_(other.manager_), snapshot_(std::move(other.snapshot_)) {
  other.manager_ = nullptr;
  other.snapshot_ = nullptr;
}

SnapshotManager::Pin& SnapshotManager::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    if (snapshot_ != nullptr && manager_ != nullptr) {
      manager_->Unpin(snapshot_->epoch());
    }
    manager_ = other.manager_;
    snapshot_ = std::move(other.snapshot_);
    other.manager_ = nullptr;
    other.snapshot_ = nullptr;
  }
  return *this;
}

SnapshotManager::Pin::~Pin() {
  if (snapshot_ != nullptr && manager_ != nullptr) {
    manager_->Unpin(snapshot_->epoch());
  }
}

SnapshotManager::Pin SnapshotManager::Acquire() {
  MutexLock lock(mu_);
  RefreshLocked();
  EpochEntry& entry = epochs_.at(current_epoch_);
  ++entry.pins;
  return Pin(this, entry.snapshot);
}

void SnapshotManager::Refresh() {
  MutexLock lock(mu_);
  RefreshLocked();
}

void SnapshotManager::RefreshLocked() {
  // Lock-free staleness probe: no contact with the catalog mutexes unless
  // something actually changed since the last publication.
  const uint64_t model_now = videos_->model_version();
  const uint64_t kernel_now = kernel_ != nullptr ? kernel_->version() : 0;
  if (current_epoch_ != 0) {
    const CatalogSnapshot& current = *epochs_.at(current_epoch_).snapshot;
    if (current.model_version() == model_now &&
        current.kernel_version() == kernel_now) {
      return;
    }
  }
  model::VideoCatalog::SnapshotState state = videos_->CaptureSnapshotState();
  // Versions that move between the probe above and the capture are caught by
  // the next Acquire(); the snapshot's own stamps always describe its data.
  uint64_t checkpoint_lsn = 0;
  uint64_t last_lsn = 0;
  if (kernel_ != nullptr) {
    const kernel::Catalog::StoreStats store = kernel_->Durability();
    checkpoint_lsn = store.checkpoint_lsn;
    last_lsn = store.last_lsn;
  }
  const uint64_t epoch = ++current_epoch_;
  ++published_;
  epochs_[epoch] = EpochEntry{
      std::make_shared<const CatalogSnapshot>(epoch, std::move(state),
                                              kernel_now, checkpoint_lsn,
                                              last_lsn),
      /*pins=*/0};
  ReclaimLocked();
}

void SnapshotManager::Unpin(uint64_t epoch) {
  MutexLock lock(mu_);
  auto it = epochs_.find(epoch);
  if (it == epochs_.end() || it->second.pins == 0) return;
  --it->second.pins;
  if (it->second.pins == 0 && epoch != current_epoch_) {
    epochs_.erase(it);
    ++reclaimed_;
  }
}

void SnapshotManager::ReclaimLocked() {
  for (auto it = epochs_.begin(); it != epochs_.end();) {
    if (it->first != current_epoch_ && it->second.pins == 0) {
      it = epochs_.erase(it);
      ++reclaimed_;
    } else {
      ++it;
    }
  }
}

size_t ShardedSnapshotSet::OwnerOf(const std::string& video) const {
  for (size_t k = 0; k < pins_.size(); ++k) {
    if (shard(k).FindVideo(video).ok()) return k;
  }
  return 0;
}

std::string ShardedSnapshotSet::EpochStamp() const {
  std::string epochs;
  for (size_t k = 0; k < epochs_.size(); ++k) {
    if (k != 0) epochs += ",";
    epochs += StrFormat("%llu", static_cast<unsigned long long>(epochs_[k]));
  }
  return StrFormat("shards=%zu epochs=[%s] coherent=%s", pins_.size(),
                   epochs.c_str(), coherent_ ? "true" : "false");
}

Result<ReadSurface> ReadSurface::Resolve(const std::string& video) const {
  if (shards_ == nullptr || snapshot_ != nullptr) return *this;
  if (shards_->empty()) {
    return Status::InvalidArgument(
        "sharded snapshot read needs at least one shard snapshot");
  }
  // Videos are partitioned across shards, so the whole plan (primary and
  // secondary event reads alike) reads the one shard owning the video;
  // scatter below the per-shard catalog is the kernel exchange layer's job.
  ReadSurface owner = *this;
  owner.snapshot_ = &shards_->shard(shards_->OwnerOf(video));
  return owner;
}

std::string ReadSurface::EpochStamp() const {
  return shards_ != nullptr ? shards_->EpochStamp() : "";
}

const CatalogSnapshot& ReadSurface::snapshot() const {
  COBRA_CHECK(snapshot_ != nullptr);  // an unresolved sharded surface
  return *snapshot_;
}

Result<model::VideoDescriptor> ReadSurface::FindVideo(
    const std::string& name) const {
  return live_ != nullptr ? live_->FindVideo(name) : snapshot().FindVideo(name);
}

Result<std::vector<model::EventRecord>> ReadSurface::Events(
    model::VideoId video, const std::string& type) const {
  if (live_ != nullptr) return live_->Events(video, type);
  return snapshot().Events(video, type);
}

bool ReadSurface::HasEvents(model::VideoId video,
                            const std::string& type) const {
  return live_ != nullptr ? live_->HasEvents(video, type)
                          : snapshot().HasEvents(video, type);
}

uint64_t ReadSurface::EventVersion() const {
  return live_ != nullptr ? live_->event_version()
                          : snapshot().event_version();
}

Result<ShardedSnapshotSet> AcquireShardedSnapshots(
    const std::vector<SnapshotManager*>& managers) {
  if (managers.empty()) {
    return Status::InvalidArgument(
        "sharded snapshot acquisition needs at least one manager");
  }
  for (const SnapshotManager* m : managers) {
    if (m == nullptr) {
      return Status::InvalidArgument(
          "sharded snapshot acquisition got a null manager");
    }
  }
  // Bounded coherence loop: pin every shard, then confirm no shard moved on
  // while the later pins were being taken. A retry drops the whole round's
  // pins (RAII) and starts over against the newer epochs.
  constexpr int kMaxRounds = 4;
  ShardedSnapshotSet set;
  for (int round = 0; round < kMaxRounds; ++round) {
    set.pins_.clear();
    set.epochs_.clear();
    set.pins_.reserve(managers.size());
    set.epochs_.reserve(managers.size());
    for (SnapshotManager* m : managers) {
      SnapshotManager::Pin pin = m->Acquire();
      set.epochs_.push_back(pin->epoch());
      set.pins_.push_back(std::move(pin));
    }
    set.coherent_ = true;
    for (size_t k = 0; k < managers.size(); ++k) {
      if (managers[k]->stats().current_epoch != set.epochs_[k]) {
        set.coherent_ = false;
        break;
      }
    }
    if (set.coherent_) break;
  }
  return set;
}

SnapshotManager::Stats SnapshotManager::stats() const {
  MutexLock lock(mu_);
  Stats out;
  out.current_epoch = current_epoch_;
  out.published = published_;
  out.reclaimed = reclaimed_;
  out.live_epochs = epochs_.size();
  for (const auto& [epoch, entry] : epochs_) {
    out.pinned_readers += entry.pins;
    if (entry.pins > 0 && out.oldest_pinned_epoch == 0) {
      out.oldest_pinned_epoch = epoch;
    }
  }
  return out;
}

}  // namespace cobra::query
