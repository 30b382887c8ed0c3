#ifndef COBRA_KERNEL_CATALOG_H_
#define COBRA_KERNEL_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "kernel/bat.h"

namespace cobra::kernel {

class PersistentStore;

/// Named-BAT catalog — the kernel's persistent variable environment. Moa
/// operator programs address their operand columns through it, and the Cobra
/// metadata layers (feature/object/event) store their decomposed relations
/// here.
///
/// `mu_` guards the name -> BAT map only; the returned Bat pointers are
/// handed out unlocked (a binding stays alive until Drop/Put replaces it,
/// and Bat itself documents its own concurrency contract).
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty BAT under `name`; error if the name exists.
  Result<Bat*> Create(const std::string& name, TailType tail_type)
      COBRA_EXCLUDES(mu_);

  /// Returns the BAT registered under `name`, or NotFound.
  Result<Bat*> Get(const std::string& name) COBRA_EXCLUDES(mu_);
  Result<const Bat*> Get(const std::string& name) const COBRA_EXCLUDES(mu_);

  /// Registers (moves) an existing BAT; overwrites any previous binding.
  Bat* Put(const std::string& name, Bat bat) COBRA_EXCLUDES(mu_);

  /// Drops a binding; error if absent.
  Status Drop(const std::string& name) COBRA_EXCLUDES(mu_);

  /// Renames a binding; NotFound if `from` is absent, AlreadyExists if `to`
  /// is taken. The Bat object (and its accreted indexes) moves untouched.
  Status Rename(const std::string& from, const std::string& to)
      COBRA_EXCLUDES(mu_);

  bool Exists(const std::string& name) const COBRA_EXCLUDES(mu_);

  /// Catalog-wide mutation counter — the namespace analogue of a BAT's
  /// per-object version. Bumped by every successful Create/Put/Drop/Rename,
  /// so snapshot/epoch machinery can detect "some binding changed" with one
  /// lock-free load instead of walking every BAT. Per-row appends do NOT
  /// bump it (they bump the owning BAT's version); layers that snapshot row
  /// data combine this with their own mutation counters.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// All registered names, sorted.
  std::vector<std::string> Names() const COBRA_EXCLUDES(mu_);

  /// Associates a persistence store with this catalog, purely for Stats()
  /// reporting (on-disk footprint, checkpoint LSN). The catalog never calls
  /// mutating store methods; pass nullptr to detach. Not owned; the store
  /// must outlive the attachment.
  void AttachStore(const PersistentStore* store) COBRA_EXCLUDES(mu_);

  /// Per-BAT acceleration snapshot (index lifecycle + dictionary state).
  struct BatStats {
    std::string name;
    TailType tail_type;
    size_t rows = 0;
    Bat::AccelInfo accel;
  };

  /// Durability snapshot of the attached store (zeros when detached).
  struct StoreStats {
    bool attached = false;
    uint64_t checkpoint_lsn = 0;  // generation of the newest snapshot
    uint64_t last_lsn = 0;        // newest durable log sequence number
    uint64_t on_disk_bytes = 0;   // snapshot + WAL footprint
    uint64_t snapshot_files = 0;
    uint64_t wal_files = 0;
  };

  struct CatalogStats {
    std::vector<BatStats> bats;  // name order
    StoreStats store;
  };

  /// Stats for every registered BAT, in name order, plus the durability
  /// state of the attached store. Reads the live BATs in place, so accreted
  /// indexes show up (catalog copies would not carry them) — which races a
  /// concurrent appender; callers that need only the store use Durability().
  CatalogStats Stats() const COBRA_EXCLUDES(mu_);

  /// The durability state of the attached store alone. Touches no BAT, so
  /// it is safe beside a writer appending to BATs in place.
  StoreStats Durability() const COBRA_EXCLUDES(mu_);

  /// Stats() rendered as a JSON object (strict: passes trace::ValidateJson):
  /// {"bats": [{name, tail_type, rows, dict_entries, ...} ...],
  ///  "store": {attached, checkpoint_lsn, last_lsn, on_disk_bytes, ...}}.
  std::string StatsJson() const COBRA_EXCLUDES(mu_);

 private:
  void Bump() { version_.fetch_add(1, std::memory_order_acq_rel); }

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Bat>> bats_ COBRA_GUARDED_BY(mu_);
  const PersistentStore* store_ COBRA_GUARDED_BY(mu_) = nullptr;
  /// Mutated only under mu_, read lock-free by version().
  std::atomic<uint64_t> version_{0};
};

}  // namespace cobra::kernel

#endif  // COBRA_KERNEL_CATALOG_H_
