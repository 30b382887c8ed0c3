#include "kernel/catalog.h"

#include "base/strings.h"
#include "kernel/persist.h"

namespace cobra::kernel {

Result<Bat*> Catalog::Create(const std::string& name, TailType tail_type) {
  MutexLock lock(mu_);
  auto [it, inserted] = bats_.emplace(name, nullptr);
  if (!inserted) {
    return Status::AlreadyExists("BAT already exists: " + name);
  }
  it->second = std::make_unique<Bat>(tail_type);
  Bump();
  return it->second.get();
}

Result<Bat*> Catalog::Get(const std::string& name) {
  MutexLock lock(mu_);
  auto it = bats_.find(name);
  if (it == bats_.end()) return Status::NotFound("no BAT named " + name);
  return it->second.get();
}

Result<const Bat*> Catalog::Get(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = bats_.find(name);
  if (it == bats_.end()) {
    return Status::NotFound("no BAT named " + name);
  }
  return static_cast<const Bat*>(it->second.get());
}

Bat* Catalog::Put(const std::string& name, Bat bat) {
  MutexLock lock(mu_);
  auto& slot = bats_[name];
  slot = std::make_unique<Bat>(std::move(bat));
  Bump();
  return slot.get();
}

Status Catalog::Drop(const std::string& name) {
  MutexLock lock(mu_);
  if (bats_.erase(name) == 0) {
    return Status::NotFound("no BAT named " + name);
  }
  Bump();
  return Status::OK();
}

Status Catalog::Rename(const std::string& from, const std::string& to) {
  MutexLock lock(mu_);
  auto it = bats_.find(from);
  if (it == bats_.end()) return Status::NotFound("no BAT named " + from);
  if (from == to) return Status::OK();
  if (bats_.count(to) != 0) {
    return Status::AlreadyExists("BAT already exists: " + to);
  }
  bats_[to] = std::move(it->second);
  bats_.erase(from);
  Bump();
  return Status::OK();
}

bool Catalog::Exists(const std::string& name) const {
  MutexLock lock(mu_);
  return bats_.count(name) != 0;
}

void Catalog::AttachStore(const PersistentStore* store) {
  MutexLock lock(mu_);
  store_ = store;
}

Catalog::CatalogStats Catalog::Stats() const {
  CatalogStats out;
  {
    MutexLock lock(mu_);
    out.bats.reserve(bats_.size());
    for (const auto& [name, bat] : bats_) {
      out.bats.push_back(
          BatStats{name, bat->tail_type(), bat->size(), bat->accel_info()});
    }
  }
  out.store = Durability();
  return out;
}

Catalog::StoreStats Catalog::Durability() const {
  const PersistentStore* store = nullptr;
  {
    MutexLock lock(mu_);
    store = store_;
  }
  // Store stats are read outside mu_: PersistentStore::Checkpoint holds the
  // store mutex while reading this catalog, so taking the store mutex under
  // mu_ would invert that order.
  StoreStats out;
  if (store != nullptr) {
    PersistentStore::DiskStats disk = store->Stats();
    out.attached = true;
    out.checkpoint_lsn = disk.checkpoint_lsn;
    out.last_lsn = disk.last_lsn;
    out.on_disk_bytes = disk.on_disk_bytes;
    out.snapshot_files = disk.snapshot_files;
    out.wal_files = disk.wal_files;
  }
  return out;
}

std::string Catalog::StatsJson() const {
  CatalogStats stats = Stats();
  std::string out = "{\"bats\":[";
  bool first = true;
  for (const BatStats& b : stats.bats) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":");
    AppendJsonString(b.name, &out);
    out.append(",\"tail_type\":");
    AppendJsonString(TailTypeName(b.tail_type), &out);
    out.append(StrFormat(
        ",\"rows\":%llu,\"dict_entries\":%llu,\"tail_index_built\":%s,"
        "\"tail_index_fresh\":%s,\"head_index_built\":%s,"
        "\"head_index_fresh\":%s,\"tail_probes\":%llu,\"head_probes\":%llu}",
        static_cast<unsigned long long>(b.rows),
        static_cast<unsigned long long>(b.accel.dict_entries),
        b.accel.tail_index_built ? "true" : "false",
        b.accel.tail_index_fresh ? "true" : "false",
        b.accel.head_index_built ? "true" : "false",
        b.accel.head_index_fresh ? "true" : "false",
        static_cast<unsigned long long>(b.accel.tail_probes),
        static_cast<unsigned long long>(b.accel.head_probes)));
  }
  out.append(StrFormat(
      "],\"store\":{\"attached\":%s,\"checkpoint_lsn\":%llu,"
      "\"last_lsn\":%llu,\"on_disk_bytes\":%llu,\"snapshot_files\":%llu,"
      "\"wal_files\":%llu}}",
      stats.store.attached ? "true" : "false",
      static_cast<unsigned long long>(stats.store.checkpoint_lsn),
      static_cast<unsigned long long>(stats.store.last_lsn),
      static_cast<unsigned long long>(stats.store.on_disk_bytes),
      static_cast<unsigned long long>(stats.store.snapshot_files),
      static_cast<unsigned long long>(stats.store.wal_files)));
  return out;
}

std::vector<std::string> Catalog::Names() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(bats_.size());
  for (const auto& [name, bat] : bats_) out.push_back(name);
  return out;
}

}  // namespace cobra::kernel
