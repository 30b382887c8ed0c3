#include "kernel/shard.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/strings.h"
#include "base/trace.h"

namespace cobra::kernel {

// -- Partitioning -----------------------------------------------------------

std::vector<ShardRange> ShardRanges(size_t rows, size_t shards, size_t align) {
  COBRA_CHECK(shards > 0);
  COBRA_CHECK(align > 0);
  const size_t blocks = rows == 0 ? 0 : (rows - 1) / align + 1;
  // blk < blocks implies blk * align < rows + align <= no overflow; a block
  // index at or past the end maps to `rows` without multiplying (align may
  // be huge — ExecContext::MorselRows() saturates morsel_rows == 0).
  const auto bound = [&](size_t blk) {
    return blk >= blocks ? rows : std::min(rows, blk * align);
  };
  std::vector<ShardRange> ranges(shards);
  for (size_t k = 0; k < shards; ++k) {
    ranges[k].begin = bound(k * blocks / shards);
    ranges[k].end = bound((k + 1) * blocks / shards);
  }
  return ranges;
}

size_t ShardedBat::rows() const {
  size_t total = 0;
  for (const Bat* s : slices) total += s->size();
  return total;
}

ShardedBat ShardedBat::Whole(const Bat& bat) {
  return ShardedBat{{&bat}, {0}, bat.tail_type()};
}

bool ShardedBat::AlignedTo(size_t quantum) const {
  if (quantum == 0) return false;
  for (size_t off : offsets) {
    if (off % quantum != 0) return false;
  }
  return true;
}

PartitionedBat::PartitionedBat(const Bat& bat, size_t shards, size_t align)
    : tail_type_(bat.tail_type()) {
  const std::vector<ShardRange> ranges = ShardRanges(bat.size(), shards, align);
  slices_.reserve(shards);
  offsets_.reserve(shards);
  for (const ShardRange& r : ranges) {
    offsets_.push_back(r.begin);
    slices_.push_back(bat.Slice(r.begin, r.end));
  }
}

ShardedBat PartitionedBat::View() const {
  ShardedBat sb;
  sb.tail_type = tail_type_;
  sb.slices.reserve(slices_.size());
  for (const Bat& s : slices_) sb.slices.push_back(&s);
  sb.offsets = offsets_;
  return sb;
}

// -- Zone maps and gather ---------------------------------------------------

std::vector<ShardStats> ComputeShardStats(const ShardedBat& sb,
                                          const ExecContext& ctx) {
  const size_t n = sb.num_shards();
  std::vector<ShardStats> stats(n);
  ParallelForEach(ctx, n, [&](size_t k) {
    const Bat& s = *sb.slices[k];
    ShardStats& st = stats[k];
    st.version = s.version();
    st.rows = s.size();
    const bool numeric = s.tail_type() == TailType::kInt ||
                         s.tail_type() == TailType::kFloat;
    if (!numeric) return;
    for (size_t i = 0; i < s.size(); ++i) {
      const double v = s.tail_type() == TailType::kInt
                           ? static_cast<double>(s.IntAt(i))
                           : s.FloatAt(i);
      if (std::isnan(v)) continue;
      if (!st.has_non_nan) {
        st.has_non_nan = true;
        st.min = v;
        st.max = v;
      } else {
        if (v < st.min) st.min = v;
        if (v > st.max) st.max = v;
      }
    }
  });
  return stats;
}

Bat GatherShards(const ShardedBat& sb, const ExecContext& ctx) {
  trace::SpanGuard span(ctx.trace, ctx.trace_parent, "exchange.gather");
  const size_t total = sb.rows();
  span.RowsIn(total);
  Bat out(sb.tail_type);
  out.Reserve(total);
  for (const Bat* s : sb.slices) out.Concat(*s);
  span.RowsOut(out.size());
  return out;
}

// -- ShardedCatalog ---------------------------------------------------------

ShardedCatalog::ShardedCatalog(size_t num_shards, size_t align)
    : align_(align) {
  COBRA_CHECK(num_shards > 0);
  COBRA_CHECK(align > 0);
  shards_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    shards_.push_back(std::make_unique<Catalog>());
  }
}

Status ShardedCatalog::Create(const std::string& name, TailType tail_type) {
  for (auto& shard : shards_) {
    COBRA_ASSIGN_OR_RETURN(Bat * bat, shard->Create(name, tail_type));
    (void)bat;
  }
  return Status::OK();
}

Status ShardedCatalog::Put(const std::string& name, const Bat& bat) {
  const std::vector<ShardRange> ranges =
      ShardRanges(bat.size(), shards_.size(), align_);
  for (size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->Put(name, bat.Slice(ranges[k].begin, ranges[k].end));
  }
  return Status::OK();
}

Status ShardedCatalog::Append(const std::string& name, Oid head,
                              const Value& tail) {
  COBRA_ASSIGN_OR_RETURN(Bat * bat, shards_.back()->Get(name));
  return bat->Append(head, tail);
}

Status ShardedCatalog::Drop(const std::string& name) {
  for (auto& shard : shards_) {
    COBRA_RETURN_IF_ERROR(shard->Drop(name));
  }
  return Status::OK();
}

bool ShardedCatalog::Exists(const std::string& name) const {
  return shards_[0]->Exists(name);
}

Result<ShardedBat> ShardedCatalog::View(const std::string& name) const {
  ShardedBat sb;
  sb.slices.reserve(shards_.size());
  sb.offsets.reserve(shards_.size());
  size_t offset = 0;
  for (const auto& shard : shards_) {
    COBRA_ASSIGN_OR_RETURN(const Bat* bat, shard->Get(name));
    sb.slices.push_back(bat);
    sb.offsets.push_back(offset);
    offset += bat->size();
  }
  sb.tail_type = sb.slices[0]->tail_type();
  return sb;
}

Result<Bat> ShardedCatalog::Gather(const std::string& name,
                                   const ExecContext& ctx) const {
  COBRA_ASSIGN_OR_RETURN(ShardedBat sb, View(name));
  return GatherShards(sb, ctx);
}

Result<size_t> ShardedCatalog::Rows(const std::string& name) const {
  COBRA_ASSIGN_OR_RETURN(ShardedBat sb, View(name));
  return sb.rows();
}

Result<std::vector<ShardStats>> ShardedCatalog::ScanStats(
    const std::string& name, const ExecContext& ctx) const {
  COBRA_ASSIGN_OR_RETURN(ShardedBat sb, View(name));
  std::vector<uint64_t> versions;
  versions.reserve(sb.num_shards());
  for (const Bat* s : sb.slices) versions.push_back(s->version());
  MutexLock lock(mu_);
  auto it = scan_cache_.find(name);
  if (it != scan_cache_.end() && it->second.versions == versions) {
    return it->second.stats;
  }
  CachedStats fresh;
  fresh.versions = std::move(versions);
  fresh.stats = ComputeShardStats(sb, ctx);
  std::vector<ShardStats> out = fresh.stats;
  scan_cache_[name] = std::move(fresh);
  return out;
}

Status ShardedCatalog::AttachStores(io::Fs* fs, const std::string& dir) {
  stores_.clear();
  stores_.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto store = std::make_unique<PersistentStore>(fs, ShardDir(dir, k));
    COBRA_RETURN_IF_ERROR(store->Open());
    shards_[k]->AttachStore(store.get());
    stores_.push_back(std::move(store));
  }
  return Status::OK();
}

Status ShardedCatalog::Checkpoint(const ExecContext& ctx,
                                  std::string_view extra) {
  if (stores_.size() != shards_.size()) {
    return Status::FailedPrecondition(
        "ShardedCatalog::Checkpoint requires AttachStores");
  }
  std::vector<Status> errs(shards_.size());
  ParallelForEach(ctx, shards_.size(), [&](size_t k) {
    errs[k] = stores_[k]->Checkpoint(*shards_[k], extra);
  });
  for (const Status& e : errs) {
    if (!e.ok()) return e;
  }
  return Status::OK();
}

Result<std::vector<PersistentStore::RecoveryInfo>> ShardedCatalog::Recover(
    const ExecContext& ctx) {
  if (stores_.size() != shards_.size()) {
    return Status::FailedPrecondition(
        "ShardedCatalog::Recover requires AttachStores");
  }
  std::vector<Status> errs(shards_.size());
  std::vector<PersistentStore::RecoveryInfo> infos(shards_.size());
  ParallelForEach(ctx, shards_.size(), [&](size_t k) {
    Result<PersistentStore::RecoveryInfo> r =
        stores_[k]->Recover(shards_[k].get());
    if (r.ok()) {
      infos[k] = std::move(r).value();
    } else {
      errs[k] = r.status();
    }
  });
  for (const Status& e : errs) {
    if (!e.ok()) return e;
  }
  MutexLock lock(mu_);
  scan_cache_.clear();
  return infos;
}

std::string ShardedCatalog::ShardDir(const std::string& dir, size_t k) {
  return StrFormat("%s/shard-%zu", dir.c_str(), k);
}

size_t ShardedCatalog::DiscoverShardCount(const io::Fs& fs,
                                          const std::string& dir) {
  size_t k = 0;
  while (PersistentStore::Exists(fs, ShardDir(dir, k))) ++k;
  return k;
}

}  // namespace cobra::kernel
