#include "kernel/bat.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "base/logging.h"
#include "base/mutex.h"
#include "base/strings.h"
#include "base/thread_annotations.h"
#include "base/trace.h"

namespace cobra::kernel {

std::string_view TailTypeName(TailType t) {
  switch (t) {
    case TailType::kInt:
      return "int";
    case TailType::kFloat:
      return "dbl";
    case TailType::kStr:
      return "str";
    case TailType::kOid:
      return "oid";
  }
  return "?";
}

Result<double> Value::Numeric() const {
  switch (type_) {
    case TailType::kInt:
      return static_cast<double>(AsInt());
    case TailType::kFloat:
      return AsFloat();
    default:
      return Status::InvalidArgument(
          StrFormat("no numeric view of a %s value",
                    std::string(TailTypeName(type_)).c_str()));
  }
}

std::string Value::ToString() const {
  switch (type_) {
    case TailType::kInt:
      return std::to_string(AsInt());
    case TailType::kFloat:
      return StrFormat("%g", AsFloat());
    case TailType::kStr:
      return AsStr();
    case TailType::kOid:
      return StrFormat("oid(%llu)", static_cast<unsigned long long>(AsOid()));
  }
  return "?";
}

// -- Acceleration state -----------------------------------------------------

/// Shared per-BAT acceleration state. Index builds and lookups are
/// serialized on `mu`; the published indexes are immutable, so probes use
/// the returned shared_ptr snapshots outside the lock. Counters are relaxed
/// atomics (diagnostics only).
struct Bat::Accel {
  Mutex mu;
  std::shared_ptr<const HashIndex> tail COBRA_GUARDED_BY(mu);
  std::shared_ptr<const HashIndex> head COBRA_GUARDED_BY(mu);
  std::atomic<uint64_t> tail_builds{0};
  std::atomic<uint64_t> tail_probes{0};
  std::atomic<uint64_t> head_builds{0};
  std::atomic<uint64_t> head_probes{0};
  std::atomic<uint64_t> tail_extends{0};
  std::atomic<uint64_t> head_extends{0};
};

Bat::Accel& Bat::accel() const {
  Accel* a = accel_.load(std::memory_order_acquire);
  if (a != nullptr) return *a;
  auto* fresh = new Accel();
  if (accel_.compare_exchange_strong(a, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;  // another probe won the race
  return *a;
}

Bat::~Bat() { delete accel_.load(std::memory_order_acquire); }

Bat::Bat(const Bat& other)
    : tail_type_(other.tail_type_),
      head_(other.head_),
      ints_(other.ints_),
      floats_(other.floats_),
      oids_(other.oids_),
      str_codes_(other.str_codes_),
      dict_(other.dict_),
      version_(other.version_),
      append_maintenance_(other.append_maintenance_) {
  dict_order_.assign(dict_.size(), nullptr);
  for (const auto& [s, code] : dict_) dict_order_[code] = &s;
}

Bat& Bat::operator=(const Bat& other) {
  if (this == &other) return *this;
  Bat copy(other);
  *this = std::move(copy);
  return *this;
}

Bat::Bat(Bat&& other) noexcept
    : tail_type_(other.tail_type_),
      head_(std::move(other.head_)),
      ints_(std::move(other.ints_)),
      floats_(std::move(other.floats_)),
      oids_(std::move(other.oids_)),
      str_codes_(std::move(other.str_codes_)),
      dict_(std::move(other.dict_)),
      dict_order_(std::move(other.dict_order_)),
      version_(other.version_),
      append_maintenance_(other.append_maintenance_),
      accel_(other.accel_.exchange(nullptr, std::memory_order_acq_rel)) {}

Bat& Bat::operator=(Bat&& other) noexcept {
  if (this == &other) return *this;
  delete accel_.load(std::memory_order_acquire);
  tail_type_ = other.tail_type_;
  head_ = std::move(other.head_);
  ints_ = std::move(other.ints_);
  floats_ = std::move(other.floats_);
  oids_ = std::move(other.oids_);
  str_codes_ = std::move(other.str_codes_);
  dict_ = std::move(other.dict_);
  dict_order_ = std::move(other.dict_order_);
  version_ = other.version_;
  append_maintenance_ = other.append_maintenance_;
  accel_.store(other.accel_.exchange(nullptr, std::memory_order_acq_rel),
               std::memory_order_release);
  return *this;
}

uint32_t Bat::InternStr(std::string v) {
  auto [it, inserted] =
      dict_.try_emplace(std::move(v), static_cast<uint32_t>(dict_.size()));
  if (inserted) dict_order_.push_back(&it->first);
  return it->second;
}

bool Bat::ProbeKey(const Value& v, uint64_t* key) const {
  switch (tail_type_) {
    case TailType::kInt:
      *key = std::bit_cast<uint64_t>(v.AsInt());
      return true;
    case TailType::kFloat:
      *key = FloatKey(v.AsFloat());
      return !std::isnan(v.AsFloat());  // NaN never compares equal
    case TailType::kStr: {
      auto it = dict_.find(v.AsStr());
      if (it == dict_.end()) return false;
      *key = it->second;
      return true;
    }
    case TailType::kOid:
      *key = v.AsOid();
      return true;
  }
  return false;
}

std::shared_ptr<const Bat::HashIndex> Bat::TailIndex(bool force) const {
  if (size() > std::numeric_limits<uint32_t>::max()) return nullptr;
  Accel& a = accel();
  MutexLock lock(a.mu);
  if (a.tail != nullptr && a.tail->built_version == version_) {
    a.tail_probes.fetch_add(1, std::memory_order_relaxed);
    return a.tail;
  }
  // Build (or rebuild after a mutation) when forced, when an index already
  // accreted on this BAT, or when the BAT is large enough to pay off.
  if (!force && a.tail == nullptr && size() < kAutoIndexMinRows) {
    return nullptr;
  }
  auto idx = std::make_shared<HashIndex>();
  idx->built_version = version_;
  idx->built_rows = size();
  idx->map.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    idx->map[TailKeyAt(i)].push_back(static_cast<uint32_t>(i));
  }
  a.tail = std::move(idx);
  a.tail_builds.fetch_add(1, std::memory_order_relaxed);
  a.tail_probes.fetch_add(1, std::memory_order_relaxed);
  return a.tail;
}

std::shared_ptr<const Bat::HashIndex> Bat::HeadIndex(bool force) const {
  if (size() > std::numeric_limits<uint32_t>::max()) return nullptr;
  Accel& a = accel();
  MutexLock lock(a.mu);
  if (a.head != nullptr && a.head->built_version == version_) {
    a.head_probes.fetch_add(1, std::memory_order_relaxed);
    return a.head;
  }
  if (!force && a.head == nullptr && size() < kAutoIndexMinRows) {
    return nullptr;
  }
  auto idx = std::make_shared<HashIndex>();
  idx->built_version = version_;
  idx->built_rows = size();
  idx->map.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    idx->map[head_[i]].push_back(static_cast<uint32_t>(i));
  }
  a.head = std::move(idx);
  a.head_builds.fetch_add(1, std::memory_order_relaxed);
  a.head_probes.fetch_add(1, std::memory_order_relaxed);
  return a.head;
}

Bat::AccelInfo Bat::accel_info() const {
  AccelInfo info;
  info.version = version_;
  info.dict_entries = dict_order_.size();
  Accel* a = accel_.load(std::memory_order_acquire);
  if (a == nullptr) return info;
  MutexLock lock(a->mu);
  info.tail_index_built = a->tail != nullptr;
  info.tail_index_fresh =
      a->tail != nullptr && a->tail->built_version == version_;
  info.head_index_built = a->head != nullptr;
  info.head_index_fresh =
      a->head != nullptr && a->head->built_version == version_;
  info.tail_builds = a->tail_builds.load(std::memory_order_relaxed);
  info.tail_probes = a->tail_probes.load(std::memory_order_relaxed);
  info.head_builds = a->head_builds.load(std::memory_order_relaxed);
  info.head_probes = a->head_probes.load(std::memory_order_relaxed);
  info.tail_extends = a->tail_extends.load(std::memory_order_relaxed);
  info.head_extends = a->head_extends.load(std::memory_order_relaxed);
  info.tail_indexed_rows = a->tail != nullptr ? a->tail->built_rows : 0;
  info.head_indexed_rows = a->head != nullptr ? a->head->built_rows : 0;
  return info;
}

// -- Streaming append maintenance -------------------------------------------

namespace {

/// Extends one index slot over rows [old_rows, size): in place when this
/// BAT holds the only reference, on a clone otherwise (a reader's stashed
/// snapshot is immutable). Extension applies only when the index covers
/// exactly the pre-append prefix — anything else (stale from a
/// non-maintained mutation) is left for the next probe's rebuild.
template <typename KeyAt>
bool ExtendIndexLocked(std::shared_ptr<const Bat::HashIndex>* slot,
                       size_t old_rows, size_t new_rows, uint64_t version,
                       const KeyAt& key_at) {
  const Bat::HashIndex* idx = slot->get();
  if (idx == nullptr || idx->built_rows != old_rows) return false;
  std::shared_ptr<Bat::HashIndex> clone;
  Bat::HashIndex* w;
  if (slot->use_count() == 1) {
    // Sole owner: mutation implies exclusive BAT access, so no probe can be
    // copying the pointer concurrently — in-place extension is safe.
    w = const_cast<Bat::HashIndex*>(idx);
  } else {
    clone = std::make_shared<Bat::HashIndex>(*idx);
    w = clone.get();
  }
  for (size_t i = old_rows; i < new_rows; ++i) {
    w->map[key_at(i)].push_back(static_cast<uint32_t>(i));
  }
  w->built_rows = new_rows;
  w->built_version = version;
  if (clone != nullptr) *slot = std::move(clone);
  return true;
}

}  // namespace

void Bat::MaintainAppendSlow(size_t old_rows) {
  Accel* a = accel_.load(std::memory_order_acquire);
  if (a == nullptr) return;
  if (size() > std::numeric_limits<uint32_t>::max()) return;
  MutexLock lock(a->mu);
  if (ExtendIndexLocked(&a->tail, old_rows, size(), version_,
                        [this](size_t i) { return TailKeyAt(i); })) {
    a->tail_extends.fetch_add(1, std::memory_order_relaxed);
  }
  if (ExtendIndexLocked(&a->head, old_rows, size(), version_,
                        [this](size_t i) { return head_[i]; })) {
    a->head_extends.fetch_add(1, std::memory_order_relaxed);
  }
}

void Bat::unsafe_stamp_indexes_fresh() {
  Accel* a = accel_.load(std::memory_order_acquire);
  if (a == nullptr) return;
  MutexLock lock(a->mu);
  // Stamp WITHOUT extending: built_rows is faked to the current size so the
  // lie is internally consistent — only the map is missing rows.
  auto stamp = [this](std::shared_ptr<const HashIndex>* slot) {
    if (slot->get() == nullptr) return;
    std::shared_ptr<HashIndex> w;
    if (slot->use_count() == 1) {
      w = std::const_pointer_cast<HashIndex>(*slot);
    } else {
      w = std::make_shared<HashIndex>(**slot);
    }
    w->built_version = version_;
    w->built_rows = size();
    *slot = std::move(w);
  };
  stamp(&a->tail);
  stamp(&a->head);
}

Result<uint64_t> Bat::CountEq(const Value& v) const {
  if (v.type() != tail_type_) {
    return Status::InvalidArgument(
        StrFormat("counting %s value in BAT[oid,%s]",
                  std::string(TailTypeName(v.type())).c_str(),
                  std::string(TailTypeName(tail_type_)).c_str()));
  }
  uint64_t key = 0;
  if (!ProbeKey(v, &key)) return uint64_t{0};
  // Probe-only: serve a fresh index if one exists, else scan. Never builds,
  // so a gating probe leaves the acceleration state untouched.
  Accel* a = accel_.load(std::memory_order_acquire);
  if (a != nullptr) {
    MutexLock lock(a->mu);
    if (a->tail != nullptr && a->tail->built_version == version_) {
      a->tail_probes.fetch_add(1, std::memory_order_relaxed);
      auto it = a->tail->map.find(key);
      return it == a->tail->map.end() ? uint64_t{0}
                                      : static_cast<uint64_t>(it->second.size());
    }
  }
  uint64_t count = 0;
  for (size_t i = 0; i < size(); ++i) {
    if (TailKeyAt(i) == key) ++count;
  }
  return count;
}

// -- Mutation ---------------------------------------------------------------

Status Bat::Append(Oid head, const Value& tail) {
  if (tail.type() != tail_type_) {
    return Status::InvalidArgument(
        StrFormat("appending %s tail to BAT[oid,%s]",
                  std::string(TailTypeName(tail.type())).c_str(),
                  std::string(TailTypeName(tail_type_)).c_str()));
  }
  head_.push_back(head);
  switch (tail_type_) {
    case TailType::kInt:
      ints_.push_back(tail.AsInt());
      break;
    case TailType::kFloat:
      floats_.push_back(tail.AsFloat());
      break;
    case TailType::kStr:
      str_codes_.push_back(InternStr(tail.AsStr()));
      break;
    case TailType::kOid:
      oids_.push_back(tail.AsOid());
      break;
  }
  Bump();
  MaintainAppend(size() - 1);
  return Status::OK();
}

void Bat::AppendInt(Oid head, int64_t v) {
  COBRA_CHECK(tail_type_ == TailType::kInt);
  head_.push_back(head);
  ints_.push_back(v);
  Bump();
  MaintainAppend(size() - 1);
}

void Bat::AppendFloat(Oid head, double v) {
  COBRA_CHECK(tail_type_ == TailType::kFloat);
  head_.push_back(head);
  floats_.push_back(v);
  Bump();
  MaintainAppend(size() - 1);
}

void Bat::AppendStr(Oid head, std::string v) {
  COBRA_CHECK(tail_type_ == TailType::kStr);
  head_.push_back(head);
  str_codes_.push_back(InternStr(std::move(v)));
  Bump();
  MaintainAppend(size() - 1);
}

void Bat::AppendOid(Oid head, Oid v) {
  COBRA_CHECK(tail_type_ == TailType::kOid);
  head_.push_back(head);
  oids_.push_back(v);
  Bump();
  MaintainAppend(size() - 1);
}

void Bat::AppendRowFrom(Oid head, const Bat& src, size_t i) {
  COBRA_CHECK(tail_type_ == src.tail_type_);
  head_.push_back(head);
  switch (tail_type_) {
    case TailType::kInt:
      ints_.push_back(src.ints_[i]);
      break;
    case TailType::kFloat:
      floats_.push_back(src.floats_[i]);
      break;
    case TailType::kStr:
      if (&src == this) {
        const uint32_t code = str_codes_[i];
        str_codes_.push_back(code);
      } else {
        str_codes_.push_back(InternStr(src.StrAt(i)));
      }
      break;
    case TailType::kOid:
      oids_.push_back(src.oids_[i]);
      break;
  }
  Bump();
  MaintainAppend(size() - 1);
}

void Bat::Reserve(size_t n) {
  head_.reserve(n);
  switch (tail_type_) {
    case TailType::kInt:
      ints_.reserve(n);
      break;
    case TailType::kFloat:
      floats_.reserve(n);
      break;
    case TailType::kStr:
      str_codes_.reserve(n);
      break;
    case TailType::kOid:
      oids_.reserve(n);
      break;
  }
}

void Bat::Concat(const Bat& other) {
  COBRA_CHECK(tail_type_ == other.tail_type_);
  const size_t old_rows = size();
  head_.insert(head_.end(), other.head_.begin(), other.head_.end());
  switch (tail_type_) {
    case TailType::kInt:
      ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
      break;
    case TailType::kFloat:
      floats_.insert(floats_.end(), other.floats_.begin(),
                     other.floats_.end());
      break;
    case TailType::kStr: {
      // Remap the other dictionary's codes through ours.
      std::vector<uint32_t> remap(other.dict_order_.size());
      for (size_t c = 0; c < other.dict_order_.size(); ++c) {
        remap[c] = InternStr(*other.dict_order_[c]);
      }
      str_codes_.reserve(str_codes_.size() + other.str_codes_.size());
      for (uint32_t c : other.str_codes_) str_codes_.push_back(remap[c]);
      break;
    }
    case TailType::kOid:
      oids_.insert(oids_.end(), other.oids_.begin(), other.oids_.end());
      break;
  }
  Bump();
  // Other's codes were remapped through this dictionary above, so TailKeyAt
  // over the new rows reads this BAT's (already consistent) codes.
  MaintainAppend(old_rows);
}

void Bat::Concat(const Bat& other, const ExecContext& ctx) {
  trace::SpanGuard span(ctx.trace, ctx.trace_parent, "kernel.concat");
  span.RowsIn(size() + other.size());
  Concat(other);
  span.RowsOut(size());
}

Bat Bat::FromOidColumns(std::vector<Oid> heads, std::vector<Oid> tails) {
  COBRA_CHECK(heads.size() == tails.size());
  Bat out(TailType::kOid);
  out.head_ = std::move(heads);
  out.oids_ = std::move(tails);
  return out;
}

Value Bat::TailAt(size_t i) const {
  switch (tail_type_) {
    case TailType::kInt:
      return Value::Int(ints_[i]);
    case TailType::kFloat:
      return Value::Float(floats_[i]);
    case TailType::kStr:
      return Value::Str(StrAt(i));
    case TailType::kOid:
      return Value::OfOid(oids_[i]);
  }
  return Value();
}

// -- Selects ----------------------------------------------------------------
//
// The context forms of every operator live in operators.cc; what follows are
// the serial reference forms, each with its own plain loop.

template <typename Pos>
Bat Bat::EmitEqHits(const std::vector<Pos>& hits, const Value& v) const {
  Bat out(tail_type_);
  out.Reserve(hits.size());
  switch (tail_type_) {
    case TailType::kInt: {
      const int64_t want = v.AsInt();
      for (Pos p : hits) out.AppendInt(head_[p], want);
      break;
    }
    case TailType::kFloat: {
      const double want = v.AsFloat();
      for (Pos p : hits) out.AppendFloat(head_[p], want);
      break;
    }
    case TailType::kStr: {
      const uint32_t code = out.InternStr(v.AsStr());
      for (Pos p : hits) {
        out.head_.push_back(head_[p]);
        out.str_codes_.push_back(code);
      }
      break;
    }
    case TailType::kOid: {
      const Oid want = v.AsOid();
      for (Pos p : hits) out.AppendOid(head_[p], want);
      break;
    }
  }
  return out;
}

template Bat Bat::EmitEqHits(const std::vector<uint32_t>&, const Value&) const;
template Bat Bat::EmitEqHits(const std::vector<size_t>&, const Value&) const;

Result<Bat> Bat::SelectEq(const Value& v) const {
  if (v.type() != tail_type_) {
    return Status::InvalidArgument("SelectEq value type mismatch");
  }
  uint64_t key = 0;
  if (!ProbeKey(v, &key)) return Bat(tail_type_);
  if (auto idx = TailIndex(/*force=*/false)) {
    auto it = idx->map.find(key);
    return it == idx->map.end() ? Bat(tail_type_) : EmitEqHits(it->second, v);
  }
  std::vector<size_t> hits;
  for (size_t i = 0; i < size(); ++i) {
    if (TailKeyAt(i) == key) hits.push_back(i);
  }
  return EmitEqHits(hits, v);
}

Result<Bat> Bat::SelectRange(double lo, double hi) const {
  if (tail_type_ != TailType::kInt && tail_type_ != TailType::kFloat) {
    return Status::InvalidArgument("SelectRange requires a numeric tail");
  }
  Bat out(tail_type_);
  for (size_t i = 0; i < size(); ++i) {
    const double v =
        tail_type_ == TailType::kInt ? static_cast<double>(ints_[i])
                                     : floats_[i];
    if (v >= lo && v <= hi) out.AppendRowFrom(head_[i], *this, i);
  }
  return out;
}

Result<Bat> Bat::SelectStr(const std::string& s) const {
  if (tail_type_ != TailType::kStr) {
    return Status::InvalidArgument("SelectStr requires a str tail");
  }
  return SelectEq(Value::Str(s));
}

Result<Bat> Bat::Reverse() const {
  if (tail_type_ != TailType::kOid) {
    return Status::InvalidArgument("Reverse requires an oid tail");
  }
  Bat out(TailType::kOid);
  for (size_t i = 0; i < size(); ++i) out.AppendOid(oids_[i], head_[i]);
  return out;
}

Bat Bat::Mirror() const {
  Bat out(TailType::kOid);
  for (Oid h : head_) out.AppendOid(h, h);
  return out;
}

Bat Bat::Slice(size_t begin, size_t end) const {
  Bat out(tail_type_);
  const size_t e = std::min(end, size());
  for (size_t i = begin; i < e; ++i) out.AppendRowFrom(head_[i], *this, i);
  return out;
}

// -- Aggregates -------------------------------------------------------------

Result<double> Bat::Sum() const {
  if (tail_type_ != TailType::kInt && tail_type_ != TailType::kFloat) {
    return Status::InvalidArgument("Sum requires a numeric tail");
  }
  double acc = 0.0;
  if (tail_type_ == TailType::kInt) {
    for (int64_t v : ints_) acc += static_cast<double>(v);
  } else {
    for (double v : floats_) acc += v;
  }
  return acc;
}

Result<double> Bat::Max() const {
  COBRA_ASSIGN_OR_RETURN(size_t pos, ArgMax());
  return tail_type_ == TailType::kInt ? static_cast<double>(ints_[pos])
                                      : floats_[pos];
}

Result<double> Bat::Min() const {
  if (empty()) return Status::FailedPrecondition("Min of empty BAT");
  if (tail_type_ != TailType::kInt && tail_type_ != TailType::kFloat) {
    return Status::InvalidArgument("Min requires a numeric tail");
  }
  double best = tail_type_ == TailType::kInt ? static_cast<double>(ints_[0])
                                             : floats_[0];
  for (size_t i = 1; i < size(); ++i) {
    const double v = tail_type_ == TailType::kInt
                         ? static_cast<double>(ints_[i])
                         : floats_[i];
    if (BetterMin(v, best)) best = v;
  }
  return best;
}

Result<size_t> Bat::ArgMax() const {
  if (empty()) return Status::FailedPrecondition("ArgMax of empty BAT");
  if (tail_type_ != TailType::kInt && tail_type_ != TailType::kFloat) {
    return Status::InvalidArgument("ArgMax requires a numeric tail");
  }
  size_t best = 0;
  double best_v = tail_type_ == TailType::kInt ? static_cast<double>(ints_[0])
                                               : floats_[0];
  for (size_t i = 1; i < size(); ++i) {
    const double v = tail_type_ == TailType::kInt
                         ? static_cast<double>(ints_[i])
                         : floats_[i];
    if (BetterMax(v, best_v)) {
      best_v = v;
      best = i;
    }
  }
  return best;
}

// -- Binary operators -------------------------------------------------------

Result<Bat> Join(const Bat& a, const Bat& b) {
  if (a.tail_type() != TailType::kOid) {
    return Status::InvalidArgument("Join needs an oid tail on the left BAT");
  }
  Bat out(b.tail_type());
  if (auto idx = b.HeadIndex(/*force=*/true)) {
    for (size_t i = 0; i < a.size(); ++i) {
      auto it = idx->map.find(a.OidAt(i));
      if (it == idx->map.end()) continue;
      for (uint32_t j : it->second) out.AppendRowFrom(a.HeadAt(i), b, j);
    }
    return out;
  }
  // Past uint32 positions no index is kept: a throwaway build table.
  std::unordered_map<Oid, std::vector<size_t>> table;
  table.reserve(b.size());
  for (size_t j = 0; j < b.size(); ++j) table[b.HeadAt(j)].push_back(j);
  for (size_t i = 0; i < a.size(); ++i) {
    auto it = table.find(a.OidAt(i));
    if (it == table.end()) continue;
    for (size_t j : it->second) out.AppendRowFrom(a.HeadAt(i), b, j);
  }
  return out;
}

namespace {

/// Reference body of Semijoin/Diff: keeps rows of `a` whose head membership
/// among `b`'s heads equals `keep_present`.
Bat FilterByHead(const Bat& a, const Bat& b, bool keep_present) {
  const std::unordered_set<Oid> heads(b.heads().begin(), b.heads().end());
  Bat out(a.tail_type());
  for (size_t i = 0; i < a.size(); ++i) {
    if ((heads.count(a.HeadAt(i)) != 0) == keep_present) {
      out.AppendRowFrom(a.HeadAt(i), a, i);
    }
  }
  return out;
}

}  // namespace

Bat Semijoin(const Bat& a, const Bat& b) {
  return FilterByHead(a, b, /*keep_present=*/true);
}

Bat Diff(const Bat& a, const Bat& b) {
  return FilterByHead(a, b, /*keep_present=*/false);
}

Bat Group(const Bat& a, std::vector<size_t>* representatives) {
  Bat out(TailType::kOid);
  out.Reserve(a.size());
  std::unordered_map<uint64_t, Oid> group_of;
  if (representatives != nullptr) representatives->clear();
  for (size_t i = 0; i < a.size(); ++i) {
    auto [it, inserted] = group_of.try_emplace(
        a.TailKeyAt(i), static_cast<Oid>(group_of.size()));
    if (inserted && representatives != nullptr) {
      representatives->push_back(i);
    }
    out.AppendOid(a.HeadAt(i), it->second);
  }
  return out;
}

}  // namespace cobra::kernel

