#include "cobra/video_model.h"

#include <algorithm>
#include <utility>

#include "base/io.h"
#include "base/logging.h"
#include "base/strings.h"
#include "kernel/persist.h"

namespace cobra::model {

VideoCatalog::VideoCatalog(kernel::Catalog* catalog)
    : catalog_(catalog), session_(catalog) {
  COBRA_CHECK(catalog != nullptr);
  moa::ClassDef video_class;
  video_class.name = "video";
  video_class.attributes = {
      {"name", kernel::TailType::kStr},
      {"duration", kernel::TailType::kFloat},
      {"fps", kernel::TailType::kFloat},
  };
  COBRA_CHECK(session_.DefineClass(video_class).ok());

  moa::ClassDef event_class;
  event_class.name = "event";
  event_class.attributes = {
      {"video", kernel::TailType::kOid},
      {"type", kernel::TailType::kStr},
      {"begin", kernel::TailType::kFloat},
      {"end", kernel::TailType::kFloat},
      {"confidence", kernel::TailType::kFloat},
      {"attrs", kernel::TailType::kStr},
  };
  COBRA_CHECK(session_.DefineClass(event_class).ok());

  moa::ClassDef object_class;
  object_class.name = "object";
  object_class.attributes = {
      {"video", kernel::TailType::kOid},
      {"class", kernel::TailType::kStr},
      {"name", kernel::TailType::kStr},
      {"attrs", kernel::TailType::kStr},
  };
  COBRA_CHECK(session_.DefineClass(object_class).ok());
}

namespace {

/// Leading magic of a serialized model payload (bump on layout changes).
constexpr char kStateMagic[] = "CBRAVID1";

/// Operation tags of the opaque kModel WAL records (stable on-disk values).
/// Each record is the tag byte followed by the operands listed; replay
/// re-executes the public mutation method, so oid allocation and mirror
/// updates reproduce the original run exactly.
enum class ModelOp : uint8_t {
  kVideo = 1,       // str name, f64 duration, f64 fps
  kFeature = 2,     // u64 video, str feature, u32 n, f64 value * n
  kObject = 3,      // u64 video, str class, str name, attrs
  kEvent = 4,       // u64 video, str type, f64 begin/end/conf, attrs, u64 ver
  kDropEvents = 5,  // u64 video, str type, u64 ver
};

void PutAttrs(std::string* out,
              const std::map<std::string, std::string>& attrs) {
  io::PutU32(out, static_cast<uint32_t>(attrs.size()));
  for (const auto& [k, v] : attrs) {
    io::PutStr(out, k);
    io::PutStr(out, v);
  }
}

bool ReadAttrs(io::ByteReader* r, std::map<std::string, std::string>* attrs) {
  uint32_t n = 0;
  if (!r->ReadU32(&n) || n > r->remaining()) return false;
  for (uint32_t i = 0; i < n; ++i) {
    std::string k;
    std::string v;
    if (!r->ReadStr(&k) || !r->ReadStr(&v)) return false;
    (*attrs)[std::move(k)] = std::move(v);
  }
  return true;
}

}  // namespace

Result<VideoId> VideoCatalog::RegisterVideo(const std::string& name,
                                            double duration_sec, double fps) {
  MutexLock write(write_mu_);
  MutexLock lock(mu_);
  for (const auto& v : videos_) {
    if (v.name == name) return Status::AlreadyExists("video exists: " + name);
  }
  COBRA_ASSIGN_OR_RETURN(kernel::Oid oid, session_.NewObject("video"));
  COBRA_RETURN_IF_ERROR(
      session_.SetAttr("video", oid, "name", kernel::Value::Str(name)));
  COBRA_RETURN_IF_ERROR(session_.SetAttr("video", oid, "duration",
                                         kernel::Value::Float(duration_sec)));
  COBRA_RETURN_IF_ERROR(
      session_.SetAttr("video", oid, "fps", kernel::Value::Float(fps)));
  VideoDescriptor desc;
  desc.id = oid;
  desc.name = name;
  desc.duration_sec = duration_sec;
  desc.fps = fps;
  videos_.push_back(desc);
  model_version_.fetch_add(1, std::memory_order_acq_rel);
  if (store_ != nullptr && !replaying_) {
    // Logged under the lock so records reach the WAL in mutation order;
    // replay re-executes them in that order, so the oid allocated above
    // comes out identical. Lock order model -> store is the only direction
    // either mutex pair is ever taken in.
    std::string rec;
    rec.push_back(static_cast<char>(ModelOp::kVideo));
    io::PutStr(&rec, name);
    io::PutF64(&rec, duration_sec);
    io::PutF64(&rec, fps);
    COBRA_RETURN_IF_ERROR(store_->LogModel(rec));
  }
  return oid;
}

Result<VideoDescriptor> VideoCatalog::GetVideo(VideoId id) const {
  MutexLock lock(mu_);
  for (const auto& v : videos_) {
    if (v.id == id) return v;
  }
  return Status::NotFound("no video with that id");
}

Result<VideoDescriptor> VideoCatalog::FindVideo(const std::string& name) const {
  MutexLock lock(mu_);
  for (const auto& v : videos_) {
    if (v.name == name) return v;
  }
  return Status::NotFound("no video named " + name);
}

std::vector<VideoDescriptor> VideoCatalog::Videos() const {
  MutexLock lock(mu_);
  return videos_;
}

std::string VideoCatalog::FeatureBatName(VideoId video,
                                         const std::string& feature) const {
  return StrFormat("feature.%llu.%s", static_cast<unsigned long long>(video),
                   feature.c_str());
}

Status VideoCatalog::StoreFeatureSeries(VideoId video,
                                        const std::string& feature,
                                        const std::vector<double>& values) {
  MutexLock write(write_mu_);
  const std::string bat_name = FeatureBatName(video, feature);
  if (catalog_->Exists(bat_name)) {
    COBRA_RETURN_IF_ERROR(catalog_->Drop(bat_name));
  }
  kernel::Bat bat(kernel::TailType::kFloat);
  for (size_t i = 0; i < values.size(); ++i) {
    bat.AppendFloat(static_cast<kernel::Oid>(i), values[i]);
  }
  catalog_->Put(bat_name, std::move(bat));
  MutexLock lock(mu_);
  auto& names = feature_names_[video];
  if (std::find(names.begin(), names.end(), feature) == names.end()) {
    names.push_back(feature);
  }
  model_version_.fetch_add(1, std::memory_order_acq_rel);
  if (store_ != nullptr && !replaying_) {
    std::string rec;
    rec.push_back(static_cast<char>(ModelOp::kFeature));
    io::PutU64(&rec, video);
    io::PutStr(&rec, feature);
    io::PutU32(&rec, static_cast<uint32_t>(values.size()));
    for (double v : values) io::PutF64(&rec, v);
    COBRA_RETURN_IF_ERROR(store_->LogModel(rec));
  }
  return Status::OK();
}

Result<std::vector<double>> VideoCatalog::LoadFeatureSeries(
    VideoId video, const std::string& feature) const {
  COBRA_ASSIGN_OR_RETURN(
      const kernel::Bat* bat,
      static_cast<const kernel::Catalog*>(catalog_)->Get(
          FeatureBatName(video, feature)));
  return bat->float_tails();
}

bool VideoCatalog::HasFeature(VideoId video, const std::string& feature) const {
  return catalog_->Exists(FeatureBatName(video, feature));
}

std::vector<std::string> VideoCatalog::FeatureNames(VideoId video) const {
  MutexLock lock(mu_);
  auto it = feature_names_.find(video);
  return it == feature_names_.end() ? std::vector<std::string>{} : it->second;
}

Status VideoCatalog::StoreObject(VideoId video, const ObjectRecord& object) {
  MutexLock write(write_mu_);
  COBRA_ASSIGN_OR_RETURN(kernel::Oid oid, session_.NewObject("object"));
  COBRA_RETURN_IF_ERROR(
      session_.SetAttr("object", oid, "video", kernel::Value::OfOid(video)));
  COBRA_RETURN_IF_ERROR(session_.SetAttr("object", oid, "class",
                                         kernel::Value::Str(object.cls)));
  COBRA_RETURN_IF_ERROR(
      session_.SetAttr("object", oid, "name", kernel::Value::Str(object.name)));
  std::vector<std::string> kv;
  for (const auto& [k, v] : object.attrs) kv.push_back(k + "=" + v);
  COBRA_RETURN_IF_ERROR(session_.SetAttr("object", oid, "attrs",
                                         kernel::Value::Str(StrJoin(kv, ";"))));
  MutexLock lock(mu_);
  objects_[video].push_back(object);
  model_version_.fetch_add(1, std::memory_order_acq_rel);
  if (store_ != nullptr && !replaying_) {
    std::string rec;
    rec.push_back(static_cast<char>(ModelOp::kObject));
    io::PutU64(&rec, video);
    io::PutStr(&rec, object.cls);
    io::PutStr(&rec, object.name);
    PutAttrs(&rec, object.attrs);
    COBRA_RETURN_IF_ERROR(store_->LogModel(rec));
  }
  return Status::OK();
}

Result<std::vector<ObjectRecord>> VideoCatalog::Objects(
    VideoId video, const std::string& cls) const {
  MutexLock lock(mu_);
  auto it = objects_.find(video);
  std::vector<ObjectRecord> out;
  if (it == objects_.end()) return out;
  for (const auto& obj : it->second) {
    if (cls.empty() || obj.cls == cls) out.push_back(obj);
  }
  return out;
}

Status VideoCatalog::StoreEvent(VideoId video, const EventRecord& event) {
  MutexLock write(write_mu_);
  COBRA_ASSIGN_OR_RETURN(kernel::Oid oid, session_.NewObject("event"));
  COBRA_RETURN_IF_ERROR(
      session_.SetAttr("event", oid, "video", kernel::Value::OfOid(video)));
  COBRA_RETURN_IF_ERROR(
      session_.SetAttr("event", oid, "type", kernel::Value::Str(event.type)));
  COBRA_RETURN_IF_ERROR(session_.SetAttr("event", oid, "begin",
                                         kernel::Value::Float(event.begin_sec)));
  COBRA_RETURN_IF_ERROR(session_.SetAttr("event", oid, "end",
                                         kernel::Value::Float(event.end_sec)));
  COBRA_RETURN_IF_ERROR(session_.SetAttr(
      "event", oid, "confidence", kernel::Value::Float(event.confidence)));
  std::vector<std::string> kv;
  for (const auto& [k, v] : event.attrs) kv.push_back(k + "=" + v);
  COBRA_RETURN_IF_ERROR(session_.SetAttr("event", oid, "attrs",
                                         kernel::Value::Str(StrJoin(kv, ";"))));
  MutexLock lock(mu_);
  events_[video].push_back(event);
  ++event_version_;
  model_version_.fetch_add(1, std::memory_order_acq_rel);
  if (store_ != nullptr && !replaying_) {
    // The record carries the bumped version, so the cache-invalidation
    // counter recovers alongside the event itself.
    std::string rec;
    rec.push_back(static_cast<char>(ModelOp::kEvent));
    io::PutU64(&rec, video);
    io::PutStr(&rec, event.type);
    io::PutF64(&rec, event.begin_sec);
    io::PutF64(&rec, event.end_sec);
    io::PutF64(&rec, event.confidence);
    PutAttrs(&rec, event.attrs);
    io::PutU64(&rec, event_version_);
    return store_->LogModel(rec);
  }
  return Status::OK();
}

Status VideoCatalog::StoreEvents(VideoId video,
                                 const std::vector<EventRecord>& events) {
  for (const auto& e : events) {
    COBRA_RETURN_IF_ERROR(StoreEvent(video, e));
  }
  return Status::OK();
}

Result<std::vector<EventRecord>> VideoCatalog::Events(
    VideoId video, const std::string& type) const {
  MutexLock lock(mu_);
  auto it = events_.find(video);
  std::vector<EventRecord> out;
  if (it != events_.end()) {
    for (const auto& e : it->second) {
      if (type.empty() || e.type == type) out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.begin_sec < b.begin_sec;
            });
  return out;
}

bool VideoCatalog::HasEvents(VideoId video, const std::string& type) const {
  MutexLock lock(mu_);
  auto it = events_.find(video);
  if (it == events_.end()) return false;
  for (const auto& e : it->second) {
    if (e.type == type) return true;
  }
  return false;
}

Status VideoCatalog::DropEvents(VideoId video, const std::string& type) {
  MutexLock write(write_mu_);
  MutexLock lock(mu_);
  auto it = events_.find(video);
  if (it == events_.end()) return Status::OK();
  auto& vec = it->second;
  vec.erase(std::remove_if(vec.begin(), vec.end(),
                           [&type](const EventRecord& e) {
                             return e.type == type;
                           }),
            vec.end());
  ++event_version_;
  model_version_.fetch_add(1, std::memory_order_acq_rel);
  if (store_ != nullptr && !replaying_) {
    std::string rec;
    rec.push_back(static_cast<char>(ModelOp::kDropEvents));
    io::PutU64(&rec, video);
    io::PutStr(&rec, type);
    io::PutU64(&rec, event_version_);
    return store_->LogModel(rec);
  }
  return Status::OK();
}

uint64_t VideoCatalog::event_version() const {
  MutexLock lock(mu_);
  return event_version_;
}

VideoCatalog::SnapshotState VideoCatalog::CaptureSnapshotState() const {
  MutexLock lock(mu_);
  SnapshotState state;
  state.event_version = event_version_;
  state.model_version = model_version_.load(std::memory_order_acquire);
  state.videos = videos_;
  state.events = events_;
  return state;
}

void VideoCatalog::AttachStore(kernel::PersistentStore* store) {
  MutexLock lock(mu_);
  store_ = store;
}

Status VideoCatalog::ApplyModelRecord(const std::string& record) {
  const Status corrupt(StatusCode::kIoError, "corrupt model wal record");
  io::ByteReader r(record);
  std::string op_byte;
  if (!r.ReadBytes(1, &op_byte)) return corrupt;

  // Recovery runs single-threaded, so flipping the flag around the
  // re-executed mutation cannot race another writer.
  {
    MutexLock lock(mu_);
    replaying_ = true;
  }
  Status status;
  uint64_t version = 0;
  bool has_version = false;
  switch (static_cast<ModelOp>(static_cast<uint8_t>(op_byte[0]))) {
    case ModelOp::kVideo: {
      std::string name;
      double duration = 0;
      double fps = 0;
      if (!r.ReadStr(&name) || !r.ReadF64(&duration) || !r.ReadF64(&fps)) {
        status = corrupt;
        break;
      }
      status = RegisterVideo(name, duration, fps).status();
      break;
    }
    case ModelOp::kFeature: {
      uint64_t video = 0;
      std::string feature;
      uint32_t n = 0;
      if (!r.ReadU64(&video) || !r.ReadStr(&feature) || !r.ReadU32(&n) ||
          n > r.remaining()) {
        status = corrupt;
        break;
      }
      std::vector<double> values(n);
      bool ok = true;
      for (uint32_t i = 0; i < n && ok; ++i) ok = r.ReadF64(&values[i]);
      status = ok ? StoreFeatureSeries(video, feature, values) : corrupt;
      break;
    }
    case ModelOp::kObject: {
      uint64_t video = 0;
      ObjectRecord object;
      if (!r.ReadU64(&video) || !r.ReadStr(&object.cls) ||
          !r.ReadStr(&object.name) || !ReadAttrs(&r, &object.attrs)) {
        status = corrupt;
        break;
      }
      status = StoreObject(video, object);
      break;
    }
    case ModelOp::kEvent: {
      uint64_t video = 0;
      EventRecord event;
      if (!r.ReadU64(&video) || !r.ReadStr(&event.type) ||
          !r.ReadF64(&event.begin_sec) || !r.ReadF64(&event.end_sec) ||
          !r.ReadF64(&event.confidence) || !ReadAttrs(&r, &event.attrs) ||
          !r.ReadU64(&version)) {
        status = corrupt;
        break;
      }
      has_version = true;
      status = StoreEvent(video, event);
      break;
    }
    case ModelOp::kDropEvents: {
      uint64_t video = 0;
      std::string type;
      if (!r.ReadU64(&video) || !r.ReadStr(&type) || !r.ReadU64(&version)) {
        status = corrupt;
        break;
      }
      has_version = true;
      status = DropEvents(video, type);
      break;
    }
    default:
      status = corrupt;
      break;
  }
  MutexLock lock(mu_);
  replaying_ = false;
  // The re-executed mutation bumped the counter from the restored base, which
  // normally lands exactly on the logged value; taking the max guards against
  // ever recovering to a version older than one a cached result has seen.
  if (status.ok() && has_version && version > event_version_) {
    event_version_ = version;
  }
  return status;
}

std::string VideoCatalog::SerializeState() const {
  MutexLock lock(mu_);
  std::string out(kStateMagic);
  io::PutU64(&out, event_version_);
  io::PutU64(&out, session_.next_oid());
  io::PutU32(&out, static_cast<uint32_t>(videos_.size()));
  for (const auto& v : videos_) {
    io::PutU64(&out, v.id);
    io::PutStr(&out, v.name);
    io::PutF64(&out, v.duration_sec);
    io::PutF64(&out, v.fps);
  }
  io::PutU32(&out, static_cast<uint32_t>(feature_names_.size()));
  for (const auto& [video, names] : feature_names_) {
    io::PutU64(&out, video);
    io::PutU32(&out, static_cast<uint32_t>(names.size()));
    for (const auto& name : names) io::PutStr(&out, name);
  }
  io::PutU32(&out, static_cast<uint32_t>(objects_.size()));
  for (const auto& [video, objects] : objects_) {
    io::PutU64(&out, video);
    io::PutU32(&out, static_cast<uint32_t>(objects.size()));
    for (const auto& o : objects) {
      io::PutStr(&out, o.cls);
      io::PutStr(&out, o.name);
      PutAttrs(&out, o.attrs);
    }
  }
  io::PutU32(&out, static_cast<uint32_t>(events_.size()));
  for (const auto& [video, events] : events_) {
    io::PutU64(&out, video);
    io::PutU32(&out, static_cast<uint32_t>(events.size()));
    for (const auto& e : events) {
      io::PutStr(&out, e.type);
      io::PutF64(&out, e.begin_sec);
      io::PutF64(&out, e.end_sec);
      io::PutF64(&out, e.confidence);
      PutAttrs(&out, e.attrs);
    }
  }
  return out;
}

Status VideoCatalog::Checkpoint(kernel::PersistentStore* store) {
  MutexLock write(write_mu_);
  return store->Checkpoint(*catalog_, SerializeState());
}

Status VideoCatalog::RestoreState(const std::string& payload,
                                  uint64_t wal_event_version) {
  const Status corrupt(StatusCode::kIoError, "corrupt video-model payload");
  io::ByteReader r(payload);
  std::string magic;
  if (!r.ReadBytes(sizeof(kStateMagic) - 1, &magic) || magic != kStateMagic) {
    return corrupt;
  }
  uint64_t event_version = 0;
  uint64_t next_oid = 0;
  if (!r.ReadU64(&event_version) || !r.ReadU64(&next_oid)) return corrupt;

  // Decode into locals first: a corrupt payload must not leave the catalog
  // half-replaced.
  std::vector<VideoDescriptor> videos;
  uint32_t n = 0;
  if (!r.ReadU32(&n) || n > r.remaining()) return corrupt;
  for (uint32_t i = 0; i < n; ++i) {
    VideoDescriptor v;
    if (!r.ReadU64(&v.id) || !r.ReadStr(&v.name) ||
        !r.ReadF64(&v.duration_sec) || !r.ReadF64(&v.fps)) {
      return corrupt;
    }
    videos.push_back(std::move(v));
  }
  std::map<VideoId, std::vector<std::string>> feature_names;
  if (!r.ReadU32(&n) || n > r.remaining()) return corrupt;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t video = 0;
    uint32_t count = 0;
    if (!r.ReadU64(&video) || !r.ReadU32(&count) || count > r.remaining()) {
      return corrupt;
    }
    auto& names = feature_names[video];
    for (uint32_t j = 0; j < count; ++j) {
      std::string name;
      if (!r.ReadStr(&name)) return corrupt;
      names.push_back(std::move(name));
    }
  }
  std::map<VideoId, std::vector<ObjectRecord>> objects;
  if (!r.ReadU32(&n) || n > r.remaining()) return corrupt;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t video = 0;
    uint32_t count = 0;
    if (!r.ReadU64(&video) || !r.ReadU32(&count) || count > r.remaining()) {
      return corrupt;
    }
    auto& list = objects[video];
    for (uint32_t j = 0; j < count; ++j) {
      ObjectRecord o;
      if (!r.ReadStr(&o.cls) || !r.ReadStr(&o.name) || !ReadAttrs(&r, &o.attrs)) {
        return corrupt;
      }
      list.push_back(std::move(o));
    }
  }
  std::map<VideoId, std::vector<EventRecord>> events;
  if (!r.ReadU32(&n) || n > r.remaining()) return corrupt;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t video = 0;
    uint32_t count = 0;
    if (!r.ReadU64(&video) || !r.ReadU32(&count) || count > r.remaining()) {
      return corrupt;
    }
    auto& list = events[video];
    for (uint32_t j = 0; j < count; ++j) {
      EventRecord e;
      if (!r.ReadStr(&e.type) || !r.ReadF64(&e.begin_sec) ||
          !r.ReadF64(&e.end_sec) || !r.ReadF64(&e.confidence) ||
          !ReadAttrs(&r, &e.attrs)) {
        return corrupt;
      }
      list.push_back(std::move(e));
    }
  }
  if (!r.exhausted()) return corrupt;

  MutexLock lock(mu_);
  videos_ = std::move(videos);
  feature_names_ = std::move(feature_names);
  objects_ = std::move(objects);
  events_ = std::move(events);
  event_version_ = std::max(event_version, wal_event_version);
  // RECOVER replaces the whole queryable state: every published snapshot is
  // stale, whatever it was built from.
  model_version_.fetch_add(1, std::memory_order_acq_rel);
  session_.set_next_oid(next_oid);
  return Status::OK();
}

rules::EventFact VideoCatalog::ToFact(const EventRecord& event) {
  rules::EventFact fact;
  fact.type = event.type;
  fact.span = rules::TimeInterval{event.begin_sec, event.end_sec};
  fact.attrs = event.attrs;
  fact.confidence = event.confidence;
  return fact;
}

EventRecord VideoCatalog::FromFact(const rules::EventFact& fact) {
  EventRecord event;
  event.type = fact.type;
  event.begin_sec = fact.span.begin;
  event.end_sec = fact.span.end;
  event.attrs = fact.attrs;
  event.confidence = fact.confidence;
  return event;
}

}  // namespace cobra::model
