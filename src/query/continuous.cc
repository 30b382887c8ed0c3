#include "query/continuous.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/io.h"
#include "base/strings.h"
#include "base/trace.h"

namespace cobra::query {
namespace {

uint64_t DoubleBits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

void AppendWhere(std::string* text, const EventPattern& pattern) {
  bool first = true;
  for (const auto& [key, value] : pattern.attr_equals) {
    *text += first ? " WHERE " : " AND ";
    first = false;
    *text += key + " = '" + value + "'";
  }
}

}  // namespace

ContinuousQueryManager::ContinuousQueryManager(const QueryEngine* engine,
                                               SnapshotManager* snapshots,
                                               kernel::Catalog* kernel)
    : engine_(engine), snapshots_(snapshots), kernel_(kernel) {}

void ContinuousQueryManager::Attach(QueryEngine* engine) {
  engine->set_watch_handler(
      [this](const QueryAnalysis& analysis) { return Register(analysis); });
}

Result<uint64_t> ContinuousQueryManager::Register(
    const QueryAnalysis& analysis) {
  const ParsedQuery& query = analysis.parsed;
  if (!query.watch) {
    return Status::InvalidArgument("not a WATCH query");
  }
  // The video must exist now — a typo'd name would otherwise just never
  // notify. The event types deliberately need no metadata yet: a watch's
  // whole point is waiting for data that hasn't arrived.
  SnapshotManager::Pin pin = snapshots_->Acquire();
  if (Result<model::VideoDescriptor> video = pin->FindVideo(query.video);
      !video.ok()) {
    return Status(
        video.status().code(),
        StrFormat("query:%d:%d: error: %s", analysis.video_line,
                  analysis.video_col, video.status().message().c_str()));
  }
  Watch w;
  w.id = next_id_++;
  w.inner = query;
  w.inner.watch = false;
  w.inner.profile = false;
  w.inner.explain = false;
  w.inner.window_sec = 0.0;
  w.window_sec = query.window_sec;
  const uint64_t id = w.id;
  watches_.emplace(id, std::move(w));
  ++stats_.registered;
  return id;
}

Result<uint64_t> ContinuousQueryManager::RegisterText(const std::string& text) {
  const QueryAnalysis analysis = AnalyzeQueryTextWithFacts(text);
  COBRA_RETURN_IF_ERROR(analysis.diags.ToStatus("query"));
  return Register(analysis);
}

Status ContinuousQueryManager::Unregister(uint64_t id) {
  if (watches_.erase(id) == 0) {
    return Status::NotFound(
        StrFormat("no watch %llu", static_cast<unsigned long long>(id)));
  }
  return Status::OK();
}

bool ContinuousQueryManager::GateSkips(const Watch& w,
                                       const CatalogSnapshot& snap,
                                       uint64_t* type_rows,
                                       uint64_t* primary_count,
                                       uint64_t* secondary_count) const {
  *type_rows = 0;
  *primary_count = 0;
  *secondary_count = 0;
  if (kernel_ == nullptr) return false;
  const kernel::Catalog* kernel = kernel_;
  Result<const kernel::Bat*> bat = kernel->Get("event.type");
  if (bat.ok()) {
    const kernel::Bat& types = *bat.value();
    *type_rows = types.size();
    Result<uint64_t> primary =
        types.CountEq(kernel::Value::Str(w.inner.primary.type));
    if (!primary.ok()) return false;
    *primary_count = primary.value();
    if (w.inner.temporal_op != TemporalOp::kNone) {
      Result<uint64_t> secondary =
          types.CountEq(kernel::Value::Str(w.inner.secondary.type));
      if (!secondary.ok()) return false;
      *secondary_count = secondary.value();
    }
  }
  if (!w.evaluated_once) return false;
  // Appends-only proof: every event append adds exactly one `event.type`
  // row, so a version delta that equals the row delta rules out drops and
  // rewrites; unchanged per-type cardinalities then prove none of the
  // appended rows is of a type this watch reads.
  const uint64_t version_delta = snap.event_version() - w.last_version;
  if (version_delta != *type_rows - w.last_type_rows) return false;
  return *primary_count == w.last_primary_count &&
         *secondary_count == w.last_secondary_count;
}

Status ContinuousQueryManager::PumpWatch(Watch* w, const CatalogSnapshot& snap,
                                         const kernel::ExecContext& ctx,
                                         std::vector<WatchNotification>* out) {
  if (w->evaluated_once && snap.event_version() == w->last_version) {
    ++stats_.skipped_evals;
    return Status::OK();
  }
  uint64_t type_rows = 0;
  uint64_t primary_count = 0;
  uint64_t secondary_count = 0;
  if (GateSkips(*w, snap, &type_rows, &primary_count, &secondary_count)) {
    ++stats_.skipped_evals;
    w->last_version = snap.event_version();
    w->last_type_rows = type_rows;
    w->last_primary_count = primary_count;
    w->last_secondary_count = secondary_count;
    return Status::OK();
  }
  trace::SpanGuard span(ctx.trace, ctx.trace_parent, "watch.eval");
  if (span.enabled()) {
    span.Detail(StrFormat("watch=%llu type=%s video=%s",
                          static_cast<unsigned long long>(w->id),
                          w->inner.primary.type.c_str(),
                          w->inner.video.c_str()));
  }
  const kernel::ExecContext child = ctx.WithTraceParent(span.span());
  Result<QueryResult> result = engine_->ExecuteSnapshot(w->inner, snap, child);
  if (!result.ok()) {
    // A watch registered before its data is extractable fails here (e.g.
    // snapshot reads never extract dynamically); it stays registered and
    // retries on the next pump.
    ++stats_.eval_errors;
    return Status::OK();
  }
  ++stats_.evals;
  w->evaluated_once = true;
  w->last_version = snap.event_version();
  w->last_type_rows = type_rows;
  w->last_primary_count = primary_count;
  w->last_secondary_count = secondary_count;
  w->last_segments = result.value().segments;
  span.RowsIn(result.value().segments.size());
  for (const model::EventRecord& segment : result.value().segments) {
    w->watermark = std::max(w->watermark, segment.end_sec);
    if (!w->seen.insert(SegmentKey(segment)).second) continue;
    WatchNotification n;
    n.watch_id = w->id;
    n.seq = ++w->seq;
    n.epoch = snap.epoch();
    n.version = snap.event_version();
    n.segment = segment;
    out->push_back(std::move(n));
    ++stats_.notifications;
    span.RowsOut(1);
  }
  return Status::OK();
}

Status ContinuousQueryManager::Pump(std::vector<WatchNotification>* out) {
  return Pump(engine_->exec(), out);
}

Status ContinuousQueryManager::Pump(const kernel::ExecContext& ctx,
                                    std::vector<WatchNotification>* out) {
  SnapshotManager::Pin pin = snapshots_->Acquire();
  return PumpOver(*pin, ctx, out);
}

Status ContinuousQueryManager::PumpOver(const CatalogSnapshot& snap,
                                        const kernel::ExecContext& ctx,
                                        std::vector<WatchNotification>* out) {
  for (auto& [id, watch] : watches_) {
    COBRA_RETURN_IF_ERROR(PumpWatch(&watch, snap, ctx, out));
  }
  return Status::OK();
}

Result<std::vector<model::EventRecord>> ContinuousQueryManager::Standing(
    uint64_t id) const {
  auto it = watches_.find(id);
  if (it == watches_.end()) {
    return Status::NotFound(
        StrFormat("no watch %llu", static_cast<unsigned long long>(id)));
  }
  const Watch& w = it->second;
  if (w.window_sec <= 0.0) return w.last_segments;
  std::vector<model::EventRecord> out;
  for (const model::EventRecord& e : w.last_segments) {
    if (e.end_sec >= w.watermark - w.window_sec) out.push_back(e);
  }
  return out;
}

std::string ContinuousQueryManager::CanonicalText(const Watch& w) {
  std::string text = "WATCH RETRIEVE " + w.inner.primary.type + " FROM '" +
                     w.inner.video + "'";
  AppendWhere(&text, w.inner.primary);
  if (w.inner.temporal_op != TemporalOp::kNone) {
    text += std::string(" ") + TemporalOpKeyword(w.inner.temporal_op) + " " +
            w.inner.secondary.type;
    AppendWhere(&text, w.inner.secondary);
  }
  if (w.inner.preference == MethodPreference::kCost) text += " PREFER COST";
  if (w.window_sec > 0.0) text += StrFormat(" WINDOW %gs", w.window_sec);
  return text;
}

std::string ContinuousQueryManager::SegmentKey(const model::EventRecord& e) {
  std::string key = StrFormat(
      "%s|%016llx|%016llx|%016llx", e.type.c_str(),
      static_cast<unsigned long long>(DoubleBits(e.begin_sec)),
      static_cast<unsigned long long>(DoubleBits(e.end_sec)),
      static_cast<unsigned long long>(DoubleBits(e.confidence)));
  for (const auto& [k, v] : e.attrs) key += "|" + k + "=" + v;
  return key;
}

std::string ContinuousQueryManager::SerializeCursors() const {
  std::string out;
  io::PutU64(&out, next_id_);
  io::PutU64(&out, watches_.size());
  for (const auto& [id, w] : watches_) {
    io::PutU64(&out, id);
    io::PutStr(&out, CanonicalText(w));
    io::PutU64(&out, w.seq);
    io::PutF64(&out, w.watermark);
    io::PutU64(&out, w.seen.size());
    for (const std::string& key : w.seen) io::PutStr(&out, key);
  }
  return out;
}

Status ContinuousQueryManager::RestoreCursors(const std::string& payload) {
  const Status corrupt = Status::InvalidArgument("corrupt watch cursors");
  io::ByteReader r(payload);
  uint64_t next_id = 0;
  uint64_t count = 0;
  if (!r.ReadU64(&next_id) || !r.ReadU64(&count)) return corrupt;
  std::map<uint64_t, Watch> restored;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    std::string text;
    if (!r.ReadU64(&id) || !r.ReadStr(&text)) return corrupt;
    COBRA_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(text));
    Watch w;
    w.id = id;
    w.inner = parsed;
    w.inner.watch = false;
    w.inner.window_sec = 0.0;
    w.window_sec = parsed.window_sec;
    if (!r.ReadU64(&w.seq) || !r.ReadF64(&w.watermark)) return corrupt;
    uint64_t seen = 0;
    if (!r.ReadU64(&seen)) return corrupt;
    for (uint64_t k = 0; k < seen; ++k) {
      std::string key;
      if (!r.ReadStr(&key)) return corrupt;
      w.seen.insert(std::move(key));
    }
    // Gate state is deliberately NOT restored: the first pump after a
    // restore re-evaluates, and the seen set suppresses duplicates — so a
    // crash between a durable append and its notification delivers exactly
    // once, never zero or twice.
    restored.emplace(id, std::move(w));
  }
  watches_ = std::move(restored);
  next_id_ = next_id;
  return Status::OK();
}

}  // namespace cobra::query
