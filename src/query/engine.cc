#include "query/engine.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "base/logging.h"
#include "base/strings.h"
#include "base/trace.h"
#include "kernel/persist.h"

namespace cobra::query {

namespace {

/// The storage verb `text` starts with — "PERSIST" or "RECOVER", any case,
/// after leading blanks — with `rest` set to the trimmed text after it; ""
/// for retrieval text. The one scan both the live dispatch and the
/// read-only rejection use.
std::string StorageVerb(std::string_view text, std::string_view* rest) {
  text = StrTrim(text);
  size_t len = 0;
  while (len < text.size() &&
         std::isalpha(static_cast<unsigned char>(text[len])) != 0) {
    ++len;
  }
  std::string verb = ToUpperAscii(text.substr(0, len));
  if (verb != "PERSIST" && verb != "RECOVER") return "";
  *rest = StrTrim(text.substr(len));
  return verb;
}

/// Sentinel for "no static upper bound" (dynamic extraction may materialize
/// any number of events). Rendered as `*` in text and -1 in JSON, matching
/// the trace layer's convention.
constexpr uint64_t kNoBound = ~uint64_t{0};

/// `"static_hi":N`, with -1 for kNoBound.
std::string StaticHiJson(uint64_t hi) {
  return hi == kNoBound ? std::string("\"static_hi\":-1")
                        : StrFormat("\"static_hi\":%llu",
                                    static_cast<unsigned long long>(hi));
}

std::string IntervalText(uint64_t lo, uint64_t hi) {
  if (hi == kNoBound) {
    return StrFormat("[%llu,*]", static_cast<unsigned long long>(lo));
  }
  return StrFormat("[%llu,%llu]", static_cast<unsigned long long>(lo),
                   static_cast<unsigned long long>(hi));
}

/// Static analysis of one event pattern over the catalog's metadata for
/// `video`: the scan cardinality, the post-filter interval, and one warning
/// per statically-dead predicate. All facts are exact catalog state — the
/// interval is sound because rows matching EVERY predicate are a subset of
/// rows matching each predicate alone.
struct PatternReport {
  bool deferred = false;  // no metadata yet: extraction would run at query time
  uint64_t scan_rows = 0;
  uint64_t lo = 0;
  uint64_t hi = kNoBound;
  std::vector<std::string> warnings;
};

PatternReport AnalyzePattern(const EventPattern& pattern, model::VideoId video,
                             bool secondary, const std::vector<AttrSite>& sites,
                             const ReadSurface& source) {
  PatternReport report;
  if (!source.HasEvents(video, pattern.type)) {
    // VerifyPlan already proved a provider exists; how many events it would
    // materialize is unknowable statically.
    report.deferred = true;
    report.lo = 0;
    report.hi = kNoBound;
    return report;
  }
  Result<std::vector<model::EventRecord>> rows =
      source.Events(video, pattern.type);
  if (!rows.ok()) {
    // Metadata raced away between HasEvents and the read; stay sound by
    // claiming nothing.
    report.deferred = true;
    return report;
  }
  report.scan_rows = rows->size();
  report.hi = rows->size();
  report.lo = pattern.attr_equals.empty() ? rows->size() : 0;
  for (const auto& [key, value] : pattern.attr_equals) {
    uint64_t matches = 0;
    for (const auto& event : *rows) {
      auto it = event.attrs.find(key);
      if (it != event.attrs.end() && ToUpperAscii(it->second) == value) {
        ++matches;
      }
    }
    report.hi = std::min(report.hi, matches);
    if (matches == 0) {
      std::string warning = StrFormat(
          "statically dead predicate: %s = '%s' matches no '%s' event",
          key.c_str(), value.c_str(), pattern.type.c_str());
      for (const AttrSite& site : sites) {
        if (site.secondary == secondary && site.key == key &&
            site.value == value) {
          warning = StrFormat("query:%d:%d: warning: %s", site.line, site.col,
                              warning.c_str());
          break;
        }
      }
      report.warnings.push_back(std::move(warning));
    }
  }
  return report;
}

}  // namespace

QueryEngine::QueryEngine(model::VideoCatalog* catalog,
                         extensions::ExtensionRegistry* registry,
                         std::string data_dir)
    : catalog_(catalog),
      registry_(registry),
      fs_(io::RealFilesystem()),
      data_dir_(std::move(data_dir)) {
  COBRA_CHECK(catalog != nullptr && registry != nullptr);
  if (data_dir_.empty()) {
    const char* env = std::getenv("COBRA_DATA_DIR");
    if (env != nullptr) data_dir_ = env;
  }
}

QueryEngine::~QueryEngine() {
  if (store_ != nullptr) {
    catalog_->AttachStore(nullptr);
    catalog_->session().catalog()->AttachStore(nullptr);
  }
}

Result<QueryAnalysis> ParseReadOnlyQuery(const std::string& text) {
  std::string_view rest;
  const std::string verb = StorageVerb(text, &rest);
  if (!verb.empty()) {
    return Status::FailedPrecondition(
        verb + " is a storage command — snapshot reads are read-only");
  }
  QueryAnalysis analysis = AnalyzeQueryTextWithFacts(text);
  COBRA_RETURN_IF_ERROR(analysis.diags.ToStatus("query"));
  return analysis;
}

Result<QueryResult> QueryEngine::Execute(const std::string& query_text) {
  // PERSIST / RECOVER are storage commands, not retrieval queries: they
  // are dispatched before the retrieval grammar, which never sees them.
  std::string_view rest;
  const std::string verb = StorageVerb(query_text, &rest);
  if (!verb.empty()) return ExecuteStorageCommand(verb == "PERSIST", rest);
  // One parse: malformed text is rejected here with line:column
  // diagnostics, before any operator runs.
  const QueryAnalysis analysis = AnalyzeQueryTextWithFacts(query_text);
  COBRA_RETURN_IF_ERROR(analysis.diags.ToStatus("query"));
  if (analysis.parsed.watch && watch_handler_ != nullptr) {
    // Continuous query: hand it to the installed host instead of running
    // the one-shot evaluator; matches arrive as notifications.
    COBRA_ASSIGN_OR_RETURN(const uint64_t id, watch_handler_(analysis));
    QueryResult result;
    result.watch_id = id;
    result.info = StrFormat("watch %llu registered",
                            static_cast<unsigned long long>(id));
    return result;
  }
  return Dispatch(analysis.parsed, analysis.attr_sites, *catalog_,
                  /*live=*/true);
}

Result<kernel::PersistentStore*> QueryEngine::EnsureStore(
    const std::string& dir) {
  if (store_ == nullptr || store_->dir() != dir) {
    if (store_ != nullptr) {
      catalog_->AttachStore(nullptr);
      catalog_->session().catalog()->AttachStore(nullptr);
    }
    auto store = std::make_unique<kernel::PersistentStore>(fs_, dir);
    COBRA_RETURN_IF_ERROR(store->Open());
    store_ = std::move(store);
    // From here on, model mutations are WAL-logged as they commit and the
    // kernel catalog reports the store in its stats.
    catalog_->AttachStore(store_.get());
    catalog_->session().catalog()->AttachStore(store_.get());
  }
  return store_.get();
}

Result<QueryResult> QueryEngine::ExecuteStorageCommand(bool persist,
                                                       std::string_view rest) {
  const char* verb = persist ? "PERSIST" : "RECOVER";
  std::string dir;
  if (rest.empty()) {
    if (data_dir_.empty()) {
      return Status::FailedPrecondition(StrFormat(
          "%s needs a target: say %s '<dir>' or set COBRA_DATA_DIR", verb,
          persist ? "PERSIST INTO" : "RECOVER FROM"));
    }
    dir = data_dir_;
  } else {
    std::string_view arg = rest;
    size_t kw = 0;
    while (kw < arg.size() &&
           std::isalpha(static_cast<unsigned char>(arg[kw])) != 0) {
      ++kw;
    }
    if (kw > 0) {
      const std::string keyword = ToUpperAscii(arg.substr(0, kw));
      if (keyword != (persist ? "INTO" : "FROM")) {
        return Status::InvalidArgument(
            StrFormat("%s: unexpected '%s' (expected %s '<dir>')", verb,
                      std::string(arg.substr(0, kw)).c_str(),
                      persist ? "INTO" : "FROM"));
      }
      arg = StrTrim(arg.substr(kw));
    }
    if (arg.size() < 2 || arg.front() != '\'' || arg.back() != '\'') {
      return Status::InvalidArgument(
          StrFormat("%s expects a quoted '<dir>'", verb));
    }
    dir = std::string(arg.substr(1, arg.size() - 2));
    if (dir.empty() || dir.find('\'') != std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("%s: malformed directory path", verb));
    }
  }

  QueryResult result;
  kernel::Catalog* kcat = catalog_->session().catalog();
  if (persist) {
    COBRA_ASSIGN_OR_RETURN(kernel::PersistentStore * store, EnsureStore(dir));
    COBRA_RETURN_IF_ERROR(catalog_->Checkpoint(store));
    result.info = StrFormat(
        "persisted %zu videos, %zu bats into %s (lsn %llu)",
        catalog_->Videos().size(), kcat->Names().size(), dir.c_str(),
        static_cast<unsigned long long>(store->last_lsn()));
    return result;
  }
  if (!kernel::PersistentStore::Exists(*fs_, dir)) {
    return Status::NotFound("no persistent store at " + dir);
  }
  COBRA_ASSIGN_OR_RETURN(kernel::PersistentStore * store, EnsureStore(dir));
  COBRA_ASSIGN_OR_RETURN(kernel::PersistentStore::RecoveryInfo info,
                         store->Recover(kcat));
  // A store written through this engine always carries the model payload;
  // one written by a bare kernel client (MIL `save`) restores BATs only.
  if (!info.extra.empty()) {
    COBRA_RETURN_IF_ERROR(
        catalog_->RestoreState(info.extra, info.event_version));
  }
  // Model mutations committed after the snapshot come back as opaque WAL
  // records; re-execute them in commit order on top of the restored state.
  for (const std::string& record : info.model_records) {
    COBRA_RETURN_IF_ERROR(catalog_->ApplyModelRecord(record));
  }
  // Cached results describe the pre-recovery catalog: drop them all.
  // Acceleration indexes were never serialized — they rebuild lazily on
  // first probe.
  ClearCache();
  result.info = StrFormat(
      "recovered %zu bats from %s (lsn %llu, %llu wal records%s)",
      info.bat_count, dir.c_str(), static_cast<unsigned long long>(info.lsn),
      static_cast<unsigned long long>(info.wal_records_applied),
      info.used_fallback_snapshot ? ", fallback snapshot" : "");
  return result;
}

Status QueryEngine::Ensure(const ReadSurface& source, bool live,
                           model::VideoId video, const std::string& type,
                           MethodPreference preference,
                           QueryResult* result) const {
  if (source.HasEvents(video, type)) return Status::OK();
  auto providers = registry_->Providers(type);
  if (providers.empty()) {
    return Status::NotFound("no metadata and no extraction method for '" +
                            type + "'");
  }
  if (!live) {
    return Status::FailedPrecondition(
        "snapshot read: no metadata for '" + type +
        "' — dynamic extraction requires a live read-write query");
  }
  // High-level optimization: pick the method by the requested preference.
  extensions::SemanticExtension* best = providers[0];
  for (auto* p : providers) {
    const bool better =
        preference == MethodPreference::kQuality
            ? p->Quality(type) > best->Quality(type)
            : p->Cost(type) < best->Cost(type);
    if (better) best = p;
  }
  COBRA_RETURN_IF_ERROR(best->Extract(video, type, catalog_));
  result->methods_invoked.push_back(best->name());
  result->extracted_dynamically = true;
  return Status::OK();
}

bool QueryEngine::MatchesPattern(const model::EventRecord& event,
                                 const EventPattern& pattern) {
  if (event.type != pattern.type) return false;
  for (const auto& [key, value] : pattern.attr_equals) {
    auto it = event.attrs.find(key);
    if (it == event.attrs.end()) return false;
    if (ToUpperAscii(it->second) != value) return false;
  }
  return true;
}

bool QueryEngine::TemporalMatch(TemporalOp op,
                                const model::EventRecord& primary,
                                const model::EventRecord& secondary) {
  const double pb = primary.begin_sec, pe = primary.end_sec;
  const double sb = secondary.begin_sec, se = secondary.end_sec;
  switch (op) {
    case TemporalOp::kNone:
      return true;
    case TemporalOp::kDuring:
      return pb >= sb && pe <= se;
    case TemporalOp::kOverlapping:
      return pb <= se && sb <= pe;
    case TemporalOp::kBefore:
      return pe <= sb;
    case TemporalOp::kAfter:
      return pb >= se;
    case TemporalOp::kContaining:
      return sb >= pb && se <= pe;
  }
  return false;
}

namespace {

/// Morsel-parallel, order-preserving filter over an event list.
template <typename Keep>
std::vector<model::EventRecord> FilterEvents(
    const kernel::ExecContext& exec,
    const std::vector<model::EventRecord>& events, const Keep& keep) {
  const size_t num = exec.NumMorsels(events.size());
  std::vector<std::vector<model::EventRecord>> parts(num);
  kernel::ForEachMorsel(
      exec, events.size(), [&](size_t m, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (keep(events[i])) parts[m].push_back(events[i]);
        }
      });
  std::vector<model::EventRecord> out;
  for (auto& part : parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

}  // namespace

std::string QueryEngine::CacheKey(const ParsedQuery& query) {
  std::string key = query.video;
  auto add_pattern = [&key](const EventPattern& p) {
    key += '\x1e';
    key += p.type;
    for (const auto& [k, v] : p.attr_equals) {
      key += '\x1f';
      key += k;
      key += '=';
      key += v;
    }
  };
  add_pattern(query.primary);
  key += '\x1e';
  key += static_cast<char>('0' + static_cast<int>(query.temporal_op));
  if (query.temporal_op != TemporalOp::kNone) add_pattern(query.secondary);
  key += '\x1e';
  key += static_cast<char>('0' + static_cast<int>(query.preference));
  return key;
}

CacheStats QueryEngine::cache_stats() const {
  MutexLock lock(cache_mu_);
  CacheStats stats;
  stats.hits = cache_hits_;
  stats.misses = cache_misses_;
  stats.evictions = cache_evictions_;
  stats.entries = lru_.size();
  stats.capacity = cache_capacity_;
  return stats;
}

size_t QueryEngine::cache_capacity() const {
  MutexLock lock(cache_mu_);
  return cache_capacity_;
}

void QueryEngine::EvictToCapacity(size_t capacity) const {
  while (lru_.size() > capacity) {
    cache_map_.erase(lru_.back().key);
    lru_.pop_back();
    ++cache_evictions_;
  }
}

void QueryEngine::set_cache_capacity(size_t capacity) {
  MutexLock lock(cache_mu_);
  cache_capacity_ = capacity;
  EvictToCapacity(cache_capacity_);
}

void QueryEngine::ClearCache() {
  MutexLock lock(cache_mu_);
  lru_.clear();
  cache_map_.clear();
}

QueryEngine::CacheOutcome QueryEngine::CacheLookup(
    const std::string& key, std::vector<model::EventRecord>* segments) const {
  MutexLock lock(cache_mu_);
  if (cache_capacity_ == 0) return CacheOutcome::kDisabled;
  auto it = cache_map_.find(key);
  const bool found = it != cache_map_.end();
  if (found && it->second->event_version == catalog_->event_version()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++cache_hits_;
    *segments = it->second->segments;
    return CacheOutcome::kHit;
  }
  if (found) {
    // Stale under the current event version: drop and re-evaluate.
    lru_.erase(it->second);
    cache_map_.erase(it);
  }
  ++cache_misses_;
  return found ? CacheOutcome::kStale : CacheOutcome::kMiss;
}

void QueryEngine::CacheStore(const std::string& key,
                             const std::vector<model::EventRecord>& segments,
                             uint64_t event_version) const {
  MutexLock lock(cache_mu_);
  if (cache_capacity_ == 0) return;
  lru_.push_front(CacheEntry{key, segments, event_version});
  cache_map_[key] = lru_.begin();
  EvictToCapacity(cache_capacity_);
}

Result<QueryResult> QueryEngine::Execute(const ParsedQuery& query) {
  return Dispatch(query, {}, *catalog_, /*live=*/true);
}

Result<QueryResult> QueryEngine::ExecuteSnapshot(
    const std::string& query_text, const ReadSurface& surface) const {
  COBRA_ASSIGN_OR_RETURN(const QueryAnalysis analysis,
                         ParseReadOnlyQuery(query_text));
  return Dispatch(analysis.parsed, analysis.attr_sites, surface,
                  /*live=*/false);
}

Result<QueryResult> QueryEngine::ExecuteSnapshot(
    const ParsedQuery& query, const ReadSurface& surface,
    const kernel::ExecContext& exec) const {
  return Run(query, surface, exec, /*live=*/false);
}

Result<QueryResult> QueryEngine::Dispatch(const ParsedQuery& query,
                                          const std::vector<AttrSite>& sites,
                                          const ReadSurface& surface,
                                          bool live) const {
  if (query.watch) {
    return Status::FailedPrecondition(
        live ? "WATCH needs a continuous-query host — submit it through the "
               "query server"
             : "WATCH is a continuous query — a snapshot read is one-shot");
  }
  if (query.explain) return ExecuteExplain(query, sites, surface);
  if (!query.profile) return Run(query, surface, exec_, live);
  // PROFILE: run under a per-query sink and attach its exports. The sink
  // lives on the stack — profiles are never stored in the result cache.
  trace::TraceSink sink;
  kernel::ExecContext exec = exec_;
  exec.trace = &sink;
  exec.trace_parent = nullptr;
  COBRA_ASSIGN_OR_RETURN(QueryResult result, Run(query, surface, exec, live));
  result.profile_text = sink.ToText();
  result.profile_json = sink.ToJson();
  return result;
}

Result<QueryResult> QueryEngine::Run(const ParsedQuery& query,
                                     const ReadSurface& surface,
                                     const kernel::ExecContext& exec,
                                     bool live) const {
  COBRA_ASSIGN_OR_RETURN(const ReadSurface source,
                         surface.Resolve(query.video));
  trace::SpanGuard span(exec.trace, exec.trace_parent, "query.execute");
  if (span.enabled()) {
    span.Detail(StrFormat("type=%s video=%s", query.primary.type.c_str(),
                          query.video.c_str()));
  }
  const kernel::ExecContext qctx = exec.WithTraceParent(span.span());

  QueryResult result;
  result.info = source.EpochStamp();

  // Pre-execution plan verification (the paper's preprocessor contract):
  // reject a plan whose video is unknown or whose event types have neither
  // metadata nor a registered extraction method, BEFORE the cache is
  // consulted or any extraction engine fires. Verification has no side
  // effects, so it is safe (and cheap) on the cached path too.
  {
    trace::SpanGuard verify(qctx.trace, qctx.trace_parent, "query.verify");
    const Status verdict = VerifyPlan(query, source, *registry_);
    if (verify.enabled()) {
      verify.Detail(verdict.ok() ? "ok" : verdict.message());
    }
    COBRA_RETURN_IF_ERROR(verdict);
  }

  // Only the live path consults the cache. A read-only read matches the
  // live span shape with cache capacity 0 (no query.cache_lookup span): the
  // snapshot IS its consistency story — identical epochs yield identical
  // bytes.
  std::string cache_key;
  if (live) {
    cache_key = CacheKey(query);
    std::vector<model::EventRecord> cached;
    const CacheOutcome outcome = CacheLookup(cache_key, &cached);
    if (outcome == CacheOutcome::kHit) {
      result.segments = std::move(cached);
      result.cache_hit = true;
      // Served from the cache: the profile states so instead of replaying
      // the timings recorded when the entry was originally computed.
      span.FromCache();
      span.RowsOut(result.segments.size());
      if (span.enabled()) {
        trace::SpanGuard lookup(qctx.trace, qctx.trace_parent,
                                "query.cache_lookup");
        lookup.Detail("hit");
        lookup.FromCache();
        lookup.RowsOut(result.segments.size());
      }
      return result;
    }
    if (outcome != CacheOutcome::kDisabled && span.enabled()) {
      trace::SpanGuard lookup(qctx.trace, qctx.trace_parent,
                              "query.cache_lookup");
      lookup.Detail(outcome == CacheOutcome::kStale ? "stale" : "miss");
    }
  }
  uint64_t version_at_read = 0;
  COBRA_ASSIGN_OR_RETURN(
      result.segments,
      EvaluateOver(query, qctx, source, live, &result, &version_at_read));
  span.RowsOut(result.segments.size());
  if (live) CacheStore(cache_key, result.segments, version_at_read);
  return result;
}

Result<std::vector<model::EventRecord>> QueryEngine::EvaluateOver(
    const ParsedQuery& query, const kernel::ExecContext& qctx,
    const ReadSurface& source, bool live, QueryResult* result,
    uint64_t* version_at_read) const {
  COBRA_ASSIGN_OR_RETURN(model::VideoDescriptor video,
                         source.FindVideo(query.video));

  {
    trace::SpanGuard prep(qctx.trace, qctx.trace_parent, "query.preprocess");
    COBRA_RETURN_IF_ERROR(Ensure(source, live, video.id, query.primary.type,
                                 query.preference, result));
    if (prep.enabled()) {
      prep.Detail("type=" + query.primary.type +
                  (result->extracted_dynamically
                       ? " extracted_by=" + result->methods_invoked.back()
                       : " metadata=present"));
    }
  }
  // Version the eventual cache entry at the moment the event lists are
  // read: a writer bumping the version after this point leaves the stored
  // entry already-stale (re-evaluated on next lookup), never wrongly
  // fresh. Captured after the primary extraction so our own extraction's
  // bump is inside the entry's version; a dynamic secondary extraction
  // self-invalidates the entry, which merely costs one recomputation.
  *version_at_read = source.EventVersion();
  COBRA_ASSIGN_OR_RETURN(auto primary_events,
                         source.Events(video.id, query.primary.type));

  std::vector<model::EventRecord> filtered;
  {
    trace::SpanGuard filter(qctx.trace, qctx.trace_parent, "query.filter");
    if (filter.enabled()) filter.Detail("type=" + query.primary.type);
    filter.RowsIn(primary_events.size());
    filter.Morsels(qctx.NumMorsels(primary_events.size()));
    // Static interval from the scan cardinality (a catalog fact): exact
    // with no predicates, [0, n] otherwise — PROFILE shows it next to the
    // observed rows_out, and the differential harness pins containment.
    filter.StaticCard(
        query.primary.attr_equals.empty() ? primary_events.size() : 0,
        primary_events.size());
    filtered = FilterEvents(qctx, primary_events, [&query](const auto& e) {
      return MatchesPattern(e, query.primary);
    });
    filter.RowsOut(filtered.size());
  }

  if (query.temporal_op != TemporalOp::kNone) {
    const size_t methods_before = result->methods_invoked.size();
    {
      trace::SpanGuard prep(qctx.trace, qctx.trace_parent, "query.preprocess");
      COBRA_RETURN_IF_ERROR(Ensure(source, live, video.id,
                                   query.secondary.type, query.preference,
                                   result));
      if (prep.enabled()) {
        prep.Detail("type=" + query.secondary.type +
                    (result->methods_invoked.size() > methods_before
                         ? " extracted_by=" + result->methods_invoked.back()
                         : " metadata=present"));
      }
    }
    COBRA_ASSIGN_OR_RETURN(auto secondary_events,
                           source.Events(video.id, query.secondary.type));
    std::vector<model::EventRecord> secondary;
    {
      trace::SpanGuard filter(qctx.trace, qctx.trace_parent, "query.filter");
      if (filter.enabled()) filter.Detail("type=" + query.secondary.type);
      filter.RowsIn(secondary_events.size());
      filter.Morsels(qctx.NumMorsels(secondary_events.size()));
      filter.StaticCard(
          query.secondary.attr_equals.empty() ? secondary_events.size() : 0,
          secondary_events.size());
      secondary = FilterEvents(qctx, secondary_events, [&query](const auto& e) {
        return MatchesPattern(e, query.secondary);
      });
      filter.RowsOut(secondary.size());
    }
    // Temporal semijoin: keep primaries with at least one temporal match.
    trace::SpanGuard join(qctx.trace, qctx.trace_parent,
                          "query.temporal_join");
    if (join.enabled()) {
      join.Detail("op=" + ToLowerAscii(TemporalOpKeyword(query.temporal_op)));
    }
    join.RowsIn(filtered.size() + secondary.size());
    join.Morsels(qctx.NumMorsels(filtered.size()));
    // A semijoin keeps a subset of the filtered primaries; none survive
    // when the secondary side is empty.
    join.StaticCard(0, secondary.empty() ? 0 : filtered.size());
    std::vector<model::EventRecord> joined =
        FilterEvents(qctx, filtered, [&](const auto& p) {
          for (const auto& s : secondary) {
            if (TemporalMatch(query.temporal_op, p, s)) return true;
          }
          return false;
        });
    join.RowsOut(joined.size());
    filtered = std::move(joined);
  }

  return filtered;
}

Result<QueryResult> QueryEngine::ExecuteExplain(
    const ParsedQuery& query, const std::vector<AttrSite>& sites,
    const ReadSurface& surface) const {
  COBRA_ASSIGN_OR_RETURN(const ReadSurface source,
                         surface.Resolve(query.video));
  // Identical failure surface to execution: an unknown video or an
  // unsatisfiable event type fails here exactly as execution would.
  COBRA_RETURN_IF_ERROR(VerifyPlan(query, source, *registry_));
  COBRA_ASSIGN_OR_RETURN(const model::VideoDescriptor video,
                         source.FindVideo(query.video));

  std::string text =
      StrFormat("explain: type=%s video=%s (static analysis only; nothing "
                "executed)\n",
                query.primary.type.c_str(), query.video.c_str());
  std::string json = "{\"explain\":{\"video\":";
  AppendJsonString(query.video, &json);
  json += ",\"operators\":[";
  std::vector<std::string> warnings;

  auto emit = [&text, &json](const char* op, const std::string& detail,
                             uint64_t lo, uint64_t hi) {
    text += StrFormat("  %s %s static=%s\n", op, detail.c_str(),
                      IntervalText(lo, hi).c_str());
    if (json.back() != '[') json += ',';
    json += StrFormat("{\"op\":\"%s\",\"detail\":", op);
    AppendJsonString(detail, &json);
    json += StrFormat(",\"static_lo\":%llu,%s}",
                      static_cast<unsigned long long>(lo),
                      StaticHiJson(hi).c_str());
  };
  // One pattern's scan and filter operators, plus its dead predicates.
  auto analyze = [&](const EventPattern& pattern, bool secondary) {
    PatternReport report =
        AnalyzePattern(pattern, video.id, secondary, sites, source);
    emit("scan",
         report.deferred
             ? StrFormat("type=%s events=? (dynamic extraction deferred to a "
                         "live query)",
                         pattern.type.c_str())
             : StrFormat("type=%s events=%llu", pattern.type.c_str(),
                         static_cast<unsigned long long>(report.scan_rows)),
         report.deferred ? 0 : report.scan_rows,
         report.deferred ? kNoBound : report.scan_rows);
    emit("filter", "type=" + pattern.type, report.lo, report.hi);
    warnings.insert(warnings.end(), report.warnings.begin(),
                    report.warnings.end());
    return report;
  };

  const PatternReport primary = analyze(query.primary, /*secondary=*/false);
  uint64_t final_lo = primary.lo;
  uint64_t final_hi = primary.hi;
  if (query.temporal_op != TemporalOp::kNone) {
    const PatternReport secondary =
        analyze(query.secondary, /*secondary=*/true);
    // The temporal semijoin keeps a subset of the filtered primaries, and
    // keeps none when the secondary side is provably empty.
    final_lo = 0;
    final_hi = secondary.hi == 0 ? 0 : primary.hi;
    emit("temporal_join",
         "op=" + ToLowerAscii(TemporalOpKeyword(query.temporal_op)), final_lo,
         final_hi);
  }

  text += StrFormat("  result static=%s\n",
                    IntervalText(final_lo, final_hi).c_str());
  for (const std::string& w : warnings) {
    text += w;
    text += '\n';
  }
  if (final_hi == 0) {
    text += "note: provably empty result — execution would return 0 "
            "segments\n";
  }

  json += StrFormat("],\"result\":{\"static_lo\":%llu,%s},\"warnings\":[",
                    static_cast<unsigned long long>(final_lo),
                    StaticHiJson(final_hi).c_str());
  for (size_t i = 0; i < warnings.size(); ++i) {
    if (i > 0) json += ',';
    AppendJsonString(warnings[i], &json);
  }
  json += StrFormat("],\"provably_empty\":%s}}",
                    final_hi == 0 ? "true" : "false");

  QueryResult result;
  result.profile_text = std::move(text);
  result.profile_json = std::move(json);
  result.info = source.EpochStamp();
  return result;
}

}  // namespace cobra::query
