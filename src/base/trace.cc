#include "base/trace.h"

#include <atomic>
#include <cctype>

#include "base/strings.h"

namespace cobra::trace {

namespace {

std::atomic<uint64_t> g_spans_allocated{0};

void AppendIndented(const Span& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += span.name;
  if (!span.detail.empty()) {
    *out += " (";
    *out += span.detail;
    *out += ")";
  }
  *out += StrFormat(" %.6fs", span.seconds);
  *out += StrFormat(" rows_in=%llu rows_out=%llu",
                    static_cast<unsigned long long>(span.rows_in),
                    static_cast<unsigned long long>(span.rows_out));
  if (span.has_static_card) {
    if (span.static_hi == UINT64_MAX) {
      *out += StrFormat(" static=[%llu,*]",
                        static_cast<unsigned long long>(span.static_lo));
    } else {
      *out += StrFormat(" static=[%llu,%llu]",
                        static_cast<unsigned long long>(span.static_lo),
                        static_cast<unsigned long long>(span.static_hi));
    }
  }
  if (span.morsels != 0) {
    *out += StrFormat(" morsels=%llu",
                      static_cast<unsigned long long>(span.morsels));
  }
  if (span.index_probes != 0 || span.index_builds != 0 ||
      span.index_invalidations != 0) {
    *out += StrFormat(" index[probes=%llu builds=%llu invalidations=%llu]",
                      static_cast<unsigned long long>(span.index_probes),
                      static_cast<unsigned long long>(span.index_builds),
                      static_cast<unsigned long long>(span.index_invalidations));
  }
  if (span.dict_hits != 0) {
    *out += StrFormat(" dict_hits=%llu",
                      static_cast<unsigned long long>(span.dict_hits));
  }
  if (span.from_cache) *out += " from_cache";
  *out += "\n";
  for (const auto& child : span.children) {
    AppendIndented(*child, depth + 1, out);
  }
}

void AppendJson(const Span& span, std::string* out) {
  *out += "{\"name\":";
  AppendJsonString(span.name, out);
  *out += ",\"detail\":";
  AppendJsonString(span.detail, out);
  *out += StrFormat(",\"seconds\":%.6f", span.seconds);
  *out += StrFormat(",\"rows_in\":%llu",
                    static_cast<unsigned long long>(span.rows_in));
  *out += StrFormat(",\"rows_out\":%llu",
                    static_cast<unsigned long long>(span.rows_out));
  if (span.has_static_card) {
    // static_hi of UINT64_MAX (unbounded above) exports as -1 so consumers
    // never mistake the sentinel for a real bound.
    *out += StrFormat(",\"static_lo\":%llu",
                      static_cast<unsigned long long>(span.static_lo));
    if (span.static_hi == UINT64_MAX) {
      *out += ",\"static_hi\":-1";
    } else {
      *out += StrFormat(",\"static_hi\":%llu",
                        static_cast<unsigned long long>(span.static_hi));
    }
  }
  *out += StrFormat(",\"morsels\":%llu",
                    static_cast<unsigned long long>(span.morsels));
  *out += StrFormat(",\"index_probes\":%llu",
                    static_cast<unsigned long long>(span.index_probes));
  *out += StrFormat(",\"index_builds\":%llu",
                    static_cast<unsigned long long>(span.index_builds));
  *out += StrFormat(",\"index_invalidations\":%llu",
                    static_cast<unsigned long long>(span.index_invalidations));
  *out += StrFormat(",\"dict_hits\":%llu",
                    static_cast<unsigned long long>(span.dict_hits));
  *out += StrFormat(",\"from_cache\":%s", span.from_cache ? "true" : "false");
  *out += ",\"children\":[";
  for (size_t i = 0; i < span.children.size(); ++i) {
    if (i > 0) *out += ',';
    AppendJson(*span.children[i], out);
  }
  *out += "]}";
}

}  // namespace

Span* TraceSink::StartSpan(Span* parent, std::string_view name) {
  auto span = std::make_unique<Span>();
  span->name.assign(name.data(), name.size());
  Span* raw = span.get();
  g_spans_allocated.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(mu_);
  if (parent == nullptr) {
    roots_.push_back(std::move(span));
  } else {
    parent->children.push_back(std::move(span));
  }
  return raw;
}

void TraceSink::Clear() {
  MutexLock lock(mu_);
  roots_.clear();
}

size_t TraceSink::root_count() const {
  MutexLock lock(mu_);
  return roots_.size();
}

std::string TraceSink::ToText() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& root : roots_) AppendIndented(*root, 0, &out);
  return out;
}

std::string TraceSink::ToJson() const {
  MutexLock lock(mu_);
  std::string out = "[";
  for (size_t i = 0; i < roots_.size(); ++i) {
    if (i > 0) out += ',';
    AppendJson(*roots_[i], &out);
  }
  out += "]";
  return out;
}

uint64_t SpansAllocated() {
  return g_spans_allocated.load(std::memory_order_relaxed);
}

// -- JSON validation ----------------------------------------------------------

namespace {

/// Strict recursive-descent JSON checker. Depth-limited so adversarial
/// inputs cannot overflow the stack.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  Status Check() {
    COBRA_RETURN_IF_ERROR(Value(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          StrFormat("trailing JSON content at offset %zu", pos_));
    }
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status Value(int depth) {
    if (depth > kMaxDepth) {
      return Status::InvalidArgument("JSON nested too deeply");
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of JSON");
    }
    const char c = text_[pos_];
    if (c == '{') return Object(depth);
    if (c == '[') return Array(depth);
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    if (c == '-' || (c >= '0' && c <= '9')) return Number();
    return Status::InvalidArgument(
        StrFormat("unexpected JSON character '%c' at offset %zu", c, pos_));
  }

  Status Object(int depth) {
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::InvalidArgument("expected JSON object key");
      }
      COBRA_RETURN_IF_ERROR(String());
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Status::InvalidArgument("expected ':' in JSON object");
      }
      ++pos_;
      COBRA_RETURN_IF_ERROR(Value(depth + 1));
      SkipSpace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("unterminated JSON object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Status::InvalidArgument("expected ',' or '}' in JSON object");
    }
  }

  Status Array(int depth) {
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      COBRA_RETURN_IF_ERROR(Value(depth + 1));
      SkipSpace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("unterminated JSON array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Status::InvalidArgument("expected ',' or ']' in JSON array");
    }
  }

  Status String() {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Status::InvalidArgument("raw control character in JSON string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return Status::InvalidArgument("bad \\u escape in JSON string");
            }
          }
          pos_ += 4;
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return Status::InvalidArgument("bad escape in JSON string");
        }
      }
      ++pos_;
    }
    return Status::InvalidArgument("unterminated JSON string");
  }

  Status Number() {
    const size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
      return Status::InvalidArgument("bad JSON number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const size_t frac = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac) {
        return Status::InvalidArgument("bad JSON number fraction");
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const size_t exp = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp) {
        return Status::InvalidArgument("bad JSON number exponent");
      }
    }
    return Status::OK();
  }

  Status Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Status::InvalidArgument("bad JSON literal");
    }
    pos_ += word.size();
    return Status::OK();
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Status ValidateJson(std::string_view text) {
  return JsonChecker(text).Check();
}

}  // namespace cobra::trace
