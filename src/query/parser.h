#ifndef COBRA_QUERY_PARSER_H_
#define COBRA_QUERY_PARSER_H_

#include <map>
#include <string>
#include <vector>

#include "base/diag.h"
#include "base/status.h"

namespace cobra::query {

/// Temporal join operators between the primary and secondary event pattern.
enum class TemporalOp {
  kNone,
  kDuring,       // primary inside (or equal to) a secondary event
  kOverlapping,  // intervals intersect
  kBefore,       // primary ends before a secondary starts
  kAfter,        // primary starts after a secondary ends
  kContaining,   // primary contains a secondary event
};

/// The grammar's keyword for `op` ("DURING", ...); "" for kNone. The one
/// spelling of the temporal operators: the parser reads it, watch cursors
/// print it, and span/EXPLAIN details show it lowercased.
const char* TemporalOpKeyword(TemporalOp op);

/// Method-selection preference used by the query preprocessor when several
/// extensions could materialize a missing event type.
enum class MethodPreference { kQuality, kCost };

/// One event pattern: a type plus attribute equality filters.
struct EventPattern {
  std::string type;
  std::map<std::string, std::string> attr_equals;
};

/// Parsed form of the retrieval language:
///
///   [WATCH|PROFILE|EXPLAIN] RETRIEVE <type> FROM '<video>'
///     [WHERE <key> = '<value>' {AND <key> = '<value>'}]
///     [DURING|OVERLAPPING|BEFORE|AFTER|CONTAINING <type2>
///        [WHERE <key> = '<value>' {AND ...}]]
///     [PREFER QUALITY|COST]
///     [WINDOW <n>s]
///
/// e.g.  RETRIEVE highlight FROM 'german-gp' WHERE driver = 'SCHUMACHER'
///       RETRIEVE pitstop FROM 'usa-gp' DURING highlight PREFER COST
///       PROFILE RETRIEVE highlight FROM 'german-gp'
///       EXPLAIN RETRIEVE highlight FROM 'german-gp' WHERE driver = 'SENNA'
///       WATCH RETRIEVE overtaking FROM 'live-gp' WINDOW 30s
struct ParsedQuery {
  EventPattern primary;
  std::string video;
  TemporalOp temporal_op = TemporalOp::kNone;
  EventPattern secondary;
  MethodPreference preference = MethodPreference::kQuality;
  /// PROFILE prefix: execute normally AND return the execution's span tree
  /// (QueryResult::profile_text / profile_json). Not part of the plan — a
  /// profiled query shares its result-cache entry with the plain form.
  bool profile = false;
  /// EXPLAIN prefix: do NOT execute — return the plan analyzer's static
  /// report (per-operator cardinality intervals seeded from catalog facts,
  /// dead-predicate warnings, provably-empty notes) in
  /// QueryResult::profile_text / profile_json. No extraction runs, the
  /// result cache is never consulted, and `segments` is always empty.
  bool explain = false;
  /// WATCH prefix: register the query as a continuous query instead of
  /// executing it once. The engine hands it to the installed watch handler
  /// (query/continuous.h); notifications are delivered per appended batch.
  bool watch = false;
  /// WINDOW bound in seconds (`WINDOW 30s`); 0 means unbounded. Only valid
  /// together with WATCH — it bounds the *standing view* of a watch to
  /// segments ending within the trailing window; the notification stream
  /// itself is never window-filtered (batch-size invariance).
  double window_sec = 0.0;
};

/// One WHERE equality predicate with the 1-based position of its attribute
/// token — the anchor for the plan analyzer's dead-predicate warnings
/// ("query:L:C: warning: ..."). Key/value carry the parser's normalization
/// (lowercased key, uppercased value) so EXPLAIN can compare them against
/// catalog metadata exactly the way execution would.
struct AttrSite {
  int line = 1;
  int col = 1;
  bool secondary = false;  // predicate of the temporal clause's pattern
  std::string key;
  std::string value;
};

/// Everything one pass over retrieval-query text yields: the positioned
/// diagnostics, the parsed query, and the facts EXPLAIN and the
/// continuous-query layer consume. `parsed` and the facts are only
/// meaningful when `diags` is ok() (the walk stops at the first error).
struct QueryAnalysis {
  DiagnosticList diags;
  ParsedQuery parsed;
  /// Every WHERE predicate, in textual order.
  std::vector<AttrSite> attr_sites;
  /// 1-based position of the video-name token after FROM — the anchor for
  /// positioned watch-registration diagnostics ("query:L:C: ..." when a
  /// watch names an unregistered video).
  int video_line = 1;
  int video_col = 1;
};

/// The retrieval-language front end: one lexer and one grammar walk. A
/// syntax error is reported with the 1-based line/column of the offending
/// token and code InvalidArgument, so a rejected text never reaches an
/// operator.
QueryAnalysis AnalyzeQueryTextWithFacts(const std::string& text);

/// The diagnostics of AnalyzeQueryTextWithFacts alone.
DiagnosticList AnalyzeQueryText(const std::string& text);

/// The parse of AnalyzeQueryTextWithFacts alone; a syntax error is the
/// diagnostic's message and code without the position.
Result<ParsedQuery> ParseQuery(const std::string& text);

}  // namespace cobra::query

#endif  // COBRA_QUERY_PARSER_H_
