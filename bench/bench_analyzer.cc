// Overhead of the pre-execution verifiers.
//
// Every MIL Execute() runs a static analysis pass before the first
// operator; this bench pins that tax as analysis-seconds next to full
// execution-seconds for representative inputs:
//
//   mil_pipeline   — the Fig. 4-shaped select/join/aggregate script
//   mil_wide       — a long straight-line script (500 statements)
//   mil_deep       — an expression near the nesting limit
//
// `overhead` is analyze-seconds / execute-seconds of the same input.
//
// A second section measures the ACCURACY of the abstract interpreter's
// static cardinality intervals against observed execution: a traced plan
// matrix (selects of swept selectivity, joins, groups, at 1/2/7 shards)
// runs and every stamped span contributes (static_lo, static_hi, rows_out).
// Reported per shard count: containment rate (the soundness invariant —
// must be 1.0), finite-bound rate, exact rate (lo == hi), and the mean
// interval width relative to the input size (tightness; lower is better).
//
// Results go to BENCH_analyzer.json (schema-validated) for the trajectory.

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/diag.h"
#include "base/logging.h"
#include "base/strings.h"
#include "base/trace.h"
#include "kernel/bat.h"
#include "kernel/catalog.h"
#include "kernel/mil.h"

namespace cobra::kernel {
namespace {

double BestOfSeconds(int reps, const std::function<void()>& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string op;
  std::string variant;  // "analyze" or "execute"
  double seconds;
  double overhead;  // analyze seconds / execute seconds
};

void RunPair(const std::string& op, const std::function<void()>& analyze,
             const std::function<void()>& execute, std::vector<Row>* out) {
  const double analyze_s = BestOfSeconds(20, analyze);
  const double execute_s = BestOfSeconds(20, execute);
  std::printf("  %-12s analyze %9.6fs   execute %9.6fs   %6.3fx\n", op.c_str(),
              analyze_s, execute_s, analyze_s / execute_s);
  out->push_back({op, "analyze", analyze_s, analyze_s / execute_s});
  out->push_back({op, "execute", execute_s, analyze_s / execute_s});
}

// Aggregate over every span the abstract interpreter stamped with a
// static cardinality interval during a traced execution.
struct AccuracyStats {
  int shards = 0;
  size_t spans = 0;      // spans carrying has_static_card
  size_t contained = 0;  // static_lo <= rows_out <= static_hi
  size_t finite = 0;     // static_hi != kCardUnbounded
  size_t exact = 0;      // finite and static_lo == static_hi
  double width_sum = 0;  // sum of (static_hi - static_lo) over finite spans
};

void AccumulateSpan(const trace::Span& span, AccuracyStats* acc) {
  if (span.has_static_card) {
    ++acc->spans;
    if (span.static_lo <= span.rows_out && span.rows_out <= span.static_hi) {
      ++acc->contained;
    }
    if (span.static_hi != kCardUnbounded) {
      ++acc->finite;
      if (span.static_lo == span.static_hi) ++acc->exact;
      acc->width_sum += static_cast<double>(span.static_hi - span.static_lo);
    }
  }
  for (const auto& child : span.children) AccumulateSpan(*child, acc);
}

AccuracyStats MeasureAccuracy(Catalog* catalog, int shards,
                              const std::vector<std::string>& scripts) {
  AccuracyStats acc;
  acc.shards = shards;
  for (const std::string& script : scripts) {
    MilSession session(catalog);
    std::string traced = "trace on;\n";
    if (shards > 1) traced += StrFormat("shards(%d);\n", shards);
    traced += script;
    COBRA_CHECK(session.Execute(traced).ok());
    COBRA_CHECK(session.trace_sink() != nullptr);
    for (const auto& root : session.trace_sink()->roots()) {
      AccumulateSpan(*root, &acc);
    }
  }
  return acc;
}

void WriteJson(const std::vector<Row>& rows,
               const std::vector<AccuracyStats>& accuracy, const char* path) {
  std::string json = "{\"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json += StrFormat(
        "  {\"op\": \"%s\", \"variant\": \"%s\", \"seconds\": %.8f, "
        "\"analyze_over_execute\": %.4f}%s\n",
        r.op.c_str(), r.variant.c_str(), r.seconds, r.overhead,
        i + 1 < rows.size() ? "," : "");
  }
  json += "],\n\"accuracy\": [\n";
  for (size_t i = 0; i < accuracy.size(); ++i) {
    const AccuracyStats& a = accuracy[i];
    const double spans = static_cast<double>(a.spans);
    json += StrFormat(
        "  {\"shards\": %d, \"spans\": %zu, \"containment_rate\": %.4f, "
        "\"finite_rate\": %.4f, \"exact_rate\": %.4f, "
        "\"mean_finite_width_rows\": %.2f}%s\n",
        a.shards, a.spans,
        a.spans == 0 ? 0.0 : static_cast<double>(a.contained) / spans,
        a.spans == 0 ? 0.0 : static_cast<double>(a.finite) / spans,
        a.spans == 0 ? 0.0 : static_cast<double>(a.exact) / spans,
        a.finite == 0 ? 0.0 : a.width_sum / static_cast<double>(a.finite),
        i + 1 < accuracy.size() ? "," : "");
  }
  json += "]}\n";
  COBRA_CHECK(trace::ValidateJson(json).ok());
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu rows, %zu accuracy rows)\n", path, rows.size(),
              accuracy.size());
}

int Main() {
  std::printf("=== pre-execution verifier overhead ===\n");

  Catalog catalog;
  {
    auto values = catalog.Create("values", TailType::kFloat);
    COBRA_CHECK(values.ok());
    for (int i = 0; i < 10'000; ++i) {
      (*values)->AppendFloat(static_cast<Oid>(i), i * 0.001);
    }
    auto links = catalog.Create("links", TailType::kOid);
    COBRA_CHECK(links.ok());
    for (int i = 0; i < 1'000; ++i) {
      (*links)->AppendOid(static_cast<Oid>(i), static_cast<Oid>(i * 7 % 999));
    }
  }
  MilAnalysisContext actx;
  actx.catalog = &catalog;

  std::vector<Row> results;

  const std::string pipeline =
      "VAR hits := select(bat('values'), 0.25, 0.65);\n"
      "VAR joined := join(bat('links'), bat('values'));\n"
      "PRINT count(hits);\nPRINT sum(joined);\n";
  RunPair(
      "mil_pipeline",
      [&] { COBRA_CHECK(AnalyzeMilScript(pipeline, actx).ok()); },
      [&] {
        MilSession session(&catalog);
        COBRA_CHECK(session.Execute(pipeline).ok());
      },
      &results);

  std::string wide = "VAR x := 1;\n";
  for (int i = 0; i < 500; ++i) {
    wide += "x := x;\nPRINT count(select(bat('values'), 0.1, 0.2));\n";
  }
  RunPair(
      "mil_wide", [&] { COBRA_CHECK(AnalyzeMilScript(wide, actx).ok()); },
      [&] {
        MilSession session(&catalog);
        COBRA_CHECK(session.Execute(wide).ok());
      },
      &results);

  std::string deep = "PRINT count(";
  for (int i = 0; i < 150; ++i) deep += "mirror(";
  deep += "bat('links')";
  for (int i = 0; i < 150; ++i) deep += ")";
  deep += ");";
  RunPair(
      "mil_deep", [&] { COBRA_CHECK(AnalyzeMilScript(deep, actx).ok()); },
      [&] {
        MilSession session(&catalog);
        COBRA_CHECK(session.Execute(deep).ok());
      },
      &results);

  std::printf("=== static interval accuracy (traced plan matrix) ===\n");
  const std::vector<std::string> accuracy_scripts = {
      // selects swept from very selective to full-range to provably dead
      "PRINT count(select(bat('values'), 0.0, 0.1));",
      "PRINT count(select(bat('values'), 0.25, 0.65));",
      "PRINT count(select(bat('values'), -1.0, 100.0));",
      "PRINT count(select(bat('values'), 20.0, 30.0));",
      "PRINT count(select(select(bat('values'), 0.0, 5.0), 1.0, 2.0));",
      "PRINT sum(select(bat('values'), 0.1, 0.2));",
      "VAR g := group(bat('links'));\nPRINT count(g);",
      "VAR j := join(bat('links'), bat('values'));\nPRINT count(j);",
  };
  std::vector<AccuracyStats> accuracy;
  for (int shards : {1, 2, 7}) {
    AccuracyStats acc = MeasureAccuracy(&catalog, shards, accuracy_scripts);
    // Containment is the soundness invariant, not a tuning knob: every
    // stamped span must bracket its observed cardinality.
    COBRA_CHECK(acc.contained == acc.spans);
    std::printf(
        "  shards=%d  spans %3zu   contained %.4f   finite %.4f   "
        "exact %.4f   mean width %8.2f rows\n",
        acc.shards, acc.spans,
        static_cast<double>(acc.contained) / static_cast<double>(acc.spans),
        static_cast<double>(acc.finite) / static_cast<double>(acc.spans),
        static_cast<double>(acc.exact) / static_cast<double>(acc.spans),
        acc.finite == 0 ? 0.0
                        : acc.width_sum / static_cast<double>(acc.finite));
    accuracy.push_back(acc);
  }

  WriteJson(results, accuracy, "BENCH_analyzer.json");
  return 0;
}

}  // namespace
}  // namespace cobra::kernel

int main() { return cobra::kernel::Main(); }
