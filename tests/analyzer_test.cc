// Tests for the static pre-execution verifiers: the MIL script analyzer
// (kernel/mil_analyzer.cc), the query-text analyzer, and the plan verifier
// (query/analyzer.cc). The two properties pinned here are the verifier
// contract:
//
//   1. Soundness of rejection — every malformed input (reusing the fuzz
//      corpora from query_test.cc and mil_test.cc) is rejected BEFORE any
//      operator runs, with a diagnostic carrying a 1-based line/column and
//      the StatusCode execution would have failed with.
//   2. Zero false rejections — accept-parity with the interpreter/parser on
//      every valid input (the randomized side of this property runs in
//      differential_test.cc across the full seed range).

#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "base/diag.h"
#include "base/io.h"
#include "cobra/video_model.h"
#include "extensions/extension.h"
#include "kernel/catalog.h"
#include "kernel/mil.h"
#include "kernel/persist.h"
#include "query/analyzer.h"
#include "query/continuous.h"
#include "query/engine.h"
#include "query/parser.h"
#include "query/snapshot.h"

namespace cobra::kernel {
namespace {

/// First error in a list (fails the test when there is none).
Diagnostic FirstError(const DiagnosticList& diags) {
  for (const Diagnostic& d : diags.diagnostics()) {
    if (d.severity == Diagnostic::Severity::kError) return d;
  }
  ADD_FAILURE() << "no error diagnostic";
  return Diagnostic{};
}

class MilAnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto values = catalog_.Create("values", TailType::kFloat);
    ASSERT_TRUE(values.ok());
    for (int i = 0; i < 10; ++i) {
      (*values)->AppendFloat(static_cast<Oid>(i), i * 0.1);
    }
    auto names = catalog_.Create("names", TailType::kStr);
    ASSERT_TRUE(names.ok());
    (*names)->AppendStr(0, "alpha");
    (*names)->AppendStr(1, "beta");
    ctx_.catalog = &catalog_;
  }

  DiagnosticList Analyze(const std::string& script) {
    return AnalyzeMilScript(script, ctx_);
  }

  Catalog catalog_;
  MilAnalysisContext ctx_;
};

TEST_F(MilAnalyzerTest, ValidScriptsPass) {
  const char* scripts[] = {
      "PRINT 42;",
      "VAR f := bat('values'); PRINT sum(f); PRINT count(f);",
      "VAR hits := select(bat('values'), 0.25, 0.65); PRINT count(hits);",
      "PRINT count(select(bat('names'), 'alpha'));",
      "VAR links := insert(insert(new('oid'), 100, 2), 101, 4);\n"
      "PRINT sum(join(links, bat('values')));",
      "PRINT count(reverse(insert(new('oid'), 7, 3)));\n"
      "PRINT count(mirror(bat('values')));\n"
      "PRINT count(slice(bat('values'), 2, 5));",
      "persist('top', select(bat('values'), 0.75, 1.0));",
      "# comment only\nPRINT 1;  # trailing\n",
      "threadcnt(2); PRINT sum(bat('values'));",
      "trace on; PRINT count(bat('values')); trace dump;",
      "PRINT concat(bat('values'), bat('values'));",
      "PRINT info('values'); PRINT info(bat('names'));",
      "PRINT min(bat('values')); PRINT max(bat('values'));",
      "save 'd1';",
      "save 'd1'; load 'd1';",
  };
  for (const char* script : scripts) {
    DiagnosticList diags = Analyze(script);
    EXPECT_TRUE(diags.ok()) << script << "\n" << diags.ToString("mil");
  }
}

TEST_F(MilAnalyzerTest, UseBeforeDefineHasExactPosition) {
  DiagnosticList diags = Analyze("PRINT nope;");
  ASSERT_FALSE(diags.ok());
  const Diagnostic d = FirstError(diags);
  EXPECT_EQ(d.line, 1);
  EXPECT_EQ(d.col, 7);
  EXPECT_EQ(d.code, StatusCode::kNotFound);
  EXPECT_NE(d.message.find("unknown MIL variable nope"), std::string::npos);
}

TEST_F(MilAnalyzerTest, PositionsTrackLines) {
  DiagnosticList diags = Analyze("PRINT 1;\nPRINT nope;");
  ASSERT_FALSE(diags.ok());
  const Diagnostic d = FirstError(diags);
  EXPECT_EQ(d.line, 2);
  EXPECT_EQ(d.col, 7);
}

// The malformed-script corpus (superset of mil_test's ErrorsAreReported
// inputs): every entry must be rejected statically with a positioned
// diagnostic — and, through MilSession, before anything executes.
TEST_F(MilAnalyzerTest, MalformedCorpusRejectedWithPositions) {
  const char* corpus[] = {
      "PRINT bat('missing');",
      // Stream seal-metadata BATs resolve like any other catalog name: a
      // watch over a stream that was never attached is caught statically.
      "PRINT bat('telemetry.@seals');",
      "PRINT count(bat('values.@seals'));",
      "PRINT frobnicate(1);",
      "PRINT sum(1);",
      "PRINT select(bat('values'));",
      "PRINT 'unterminated;",
      "x := 1;",
      "VAR := 1;",
      "VAR x;",
      "PRINT insert(new('int'), 0, 'x');",
      "PRINT insert(new('str'), 0, 1);",
      "PRINT min(new('dbl'));",
      "PRINT max(new('int'));",
      "trace dump;",
      "trace sideways;",
      "PRINT threadcnt(0);",
      "PRINT threadcnt(1.5);",
      "PRINT new('quux');",
      "check 42;",
      "PRINT .;",
      "PRINT @;",
      "PRINT sum(bat('names'));",
      "PRINT select(bat('values'), 'alpha');",
      "PRINT select(bat('names'), 0, 1);",
      "PRINT count(reverse(bat('values')));",
      "PRINT join(bat('values'), bat('values'));",
      "PRINT concat(bat('values'), bat('names'));",
      "save 42;",
      "load;",
      // Numbers cast to integers must be representable.
      "PRINT slice(bat('values'), -1, 5);",
      "PRINT slice(bat('values'), 0, 1e30);",
      "PRINT insert(new('int'), 0, 1e300);",
      "PRINT insert(new('int'), 0, -1e19);",
      "PRINT insert(new('oid'), 0, -2);",
      "PRINT insert(new('dbl'), -1, 0.5);",
      "PRINT insert(new('str'), 1e20, 'x');",
  };
  for (const char* script : corpus) {
    DiagnosticList diags = Analyze(script);
    ASSERT_FALSE(diags.ok()) << script;
    const Diagnostic d = FirstError(diags);
    EXPECT_GE(d.line, 1) << script;
    EXPECT_GE(d.col, 1) << script;
    EXPECT_FALSE(d.message.empty()) << script;
    // The session path must agree (and refuse to execute anything).
    MilSession session(&catalog_);
    EXPECT_FALSE(session.Execute(script).ok()) << script;
  }
}

TEST_F(MilAnalyzerTest, DiagnosticsCarryTheRuntimeStatusCode) {
  EXPECT_EQ(FirstError(Analyze("PRINT bat('missing');")).code,
            StatusCode::kNotFound);
  EXPECT_EQ(FirstError(Analyze("trace dump;")).code,
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(FirstError(Analyze("PRINT min(new('int'));")).code,
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(FirstError(Analyze("PRINT sum(bat('names'));")).code,
            StatusCode::kInvalidArgument);
}

TEST_F(MilAnalyzerTest, MirrorsRuntimeMessages) {
  EXPECT_NE(FirstError(Analyze("PRINT sum(bat('names'));"))
                .message.find("Sum requires a numeric tail"),
            std::string::npos);
  EXPECT_NE(FirstError(Analyze("PRINT select(bat('values'), 'a');"))
                .message.find("SelectStr requires a str tail"),
            std::string::npos);
  EXPECT_NE(FirstError(Analyze("PRINT min(new('int'));"))
                .message.find("Min of empty BAT"),
            std::string::npos);
  // max() delegates to ArgMax internally, so the runtime (and therefore the
  // analyzer) names ArgMax.
  EXPECT_NE(FirstError(Analyze("PRINT max(new('int'));"))
                .message.find("ArgMax of empty BAT"),
            std::string::npos);
  EXPECT_NE(FirstError(Analyze("PRINT new('quux');"))
                .message.find("unknown BAT type quux"),
            std::string::npos);
  EXPECT_NE(FirstError(Analyze("PRINT frobnicate(1);"))
                .message.find("unknown MIL function frobnicate"),
            std::string::npos);
  EXPECT_NE(FirstError(Analyze("PRINT threadcnt(0);"))
                .message.find("threadcnt expects an integer in [1, 1024]"),
            std::string::npos);
  EXPECT_NE(FirstError(Analyze("PRINT bat('missing');"))
                .message.find("no BAT named missing"),
            std::string::npos);
  // Integer range errors name the argument the runtime names, at its
  // position.
  const Diagnostic slice =
      FirstError(Analyze("PRINT slice(bat('values'), -1, 5);"));
  EXPECT_EQ(slice.col, 28);
  EXPECT_EQ(slice.code, StatusCode::kInvalidArgument);
  EXPECT_NE(slice.message.find("slice begin must be in [0, 2^64), got -1"),
            std::string::npos)
      << slice.message;
  const Diagnostic tail =
      FirstError(Analyze("PRINT insert(new('int'), 0, 1e300);"));
  EXPECT_EQ(tail.col, 29);
  EXPECT_NE(tail.message.find("insert tail must be in [-2^63, 2^63)"),
            std::string::npos)
      << tail.message;
}

TEST_F(MilAnalyzerTest, DeeplyNestedExpressionIsRejected) {
  std::string script = "PRINT ";
  for (int i = 0; i < 500; ++i) script += "mirror(";
  script += "bat('values')";
  for (int i = 0; i < 500; ++i) script += ")";
  script += ";";
  DiagnosticList diags = Analyze(script);
  ASSERT_FALSE(diags.ok());
  EXPECT_NE(FirstError(diags).message.find("nested too deeply"),
            std::string::npos);
}

TEST_F(MilAnalyzerTest, ConservativeOnStaticallyUnknownValues) {
  // Literal tracking flows through variables: this persist name is known,
  // so the binding it creates is visible to the following lookup — and a
  // lookup of anything else is still a (true) rejection.
  EXPECT_TRUE(Analyze("VAR n := 'dyn';\n"
                      "persist(n, bat('values'));\n"
                      "PRINT count(bat('dyn'));")
                  .ok());
  EXPECT_FALSE(Analyze("VAR n := 'dyn';\n"
                       "persist(n, bat('values'));\n"
                       "PRINT count(bat('anything'));")
                   .ok());
  // A persist whose name only exists at runtime (info() output) could create
  // any catalog binding, so later lookups of unknown names must pass.
  EXPECT_TRUE(Analyze("persist(info('values'), bat('values'));\n"
                      "PRINT count(bat('anything'));")
                  .ok());
  // A literal persist introduces the binding for later statements.
  EXPECT_TRUE(Analyze("persist('derived', select(bat('values'), 0.0, 1.0));\n"
                      "PRINT sum(bat('derived'));")
                  .ok());
}

TEST_F(MilAnalyzerTest, SessionVariablesSeedTheAnalysis) {
  std::map<std::string, MilValue> vars;
  vars.emplace("x", 3.0);
  vars.emplace("s", std::string("hello"));
  ctx_.variables = &vars;
  EXPECT_TRUE(Analyze("PRINT x; PRINT s;").ok());
  // A seeded scalar is still a scalar: aggregate calls on it are rejected.
  DiagnosticList diags = Analyze("PRINT sum(x);");
  ASSERT_FALSE(diags.ok());
  EXPECT_NE(FirstError(diags).message.find("expected a BAT"),
            std::string::npos);
}

TEST_F(MilAnalyzerTest, TraceStateMachine) {
  EXPECT_FALSE(Analyze("trace dump;").ok());
  EXPECT_FALSE(Analyze("trace json;").ok());
  EXPECT_TRUE(Analyze("trace on; trace dump;").ok());
  // `off` keeps the sink: a later dump is still legal.
  EXPECT_TRUE(Analyze("trace on; trace off; trace dump;").ok());
  // A sink carried over from a previous Execute satisfies dump.
  ctx_.trace_ready = true;
  EXPECT_TRUE(Analyze("trace dump;").ok());
}

TEST_F(MilAnalyzerTest, StaleSnapshotIsWarningUnlessStrict) {
  const std::string script =
      "VAR v := bat('values');\n"
      "persist('values', slice(v, 0, 2));\n"
      "PRINT count(v);";
  DiagnosticList lax = Analyze(script);
  EXPECT_TRUE(lax.ok());  // warnings only: the engine must not reject this
  EXPECT_GE(lax.warning_count(), 1u);

  ctx_.strict = true;
  DiagnosticList strict = Analyze(script);
  ASSERT_FALSE(strict.ok());
  const Diagnostic d = FirstError(strict);
  EXPECT_EQ(d.code, StatusCode::kFailedPrecondition);
  EXPECT_NE(d.message.find("snapshot"), std::string::npos);
}

TEST_F(MilAnalyzerTest, PersistenceStatements) {
  // With no filesystem in the context the analyzer assumes every store
  // exists (conservative: never a false rejection).
  EXPECT_TRUE(Analyze("load 'anywhere';").ok());

  // With one attached, a load of a missing store is a static NotFound
  // carrying the runtime's exact message...
  io::MemFs fs;
  ctx_.fs = &fs;
  DiagnosticList missing = Analyze("load 'nowhere';");
  ASSERT_FALSE(missing.ok());
  const Diagnostic d = FirstError(missing);
  EXPECT_EQ(d.code, StatusCode::kNotFound);
  EXPECT_NE(d.message.find("no persistent store at nowhere"),
            std::string::npos);

  // ...a save earlier in the same script satisfies the lookup...
  EXPECT_TRUE(Analyze("save 'fresh'; load 'fresh';").ok());

  // ...and so does a store that is really on disk.
  Catalog empty;
  PersistentStore store(&fs, "real");
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Checkpoint(empty).ok());
  EXPECT_TRUE(Analyze("load 'real';").ok());
}

TEST_F(MilAnalyzerTest, CheckpointRequiresAnAttachedDataDir) {
  ::unsetenv("COBRA_DATA_DIR");
  DiagnosticList diags = Analyze("checkpoint;");
  ASSERT_FALSE(diags.ok());
  const Diagnostic d = FirstError(diags);
  EXPECT_EQ(d.code, StatusCode::kFailedPrecondition);
  EXPECT_NE(d.message.find("attached data directory"), std::string::npos);
  ctx_.data_dir_attached = true;
  EXPECT_TRUE(Analyze("checkpoint;").ok());

  // The session agrees at runtime: without a constructor dir (and with the
  // environment variable cleared above) checkpoint has no target.
  MilSession session(&catalog_);
  auto out = session.Execute("checkpoint;");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(MilAnalyzerTest, LoadMakesTheCatalogConservative) {
  // After a load the analyzer cannot know the catalog contents, so unknown
  // bat() lookups must pass rather than falsely reject.
  EXPECT_FALSE(Analyze("PRINT count(bat('anything'));").ok());
  EXPECT_TRUE(Analyze("load 'd'; PRINT count(bat('anything'));").ok());

  // Variables bound before the load keep snapshots of the replaced
  // catalog: a warning in engine mode, an error under check/strict.
  const std::string script =
      "VAR v := bat('values');\n"
      "save 'd';\n"
      "load 'd';\n"
      "PRINT count(v);";
  DiagnosticList lax = Analyze(script);
  EXPECT_TRUE(lax.ok()) << lax.ToString("mil");
  EXPECT_GE(lax.warning_count(), 1u);

  ctx_.strict = true;
  DiagnosticList strict = Analyze(script);
  ASSERT_FALSE(strict.ok());
  const Diagnostic d = FirstError(strict);
  EXPECT_EQ(d.code, StatusCode::kFailedPrecondition);
  EXPECT_NE(d.message.find("before load replaced the catalog"),
            std::string::npos);
}

// -- Abstract interpretation: PlanFacts and dead-predicate warnings ---------

class MilFactsTest : public MilAnalyzerTest {
 protected:
  MilAnalysis AnalyzeFacts(const std::string& script) {
    return AnalyzeMilScriptWithFacts(script, ctx_);
  }

  /// First fact for the given operator name (fails when absent).
  PlanFact FactFor(const MilAnalysis& analysis, const std::string& op) {
    for (const PlanFact& f : analysis.facts) {
      if (f.op == op) return f;
    }
    ADD_FAILURE() << "no fact for op " << op;
    return PlanFact{};
  }
};

TEST_F(MilFactsTest, SelectIntervalIsBoundedByTheInput) {
  // 'values' holds 10 rows: the select's output is a subset, so [0, 10].
  MilAnalysis a = AnalyzeFacts("PRINT count(select(bat('values'), 0.0, 1.0));");
  EXPECT_TRUE(a.diags.ok());
  const PlanFact f = FactFor(a, "select");
  EXPECT_EQ(f.rows_lo, 0u);
  EXPECT_EQ(f.rows_hi, 10u);
  EXPECT_FALSE(f.provably_empty);
  EXPECT_GE(f.line, 1);
  EXPECT_GE(f.col, 1);
}

TEST_F(MilFactsTest, HullMissIsProvablyEmptyWithWarning) {
  // Hull of 'values' is [0, 0.9]; the range [5, 9] misses it entirely.
  MilAnalysis a = AnalyzeFacts("PRINT count(select(bat('values'), 5.0, 9.0));");
  EXPECT_TRUE(a.diags.ok());  // a dead predicate is a warning, not an error
  EXPECT_GE(a.diags.warning_count(), 1u);
  bool found = false;
  for (const Diagnostic& d : a.diags.diagnostics()) {
    if (d.message.find("misses the input value hull") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  const PlanFact f = FactFor(a, "select");
  EXPECT_TRUE(f.provably_empty);
  EXPECT_EQ(f.rows_hi, 0u);
}

TEST_F(MilFactsTest, EmptyRangeIsProvablyEmpty) {
  MilAnalysis a = AnalyzeFacts("PRINT count(select(bat('values'), 2.0, 1.0));");
  EXPECT_TRUE(a.diags.ok());
  bool found = false;
  for (const Diagnostic& d : a.diags.diagnostics()) {
    if (d.message.find("never matches") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(FactFor(a, "select").provably_empty);
}

TEST_F(MilFactsTest, DictionaryMissIsProvablyEmpty) {
  // 'names' holds {alpha, beta}: a probe outside the dictionary is dead.
  MilAnalysis a = AnalyzeFacts("PRINT count(select(bat('names'), 'zzz'));");
  EXPECT_TRUE(a.diags.ok());
  bool found = false;
  for (const Diagnostic& d : a.diags.diagnostics()) {
    if (d.message.find("misses the input dictionary") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  const PlanFact f = FactFor(a, "select");
  EXPECT_TRUE(f.provably_empty);
  EXPECT_EQ(f.rows_hi, 0u);
}

TEST_F(MilFactsTest, SingleShardProofCarriesSliceBoundaries) {
  // On a 2-shard grid with unit morsels, rows [0,5) hold 0.0..0.4 and rows
  // [5,10) hold 0.5..0.9: the range [0, 0.05] can only match shard 0.
  ctx_.morsel_rows = 1;
  MilAnalysis a = AnalyzeFacts(
      "shards(2);\nPRINT count(select(bat('values'), 0.0, 0.05));");
  EXPECT_TRUE(a.diags.ok()) << a.diags.ToString("mil");
  const PlanFact f = FactFor(a, "select");
  EXPECT_FALSE(f.provably_empty);
  EXPECT_EQ(f.single_shard, 0);
  EXPECT_EQ(f.single_shard_of, 2u);
  EXPECT_EQ(f.shard_begin, 0u);
  EXPECT_EQ(f.shard_end, 5u);
}

TEST_F(MilFactsTest, ZoneMapGapProvesEmptyAcrossAllShards) {
  // The range [0.42, 0.48] sits inside the global hull [0, 0.9] but in the
  // gap between shard 0's zone map [0, 0.4] and shard 1's [0.5, 0.9] — only
  // the per-shard analysis can prove it dead.
  ctx_.morsel_rows = 1;
  MilAnalysis a = AnalyzeFacts(
      "shards(2);\nPRINT count(select(bat('values'), 0.42, 0.48));");
  EXPECT_TRUE(a.diags.ok());
  bool found = false;
  for (const Diagnostic& d : a.diags.diagnostics()) {
    if (d.message.find("every shard's zone map misses") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(FactFor(a, "select").provably_empty);
}

TEST_F(MilFactsTest, UnsafeNarrowIntervalsSeamHalvesUpperBounds) {
  ctx_.unsafe_narrow_intervals = true;
  MilAnalysis a = AnalyzeFacts("PRINT count(select(bat('values'), 0.0, 1.0));");
  const PlanFact f = FactFor(a, "select");
  EXPECT_EQ(f.rows_hi, 5u);  // 10 halved: deliberately unsound
}

TEST_F(MilFactsTest, FactsAndDiagnosticsMatchThePlainAnalyzer) {
  // AnalyzeMilScript is AnalyzeMilScriptWithFacts minus the facts: the
  // diagnostics must be identical on the same input.
  const char* scripts[] = {
      "PRINT count(select(bat('values'), 5.0, 9.0));",
      "PRINT nope;",
      "VAR f := bat('values'); PRINT sum(f);",
  };
  for (const char* script : scripts) {
    const DiagnosticList plain = AnalyzeMilScript(script, ctx_);
    const MilAnalysis facts = AnalyzeMilScriptWithFacts(script, ctx_);
    EXPECT_EQ(plain.ToString("mil"), facts.diags.ToString("mil")) << script;
  }
}

// Warning corpus for the new diagnostics: every entry must still be
// accepted (warnings never reject) with at least one warning attached.
TEST_F(MilFactsTest, WarningCorpusAcceptedWithWarnings) {
  const char* corpus[] = {
      "PRINT count(select(bat('values'), 5.0, 9.0));",   // hull miss
      "PRINT count(select(bat('values'), 2.0, 1.0));",   // empty range
      "PRINT count(select(bat('names'), 'zzz'));",       // dictionary miss
      "PRINT count(select(new('dbl'), 0.0, 1.0));",      // empty input
      "PRINT count(select(select(bat('values'), 5.0, 9.0), 0.0, 9.0));",
  };
  for (const char* script : corpus) {
    DiagnosticList diags = Analyze(script);
    EXPECT_TRUE(diags.ok()) << script << "\n" << diags.ToString("mil");
    EXPECT_GE(diags.warning_count(), 1u) << script;
    // And the session still executes the script (the rewrites only skip
    // work, never fail it).
    MilSession session(&catalog_);
    EXPECT_TRUE(session.Execute(script).ok()) << script;
  }
}

// Interval-overflow edge corpus: bounds at the INT64 extremes, a -0.0/0.0
// hull boundary, and an all-NaN input hull. Every entry must be accepted,
// warn exactly when the predicate is provably dead, and still execute.
TEST_F(MilFactsTest, IntervalEdgeCorpusStaysSoundAtNumericExtremes) {
  auto nans = catalog_.Create("nans", TailType::kFloat);
  ASSERT_TRUE(nans.ok());
  for (int i = 0; i < 4; ++i) {
    (*nans)->AppendFloat(static_cast<Oid>(i), std::nan(""));
  }

  struct Case {
    const char* script;
    bool dead;  // a provably-dead warning is expected
  };
  const Case corpus[] = {
      // The INT64 extremes contain any hull: selects everything, no warning.
      {"PRINT count(select(bat('values'), -9223372036854775808.0, "
       "9223372036854775807.0));",
       false},
      // A degenerate range at the upper extreme misses the hull entirely.
      {"PRINT count(select(bat('values'), 9223372036854775807.0, "
       "9223372036854775807.0));",
       true},
      // -0.0 == 0.0: the hull starts at 0.0, so this must NOT be flagged.
      {"PRINT count(select(bat('values'), -0.0, 0.0));", false},
      // An all-NaN input has an empty hull: any range select is dead.
      {"PRINT count(select(bat('nans'), 0.0, 1.0));", true},
  };
  for (const Case& c : corpus) {
    DiagnosticList diags = Analyze(c.script);
    EXPECT_TRUE(diags.ok()) << c.script << "\n" << diags.ToString("mil");
    EXPECT_EQ(diags.warning_count() >= 1, c.dead) << c.script;
    if (c.dead) {
      PlanFact fact = FactFor(AnalyzeFacts(c.script), "select");
      EXPECT_TRUE(fact.provably_empty) << c.script;
      EXPECT_EQ(fact.rows_hi, 0u) << c.script;
    }
    MilSession session(&catalog_);
    EXPECT_TRUE(session.Execute(c.script).ok()) << c.script;
  }
}

// -- MilSession integration: the verifier gates execution -------------------

class MilSessionVerifyTest : public MilAnalyzerTest {
 protected:
  void SetUp() override {
    MilAnalyzerTest::SetUp();
    session_ = std::make_unique<MilSession>(&catalog_);
  }
  std::unique_ptr<MilSession> session_;
};

TEST_F(MilSessionVerifyTest, FailingScriptLeavesNoSideEffects) {
  const int threadcnt_before = session_->exec().threadcnt;
  auto out = session_->Execute(
      "VAR a := 1;\n"
      "persist('p1', bat('values'));\n"
      "threadcnt(8);\n"
      "PRINT nope;");
  ASSERT_FALSE(out.ok());
  // The error is positioned at the failing statement (line 4, 'nope').
  EXPECT_EQ(out.status().message().rfind("mil:4:7: error:", 0), 0u);
  // Nothing before it ran: no variable, no persisted BAT, threadcnt intact.
  EXPECT_FALSE(session_->Get("a").ok());
  EXPECT_FALSE(catalog_.Get("p1").ok());
  EXPECT_EQ(session_->exec().threadcnt, threadcnt_before);
}

TEST_F(MilSessionVerifyTest, ErrorMessagesCarryPositionPrefix) {
  auto out = session_->Execute("PRINT 1;\nPRINT sum(bat('names'));");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().message().rfind("mil:2:", 0), 0u);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MilSessionVerifyTest, TraceStatePersistsAcrossExecutes) {
  ASSERT_TRUE(session_->Execute("trace on;").ok());
  // The analyzer must know the sink survives into the next Execute.
  EXPECT_TRUE(session_->Execute("trace dump;").ok());
}

TEST_F(MilSessionVerifyTest, CheckStatementReportsWithoutExecuting) {
  auto ok = session_->Execute("check 'PRINT 1;';");
  ASSERT_TRUE(ok.ok());
  EXPECT_NE(ok->find("check: ok"), std::string::npos);

  // Findings inside the checked script are output, not errors of the outer
  // script (EXPLAIN-like semantics), and nothing in it executes.
  auto findings = session_->Execute("check 'persist(\"p2\", nope);';");
  ASSERT_TRUE(findings.ok());
  EXPECT_NE(findings->find("unknown MIL variable nope"), std::string::npos);
  EXPECT_NE(findings->find("mil:1:"), std::string::npos);
  EXPECT_FALSE(catalog_.Get("p2").ok());
}

TEST_F(MilSessionVerifyTest, CheckIsStrictAboutSnapshotHazards) {
  auto out = session_->Execute(
      "check 'VAR x := bat(\"values\"); persist(\"values\", x); "
      "PRINT count(x);';");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("snapshot"), std::string::npos);
  // check only analyzes: the catalog BAT was not replaced.
  auto values = catalog_.Get("values");
  ASSERT_TRUE(values.ok());
  EXPECT_EQ((*values)->size(), 10u);
}

}  // namespace
}  // namespace cobra::kernel

namespace cobra::query {
namespace {

// The valid-query corpus: everything the parser tests accept.
const char* kValidQueries[] = {
    "RETRIEVE highlight FROM 'german-gp'",
    "RETRIEVE caption FROM 'usa-gp' WHERE driver = 'Montoya' AND kind = "
    "'pitstop'",
    "RETRIEVE highlight FROM 'b' OVERLAPPING caption WHERE driver = 'X'",
    "RETRIEVE excited_speech FROM 'b' PREFER COST",
    "retrieve pitstop from 'x' where driver = 'alesi'",
    "PROFILE RETRIEVE highlight FROM 'german-gp'",
    "RETRIEVE h FROM 'x' DURING caption PREFER QUALITY",
    "EXPLAIN RETRIEVE highlight FROM 'german-gp'",
    "explain retrieve caption from 'usa-gp' where driver = 'Montoya'",
    "EXPLAIN RETRIEVE h FROM 'x' DURING caption WHERE kind = 'pitstop'",
    "WATCH RETRIEVE overtaking FROM 'live-gp'",
    "watch retrieve passing from 'x' where driver = 'alesi' window 30s",
    "WATCH RETRIEVE h FROM 'x' DURING caption WINDOW 0.5s",
    "WATCH RETRIEVE h FROM 'x' PREFER COST WINDOW 45S",
};

// The malformed corpus from query_test.cc's MalformedInputCorpus.
const char* kMalformedQueries[] = {
    "PROFILE",
    "PROFILE PROFILE RETRIEVE h FROM 'x'",
    "RETRIEVE",
    "RETRIEVE 'quoted' FROM 'x'",
    "RETRIEVE h FROM",
    "RETRIEVE h FROM =",
    "RETRIEVE h FROM 'x' WHERE",
    "RETRIEVE h FROM 'x' WHERE driver",
    "RETRIEVE h FROM 'x' WHERE driver =",
    "RETRIEVE h FROM 'x' WHERE driver = = 'a'",
    "RETRIEVE h FROM 'x' WHERE driver = 'a' AND",
    "RETRIEVE h FROM 'x' DURING",
    "RETRIEVE h FROM 'x' DURING 'caption'",
    "RETRIEVE h FROM 'x' OVERLAPPING c WHERE",
    "RETRIEVE h FROM 'x' PREFER",
    "RETRIEVE h FROM 'x' PREFER QUALITY COST",
    "RETRIEVE h FROM \"unterminated",
    "RETRIEVE h FROM 'x' WHERE driver = 'unterminated",
    "RETRIEVE h FROM 'x' %",
    "??",
    "EXPLAIN",
    "EXPLAIN EXPLAIN RETRIEVE h FROM 'x'",
    "EXPLAIN PROFILE RETRIEVE h FROM 'x'",
    "PROFILE EXPLAIN RETRIEVE h FROM 'x'",
    "WATCH",
    "WATCH WATCH RETRIEVE h FROM 'x'",
    "WATCH PROFILE RETRIEVE h FROM 'x'",
    "PROFILE WATCH RETRIEVE h FROM 'x'",
    "RETRIEVE h FROM 'x' WINDOW 30s",
    "WATCH RETRIEVE h FROM 'x' WINDOW",
    "WATCH RETRIEVE h FROM 'x' WINDOW 30",
    "WATCH RETRIEVE h FROM 'x' WINDOW -5s",
    "WATCH RETRIEVE h FROM 'x' WINDOW 0s",
    "WATCH RETRIEVE h FROM 'x' WINDOW abcs",
};

TEST(QueryAnalyzerTest, ValidQueriesPass) {
  for (const char* text : kValidQueries) {
    DiagnosticList diags = AnalyzeQueryText(text);
    EXPECT_TRUE(diags.ok()) << text << "\n" << diags.ToString("query");
  }
}

TEST(QueryAnalyzerTest, MalformedCorpusRejectedWithPositions) {
  for (const char* text : kMalformedQueries) {
    DiagnosticList diags = AnalyzeQueryText(text);
    ASSERT_FALSE(diags.ok()) << text;
    ASSERT_FALSE(diags.diagnostics().empty()) << text;
    const Diagnostic& d = diags.diagnostics().front();
    EXPECT_GE(d.line, 1) << text;
    EXPECT_GE(d.col, 1) << text;
    EXPECT_EQ(d.code, StatusCode::kInvalidArgument) << text;
    EXPECT_FALSE(d.message.empty()) << text;
  }
}

// Accept-parity: the analyzer agrees with the parser on every input, and on
// rejections it reproduces the parser's message (plus the position prefix).
TEST(QueryAnalyzerTest, AcceptParityWithParser) {
  auto check = [](const char* text) {
    DiagnosticList diags = AnalyzeQueryText(text);
    auto parsed = ParseQuery(text);
    EXPECT_EQ(diags.ok(), parsed.ok()) << text;
    if (!parsed.ok() && !diags.ok()) {
      const Status status = diags.ToStatus("query");
      EXPECT_EQ(status.code(), parsed.status().code()) << text;
      EXPECT_NE(status.message().find(parsed.status().message()),
                std::string::npos)
          << text << "\n  analyzer: " << status.message()
          << "\n  parser:   " << parsed.status().message();
    }
  };
  for (const char* text : kValidQueries) check(text);
  for (const char* text : kMalformedQueries) check(text);
}

TEST(QueryAnalyzerTest, PositionsAreExact) {
  {
    // Error at end-of-input: one past the last character of line 1.
    DiagnosticList diags = AnalyzeQueryText("RETRIEVE h FROM");
    ASSERT_FALSE(diags.ok());
    EXPECT_EQ(diags.diagnostics().front().line, 1);
    EXPECT_EQ(diags.diagnostics().front().col, 16);
  }
  {
    // Multi-line query: the missing value is reported on line 2.
    DiagnosticList diags =
        AnalyzeQueryText("RETRIEVE h\nFROM 'x' WHERE driver =");
    ASSERT_FALSE(diags.ok());
    EXPECT_EQ(diags.diagnostics().front().line, 2);
    EXPECT_EQ(diags.diagnostics().front().col, 24);
  }
}

TEST(QueryAnalyzerTest, WatchWindowPositionsAreExact) {
  {
    // Missing duration at end-of-input: one past the last character.
    DiagnosticList diags =
        AnalyzeQueryText("WATCH RETRIEVE h FROM 'x' WINDOW");
    ASSERT_FALSE(diags.ok());
    EXPECT_EQ(diags.diagnostics().front().line, 1);
    EXPECT_EQ(diags.diagnostics().front().col, 33);
  }
  {
    // A malformed duration is positioned at ITS token, not at WINDOW.
    DiagnosticList diags =
        AnalyzeQueryText("WATCH RETRIEVE h FROM 'x'\nWINDOW abcs");
    ASSERT_FALSE(diags.ok());
    const Diagnostic& d = diags.diagnostics().front();
    EXPECT_EQ(d.line, 2);
    EXPECT_EQ(d.col, 8);
    EXPECT_NE(d.message.find("window duration"), std::string::npos);
  }
  {
    // Zero is rejected as non-positive, at the duration token.
    DiagnosticList diags =
        AnalyzeQueryText("WATCH RETRIEVE h FROM 'x' WINDOW 0s");
    ASSERT_FALSE(diags.ok());
    const Diagnostic& d = diags.diagnostics().front();
    EXPECT_EQ(d.line, 1);
    EXPECT_EQ(d.col, 34);
    EXPECT_NE(d.message.find("positive"), std::string::npos);
  }
  {
    // WINDOW without WATCH is positioned at the WINDOW keyword.
    DiagnosticList diags =
        AnalyzeQueryText("RETRIEVE h FROM 'x' WINDOW 30s");
    ASSERT_FALSE(diags.ok());
    const Diagnostic& d = diags.diagnostics().front();
    EXPECT_EQ(d.line, 1);
    EXPECT_EQ(d.col, 21);
    EXPECT_NE(d.message.find("WINDOW requires WATCH"), std::string::npos);
  }
}

TEST(QueryAnalyzerTest, WatchFactsCarryWindowAndVideoPosition) {
  const QueryAnalysis analysis = AnalyzeQueryTextWithFacts(
      "WATCH RETRIEVE passing\nFROM 'live-gp' WINDOW 30s");
  ASSERT_TRUE(analysis.diags.ok());
  EXPECT_TRUE(analysis.watch);
  EXPECT_DOUBLE_EQ(analysis.window_sec, 30.0);
  // The video token's position is what the continuous-query registrar
  // blames when the video does not exist.
  EXPECT_EQ(analysis.video_line, 2);
  EXPECT_EQ(analysis.video_col, 6);

  const QueryAnalysis plain =
      AnalyzeQueryTextWithFacts("RETRIEVE passing FROM 'live-gp'");
  ASSERT_TRUE(plain.diags.ok());
  EXPECT_FALSE(plain.watch);
  EXPECT_DOUBLE_EQ(plain.window_sec, 0.0);
}

TEST(QueryAnalyzerTest, WatchOverMissingVideoIsPositioned) {
  // Registration over an empty catalog: the failure is a positioned
  // query:L:C diagnostic at the video token, preserving the model's code.
  kernel::Catalog kcat;
  model::VideoCatalog videos(&kcat);
  extensions::ExtensionRegistry registry;
  QueryEngine engine(&videos, &registry);
  SnapshotManager snapshots(&videos, &kcat);
  ContinuousQueryManager watches(&engine, &snapshots, &kcat);
  auto id = watches.RegisterText("WATCH RETRIEVE passing\nFROM 'ghost-gp'");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
  EXPECT_NE(id.status().message().find("query:2:6: error:"),
            std::string::npos)
      << id.status().message();
  EXPECT_NE(id.status().message().find("no video named ghost-gp"),
            std::string::npos)
      << id.status().message();
}

TEST(QueryAnalyzerTest, AttrSitesCarryPositionsAndNormalizedText) {
  const QueryAnalysis analysis = AnalyzeQueryTextWithFacts(
      "RETRIEVE caption FROM 'x' WHERE Driver = 'Montoya' AND kind = pitstop\n"
      "DURING highlight WHERE lap = '56'");
  ASSERT_TRUE(analysis.diags.ok());
  ASSERT_EQ(analysis.attr_sites.size(), 3u);

  const AttrSite& driver = analysis.attr_sites[0];
  EXPECT_EQ(driver.line, 1);
  EXPECT_EQ(driver.col, 33);  // the attribute token, not the WHERE keyword
  EXPECT_FALSE(driver.secondary);
  EXPECT_EQ(driver.key, "driver");      // lowercased, as the parser stores it
  EXPECT_EQ(driver.value, "MONTOYA");   // uppercased, as the matcher compares

  EXPECT_EQ(analysis.attr_sites[1].key, "kind");
  EXPECT_EQ(analysis.attr_sites[1].value, "PITSTOP");
  EXPECT_FALSE(analysis.attr_sites[1].secondary);

  const AttrSite& lap = analysis.attr_sites[2];
  EXPECT_EQ(lap.line, 2);
  EXPECT_TRUE(lap.secondary);
  EXPECT_EQ(lap.key, "lap");
  EXPECT_EQ(lap.value, "56");
}

TEST(QueryAnalyzerTest, RejectedQueriesYieldNoAttrSites) {
  const QueryAnalysis analysis =
      AnalyzeQueryTextWithFacts("RETRIEVE h FROM 'x' WHERE driver =");
  EXPECT_FALSE(analysis.diags.ok());
  EXPECT_TRUE(analysis.attr_sites.empty());
}

// -- VerifyPlan + engine wiring ---------------------------------------------

class PlanVerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = videos_.RegisterVideo("race", 600.0);
    ASSERT_TRUE(id.ok());
    video_ = *id;
    model::EventRecord record;
    record.type = "highlight";
    record.begin_sec = 30;
    record.end_sec = 40;
    ASSERT_TRUE(videos_.StoreEvent(video_, record).ok());
    record.type = "caption";
    record.begin_sec = 102;
    record.end_sec = 106;
    ASSERT_TRUE(videos_.StoreEvent(video_, record).ok());
  }

  Status Verify(const std::string& text) {
    auto query = ParseQuery(text);
    EXPECT_TRUE(query.ok()) << text;
    if (!query.ok()) return query.status();
    return VerifyPlan(*query, videos_, registry_);
  }

  void RegisterProvider(const std::string& type) {
    registry_.Register(std::make_unique<extensions::CallbackExtension>(
        "provider-" + type,
        std::vector<extensions::CallbackExtension::Provided>{{type, 1.0, 0.9}},
        [type](model::VideoId id, const std::string&,
               model::VideoCatalog* catalog) {
          model::EventRecord e;
          e.type = type;
          e.begin_sec = 50;
          e.end_sec = 57;
          return catalog->StoreEvent(id, e);
        }));
  }

  kernel::Catalog catalog_;
  model::VideoCatalog videos_{&catalog_};
  extensions::ExtensionRegistry registry_;
  model::VideoId video_ = 0;
};

TEST_F(PlanVerifyTest, SatisfiablePlansPass) {
  EXPECT_TRUE(Verify("RETRIEVE highlight FROM 'race'").ok());
  EXPECT_TRUE(
      Verify("RETRIEVE highlight FROM 'race' OVERLAPPING caption").ok());
}

TEST_F(PlanVerifyTest, UnknownVideoIsRejected) {
  const Status status = Verify("RETRIEVE highlight FROM 'nope'");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(PlanVerifyTest, UnsatisfiableEventTypeIsRejected) {
  const Status status = Verify("RETRIEVE flyout FROM 'race'");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find(
                "no metadata and no extraction method for 'flyout'"),
            std::string::npos);
}

TEST_F(PlanVerifyTest, ProviderMakesTypeSatisfiable) {
  RegisterProvider("flyout");
  EXPECT_TRUE(Verify("RETRIEVE flyout FROM 'race'").ok());
}

TEST_F(PlanVerifyTest, SecondaryPatternIsVerifiedToo) {
  const Status status =
      Verify("RETRIEVE highlight FROM 'race' OVERLAPPING flyout");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("'flyout'"), std::string::npos);
  RegisterProvider("flyout");
  EXPECT_TRUE(
      Verify("RETRIEVE highlight FROM 'race' OVERLAPPING flyout").ok());
}

class EngineVerifyTest : public PlanVerifyTest {
 protected:
  QueryEngine engine_{&videos_, &registry_};
};

TEST_F(EngineVerifyTest, SyntaxErrorsCarryPositionPrefix) {
  auto result = engine_.Execute("RETRIEVE h FROM");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message().rfind("query:1:16: error:", 0), 0u);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineVerifyTest, RejectedQueriesNeverTouchTheCache) {
  EXPECT_FALSE(engine_.Execute("RETRIEVE h FROM").ok());
  EXPECT_FALSE(engine_.Execute("RETRIEVE highlight FROM 'nope'").ok());
  EXPECT_FALSE(engine_.Execute("RETRIEVE flyout FROM 'race'").ok());
  const CacheStats stats = engine_.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST_F(EngineVerifyTest, VerifiedQueriesStillExecuteAndCache) {
  auto first = engine_.Execute("RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->segments.size(), 1u);
  auto second = engine_.Execute("RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
}

// -- EXPLAIN: the static-only report ----------------------------------------

TEST_F(EngineVerifyTest, ExplainReportsIntervalsWithoutExecuting) {
  auto result = engine_.Execute("EXPLAIN RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result->segments.empty());  // nothing executed
  EXPECT_FALSE(result->extracted_dynamically);
  EXPECT_NE(result->profile_text.find("explain:"), std::string::npos);
  EXPECT_NE(result->profile_text.find("static=["), std::string::npos);
  EXPECT_NE(result->profile_json.find("\"explain\""), std::string::npos);
  // Static analysis only: the result cache was never touched.
  const CacheStats stats = engine_.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST_F(EngineVerifyTest, ExplainFlagsDeadPredicatesWithPositions) {
  // The stored highlight has no attributes, so driver='Bob' matches no
  // event: the predicate is statically dead, positioned at its attribute
  // token, and the result is provably empty.
  auto result = engine_.Execute(
      "EXPLAIN RETRIEVE highlight FROM 'race' WHERE driver = 'Bob'");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_NE(result->profile_text.find("query:1:46: warning:"),
            std::string::npos)
      << result->profile_text;
  EXPECT_NE(result->profile_text.find("statically dead predicate"),
            std::string::npos);
  EXPECT_NE(result->profile_text.find("provably empty"), std::string::npos);
  EXPECT_NE(result->profile_json.find("\"provably_empty\":true"),
            std::string::npos)
      << result->profile_json;
}

TEST_F(EngineVerifyTest, ExplainDefersUnextractedTypesWithUnboundedInterval) {
  // flyout has a provider but no stored metadata: EXPLAIN must not trigger
  // extraction, so the interval is unbounded and the report says why.
  RegisterProvider("flyout");
  auto result = engine_.Execute("EXPLAIN RETRIEVE flyout FROM 'race'");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_NE(result->profile_text.find("deferred"), std::string::npos);
  EXPECT_NE(result->profile_text.find("static=[0,*]"), std::string::npos)
      << result->profile_text;
  // EXPLAIN never ran the provider: the catalog still has no flyout events.
  EXPECT_FALSE(videos_.HasEvents(video_, "flyout"));
}

TEST_F(EngineVerifyTest, ExplainStillVerifiesThePlan) {
  EXPECT_EQ(engine_.Execute("EXPLAIN RETRIEVE highlight FROM 'nope'")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      engine_.Execute("EXPLAIN RETRIEVE flyout FROM 'race'").status().code(),
      StatusCode::kNotFound);
}

TEST_F(EngineVerifyTest, ExplainIsDeterministic) {
  const char* text =
      "EXPLAIN RETRIEVE highlight FROM 'race' DURING caption WHERE kind = "
      "'pitstop'";
  auto first = engine_.Execute(text);
  auto second = engine_.Execute(text);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->profile_text, second->profile_text);
  EXPECT_EQ(first->profile_json, second->profile_json);
}

}  // namespace
}  // namespace cobra::query
