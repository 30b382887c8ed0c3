#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "kernel/catalog.h"
#include "kernel/mil.h"

namespace cobra::kernel {
namespace {

class MilTest : public ::testing::Test {
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
    (*names)->AppendStr(2, "alpha");
    session_ = std::make_unique<MilSession>(&catalog_);
  }

  Catalog catalog_;
  std::unique_ptr<MilSession> session_;
};

TEST_F(MilTest, PrintScalar) {
  auto out = session_->Execute("PRINT 42;");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "42\n");
}

TEST_F(MilTest, VarAndAggregate) {
  auto out = session_->Execute(
      "VAR f := bat('values');\n"
      "PRINT sum(f);\n"
      "PRINT count(f);\n");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "4.5\n10\n");
}

TEST_F(MilTest, SelectRangeThenCount) {
  auto out = session_->Execute(
      "VAR hits := select(bat('values'), 0.25, 0.65);\n"
      "PRINT count(hits);");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "4\n");
}

TEST_F(MilTest, StringSelect) {
  auto out = session_->Execute("PRINT count(select(bat('names'), 'alpha'));");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "2\n");
}

TEST_F(MilTest, NewInsertAndJoin) {
  // Mirrors the shape of the paper's Fig. 4: build an oid->oid mapping and
  // join it against a value BAT.
  auto out = session_->Execute(
      "VAR links := insert(insert(new('oid'), 100, 2), 101, 4);\n"
      "VAR joined := join(links, bat('values'));\n"
      "PRINT count(joined);\n"
      "PRINT sum(joined);");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "2\n0.6\n");
}

TEST_F(MilTest, ReverseMirrorSlice) {
  auto out = session_->Execute(
      "VAR links := insert(new('oid'), 7, 3);\n"
      "VAR back := reverse(links);\n"
      "PRINT count(back);\n"
      "PRINT count(mirror(bat('values')));\n"
      "PRINT count(slice(bat('values'), 2, 5));");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1\n10\n3\n");
}

TEST_F(MilTest, PersistWritesCatalog) {
  auto out = session_->Execute(
      "VAR top := select(bat('values'), 0.75, 1.0);\n"
      "persist('top_values', top);");
  ASSERT_TRUE(out.ok());
  auto stored = catalog_.Get("top_values");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ((*stored)->size(), 2u);  // 0.8, 0.9
}

TEST_F(MilTest, ReassignmentRequiresDeclaration) {
  EXPECT_FALSE(session_->Execute("x := 1;").ok());
  EXPECT_TRUE(session_->Execute("VAR x := 1; x := 2; PRINT x;").ok());
}

TEST_F(MilTest, VariablePersistsAcrossExecutes) {
  ASSERT_TRUE(session_->Execute("VAR kept := 7;").ok());
  auto out = session_->Execute("PRINT kept;");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "7\n");
  auto value = session_->Get("kept");
  ASSERT_TRUE(value.ok());
}

TEST_F(MilTest, CommentsIgnored) {
  auto out = session_->Execute(
      "# preparing an observation sequence\n"
      "PRINT 1;  # trailing comment\n");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1\n");
}

TEST_F(MilTest, ErrorsAreReported) {
  EXPECT_FALSE(session_->Execute("PRINT bat('missing');").ok());
  EXPECT_FALSE(session_->Execute("PRINT frobnicate(1);").ok());
  EXPECT_FALSE(session_->Execute("PRINT sum(1);").ok());
  EXPECT_FALSE(session_->Execute("PRINT select(bat('values'));").ok());
  EXPECT_FALSE(session_->Execute("PRINT 'unterminated;").ok());
}

// Malformed scripts must come back as non-ok Results with a message that
// names the problem — never a crash or a silent empty output.

TEST_F(MilTest, UnterminatedStringNamesTheProblem) {
  auto out = session_->Execute("VAR x := select(bat('names'), 'alp;");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().ToString().find("unterminated"), std::string::npos)
      << out.status().ToString();
}

TEST_F(MilTest, UnknownFunctionNamesTheFunction) {
  auto out = session_->Execute("PRINT frobnicate(1);");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().ToString().find("frobnicate"), std::string::npos)
      << out.status().ToString();
}

TEST_F(MilTest, TypeMismatchedInsertIsRejected) {
  // String tail into a numeric BAT and number tail into a str BAT.
  auto bad_int = session_->Execute("PRINT insert(new('int'), 0, 'abc');");
  ASSERT_FALSE(bad_int.ok());
  EXPECT_NE(bad_int.status().ToString().find("insert"), std::string::npos)
      << bad_int.status().ToString();
  auto bad_str = session_->Execute("PRINT insert(new('str'), 0, 3.5);");
  ASSERT_FALSE(bad_str.ok());
  EXPECT_NE(bad_str.status().ToString().find("insert"), std::string::npos)
      << bad_str.status().ToString();
  // Inserting into a non-BAT is caught too.
  EXPECT_FALSE(session_->Execute("PRINT insert(7, 0, 1);").ok());
}

// Numbers cast to integers (slice positions, insert heads, int and oid
// tails) must be representable: negative, NaN, infinite or out-of-range
// values are typed InvalidArgument errors, never an undefined cast. The
// values are computed at run time, so the analyzer cannot know them and the
// interpreter's own check is what rejects them.
TEST_F(MilTest, OutOfRangeIntegersAreRejected) {
  const std::string setup =
      "VAR neg := min(insert(new('dbl'), 0, -1));\n"
      "VAR huge := max(insert(new('dbl'), 0, 1e300));\n"
      "VAR inf := sum(insert(insert(new('dbl'), 0, 1e308), 1, 1e308));\n"
      "VAR ninf := sum(insert(insert(new('dbl'), 0, -1e308), 1, -1e308));\n"
      "VAR nan := sum(insert(insert(new('dbl'), 0, inf), 1, ninf));\n";
  const std::pair<const char*, const char*> cases[] = {
      {"PRINT slice(bat('values'), neg, 5);",
       "slice begin must be in [0, 2^64)"},
      {"PRINT slice(bat('values'), 0, nan);",
       "slice end must be in [0, 2^64)"},
      {"PRINT slice(bat('values'), 0, huge);",
       "slice end must be in [0, 2^64)"},
      {"PRINT insert(new('int'), 0, huge);",
       "insert tail must be in [-2^63, 2^63)"},
      {"PRINT insert(new('int'), 0, nan);",
       "insert tail must be in [-2^63, 2^63)"},
      {"PRINT insert(new('int'), 0, ninf);",
       "insert tail must be in [-2^63, 2^63)"},
      {"PRINT insert(new('oid'), 0, neg);",
       "insert tail must be in [0, 2^64)"},
      {"PRINT insert(new('dbl'), neg, 1);",
       "insert head must be in [0, 2^64)"},
      {"PRINT insert(new('dbl'), inf, 1);",
       "insert head must be in [0, 2^64)"},
  };
  for (const auto& [stmt, message] : cases) {
    std::string script = setup;
    script += stmt;
    MilSession session(&catalog_);
    auto out = session.Execute(script);
    ASSERT_FALSE(out.ok()) << stmt;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << stmt;
    EXPECT_NE(out.status().message().find(message), std::string::npos)
        << stmt << ": " << out.status().message();
  }
  // In range values still work; fractions truncate.
  auto ok = session_->Execute(
      "PRINT count(slice(bat('values'), 2.5, 5));\n"
      "PRINT sum(insert(new('int'), 0, -9.2e18));");
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_EQ(*ok, "3\n-9.2e+18\n");
}

TEST_F(MilTest, DeeplyNestedExpressionIsRejected) {
  // "mirror(mirror(...(bat('values'))...))" past the depth bound must be a
  // typed error, not a stack overflow.
  std::string script = "PRINT ";
  for (int i = 0; i < 500; ++i) script += "mirror(";
  script += "bat('values')";
  script += std::string(500, ')');
  script += ";";
  auto out = session_->Execute(script);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().ToString().find("nested too deeply"),
            std::string::npos)
      << out.status().ToString();
}

TEST_F(MilTest, ConcatMergesAndChecksTypes) {
  auto out = session_->Execute(
      "VAR both := concat(bat('values'), bat('values'));\n"
      "PRINT count(both);\n"
      "PRINT sum(both);");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, "20\n9\n");
  auto bad = session_->Execute("PRINT concat(bat('values'), bat('names'));");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("matching tail types"),
            std::string::npos);
  EXPECT_FALSE(session_->Execute("PRINT concat(bat('values'));").ok());
  EXPECT_FALSE(session_->Execute("PRINT concat(1, 2);").ok());
}

TEST_F(MilTest, ThreadcntValidatesItsArgument) {
  for (const char* script :
       {"threadcnt(0);", "threadcnt(-3);", "threadcnt(2.5);",
        "threadcnt('four');", "threadcnt();"}) {
    auto out = session_->Execute(script);
    ASSERT_FALSE(out.ok()) << script;
    EXPECT_NE(out.status().ToString().find("threadcnt"), std::string::npos)
        << out.status().ToString();
  }
  EXPECT_EQ(session_->exec().threadcnt, 1);  // failed calls leave it alone
}

TEST_F(MilTest, ThreadcntSetsTheSessionContext) {
  auto out = session_->Execute("PRINT threadcnt(4);");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "4\n");
  EXPECT_EQ(session_->exec().threadcnt, 4);
}

TEST_F(MilTest, ParallelSelectAndAggregatesMatchSerialOutput) {
  // Force the parallel path even on the 10-row fixture BAT.
  ExecContext exec;
  exec.morsel_rows = 2;
  exec.serial_cutoff = 1;
  session_->set_exec(exec);
  const std::string script =
      "PRINT count(select(bat('values'), 0.15, 0.85));\n"
      "PRINT sum(bat('values'));\n"
      "PRINT max(bat('values'));\n"
      "PRINT count(select(bat('names'), 'alpha'));\n";
  auto serial = session_->Execute("threadcnt(1);" + script);
  auto parallel = session_->Execute("threadcnt(7);" + script);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*serial, *parallel);
  EXPECT_EQ(*serial, "7\n4.5\n0.9\n2\n");
}

TEST_F(MilTest, InfoReportsAccelerationState) {
  // Fresh catalog BAT: no indexes yet, dictionary populated for str tails.
  auto out = session_->Execute("PRINT info('names');");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("BAT[oid,str] #3"), std::string::npos);
  EXPECT_NE(out->find("dict=2"), std::string::npos);  // alpha, beta
  EXPECT_NE(out->find("tail_index[built=0"), std::string::npos);

  // A forced build on the catalog BAT shows up — info('name') inspects the
  // BAT in place, not a session copy.
  auto bat = catalog_.Get("names");
  ASSERT_TRUE(bat.ok());
  (*bat)->BuildTailIndex();
  out = session_->Execute("PRINT info('names');");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("tail_index[built=1 fresh=1 builds=1"),
            std::string::npos);

  // The expression form works on session values too.
  out = session_->Execute("PRINT info(slice(bat('names'), 0, 2));");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("info(<expr>): BAT[oid,str] #2"), std::string::npos);

  // Unknown catalog names and bad arity are errors.
  EXPECT_FALSE(session_->Execute("PRINT info('nope');").ok());
  EXPECT_FALSE(session_->Execute("PRINT info();").ok());
}

TEST_F(MilTest, GroupAssignsDenseIds) {
  // 'names' is alpha/beta/alpha: two groups, the first and third rows share
  // an id. group() returns a BAT[oid,oid] with one row per input row.
  auto out = session_->Execute(
      "VAR g := group(bat('names'));\n"
      "PRINT count(g);\n"
      "PRINT g;");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("3"), std::string::npos);
  EXPECT_NE(out->find("BAT[oid,oid] #3"), std::string::npos);
  // Arity and type errors are static rejections.
  EXPECT_FALSE(session_->Execute("PRINT group();").ok());
  EXPECT_FALSE(session_->Execute("PRINT group(1);").ok());
}

TEST_F(MilTest, ArgmaxReturnsThePositionOfTheMax) {
  auto out = session_->Execute("PRINT argmax(bat('values'));");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, "9\n");  // 0.9 is the last of the 10 rows
  // Empty input is the runtime's FailedPrecondition — and the analyzer
  // rejects it statically with the same message.
  auto empty = session_->Execute("PRINT argmax(new('dbl'));");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().ToString().find("ArgMax of empty BAT"),
            std::string::npos);
  // Non-numeric tails are rejected too.
  EXPECT_FALSE(session_->Execute("PRINT argmax(bat('names'));").ok());
}

TEST_F(MilTest, GroupAndArgmaxAgreeAcrossShardedPlans) {
  ExecContext exec;
  exec.morsel_rows = 2;
  exec.serial_cutoff = 1;
  session_->set_exec(exec);
  const std::string script =
      "PRINT count(group(bat('names')));\n"
      "PRINT argmax(bat('values'));\n";
  auto serial = session_->Execute(script);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto sharded = session_->Execute("shards(2);\n" + script + "shards(1);\n");
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(*serial, *sharded);
}

TEST_F(MilTest, BatPrintFormat) {
  auto out = session_->Execute("PRINT slice(bat('names'), 0, 2);");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("BAT[oid,str] #2"), std::string::npos);
  EXPECT_NE(out->find("alpha"), std::string::npos);
}

}  // namespace
}  // namespace cobra::kernel
