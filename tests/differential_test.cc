// Randomized differential harness proving plan equivalence of the kernel
// operators.
//
// Every case draws seeded random inputs — ints, doubles (including -0.0 and
// NaN), duplicate-heavy dictionary strings, empty and 1-row BATs — and runs
// each kernel operator under the full plan matrix
//
//   {threadcnt 1, 2, 7} x {auto_index on, off}
//
// plus one traced plan (a live TraceSink), asserting the result is
// byte-identical to the serial reference operator. "Byte-identical" is
// literal: doubles compare by bit pattern, so -0.0 vs +0.0 or differing NaN
// payloads fail. Each seed is one ctest case (240 total); a failure prints
// the seed so the case can be replayed alone:
//
//   ./differential_test --gtest_filter='*/DifferentialTest.*/137'
//
// A second per-seed case drives the same property through the MIL layer: a
// seeded random — but always well-typed — MIL pipeline must pass the static
// verifier (zero false rejections), execute under every plan, and print
// byte-identical output.
//
// Both properties additionally sweep sharded deployments: every plan also
// runs through the scatter-gather exchange operators (kernel/shard.h) at 2
// and 7 shards — and, on the MIL side, under a `shards(2|7)` prologue — and
// must produce the same bytes and the same analyzer verdicts as the
// single-catalog plan. A final deterministic case proves the harness has
// teeth: with the ExchangeOptions::unsafe_unordered_merge seam enabled
// (merge in reversed shard order — the stand-in for a completion-order
// exchange), the byte-equality assertions fail on row order, on a -0.0/0.0
// Min tie, and on Sum's fold order.

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/diag.h"
#include "base/io.h"
#include "base/rng.h"
#include "base/trace.h"
#include "kernel/bat.h"
#include "kernel/catalog.h"
#include "kernel/exec_context.h"
#include "kernel/mil.h"
#include "kernel/persist.h"
#include "kernel/shard.h"

namespace cobra::kernel {
namespace {

struct PlanCase {
  int threadcnt;
  bool auto_index;
};

// The plan matrix every operator runs under. Small morsels and a unit
// serial cutoff engage the parallel machinery at test sizes.
constexpr PlanCase kPlans[] = {{1, true},  {1, false}, {2, true},
                               {2, false}, {7, true},  {7, false}};

ExecContext PlanCtx(const PlanCase& plan) {
  ExecContext ctx;
  ctx.threadcnt = plan.threadcnt;
  ctx.morsel_rows = 32;
  ctx.serial_cutoff = 1;
  ctx.auto_index = plan.auto_index;
  return ctx;
}

std::string PlanName(const PlanCase& plan) {
  return "threadcnt=" + std::to_string(plan.threadcnt) +
         (plan.auto_index ? " auto_index=on" : " auto_index=off");
}

/// Bitwise double equality: NaN == NaN (same payload), -0.0 != +0.0.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameBat(const Bat& expected, const Bat& actual) {
  ASSERT_EQ(expected.tail_type(), actual.tail_type());
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected.HeadAt(i), actual.HeadAt(i)) << "head at " << i;
    switch (expected.tail_type()) {
      case TailType::kInt:
        ASSERT_EQ(expected.IntAt(i), actual.IntAt(i)) << "int tail at " << i;
        break;
      case TailType::kFloat:
        ASSERT_TRUE(SameBits(expected.FloatAt(i), actual.FloatAt(i)))
            << "float tail differs at " << i << ": " << expected.FloatAt(i)
            << " vs " << actual.FloatAt(i);
        break;
      case TailType::kStr:
        ASSERT_EQ(expected.StrAt(i), actual.StrAt(i)) << "str tail at " << i;
        break;
      case TailType::kOid:
        ASSERT_EQ(expected.OidAt(i), actual.OidAt(i)) << "oid tail at " << i;
        break;
    }
  }
}

constexpr TailType kAllTypes[] = {TailType::kInt, TailType::kFloat,
                                  TailType::kStr, TailType::kOid};

/// Containment walk: every span the plan analyzer stamped with a static
/// cardinality interval must contain the observed row count. Returns the
/// number of stamped spans so callers can assert the walk saw any.
size_t ExpectStaticContainment(const trace::TraceSink& sink) {
  size_t stamped = 0;
  std::function<void(const trace::Span&)> walk = [&](const trace::Span& span) {
    if (span.has_static_card) {
      ++stamped;
      EXPECT_LE(span.static_lo, span.rows_out)
          << span.name << ": rows_out below its static interval";
      EXPECT_GE(span.static_hi, span.rows_out)
          << span.name << ": rows_out above its static interval";
    }
    for (const auto& child : span.children) walk(*child);
  };
  for (const auto& root : sink.roots()) walk(*root);
  return stamped;
}

/// Seeded input generator. Tails are duplicate-heavy (small palettes) so
/// selects, joins, and grouping hit real collisions across morsel
/// boundaries; the float palette always contains +0.0, -0.0, NaN, and the
/// infinities.
Bat GenBat(Rng& rng, TailType type, size_t n) {
  constexpr double kSpecials[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  Bat bat(type);
  for (size_t i = 0; i < n; ++i) {
    const Oid head = static_cast<Oid>(rng.UniformInt(uint64_t{200}));
    switch (type) {
      case TailType::kInt:
        bat.AppendInt(head, rng.UniformInt(int64_t{-20}, 20));
        break;
      case TailType::kFloat:
        if (rng.Bernoulli(0.3)) {
          bat.AppendFloat(head, kSpecials[rng.UniformInt(uint64_t{5})]);
        } else {
          // Quantized so duplicates occur by construction.
          bat.AppendFloat(head,
                          static_cast<double>(rng.UniformInt(int64_t{-8}, 8)) /
                              4.0);
        }
        break;
      case TailType::kStr: {
        std::string s;
        if (!rng.Bernoulli(0.1)) {  // ~10% empty strings
          s = "s" + std::to_string(rng.UniformInt(uint64_t{13}));
        }
        bat.AppendStr(head, std::move(s));
        break;
      }
      case TailType::kOid:
        bat.AppendOid(head, static_cast<Oid>(rng.UniformInt(uint64_t{64})));
        break;
    }
  }
  return bat;
}

/// A probe value drawn from the same distribution as the data (so both
/// present and absent keys occur across seeds).
Value GenProbe(Rng& rng, TailType type) {
  Bat one = GenBat(rng, type, 1);
  return one.TailAt(0);
}

/// One seed = one ctest case. The fixture parameter is the seed; every
/// assertion runs under a SCOPED_TRACE naming it.
class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, OperatorsBytewiseEqualAcrossPlans) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("failing seed: " + std::to_string(seed) +
               " (replay with --gtest_filter='*/" +
               std::to_string(seed) + "')");
  // Size schedule guarantees the degenerate shapes appear: every 8th seed
  // is empty, every 8th is a single row; the rest straddle the morsel size.
  constexpr size_t kSizeSchedule[] = {0, 1, 31, 32, 33, 97, 256, 523};
  const size_t n = kSizeSchedule[seed % 8];
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);

  // One traced plan per case: instrumentation must not perturb results.
  trace::TraceSink sink;

  for (TailType type : kAllTypes) {
    SCOPED_TRACE(std::string("tail type: ") + std::string(TailTypeName(type)));
    const Bat bat = GenBat(rng, type, n);
    const Value probe = GenProbe(rng, type);

    // Serial reference results (context-free operator forms).
    auto ref_select = bat.SelectEq(probe);
    ASSERT_TRUE(ref_select.ok());
    std::vector<size_t> ref_reps;
    const Bat ref_group = Group(bat, &ref_reps);

    // Binary-operator partners.
    Bat left(TailType::kOid);  // oid tails pointing into bat's head space
    for (size_t i = 0; i < n; ++i) {
      left.AppendOid(static_cast<Oid>(i),
                     static_cast<Oid>(rng.UniformInt(uint64_t{300})));
    }
    const Bat filter = GenBat(rng, TailType::kOid, n / 2);
    const Bat other = GenBat(rng, type, 57);
    auto ref_join = Join(left, bat);
    ASSERT_TRUE(ref_join.ok());
    const Bat ref_semi = Semijoin(bat, filter);
    const Bat ref_diff = Diff(bat, filter);
    Bat ref_concat(bat);
    ref_concat.Concat(other);

    // Aggregate references come from the threadcnt=1 context form: Sum's
    // morsel-order reduction is the contract, not the unmorseled fold.
    const ExecContext base = PlanCtx(kPlans[0]);

    for (const PlanCase& plan : kPlans) {
      SCOPED_TRACE("plan: " + PlanName(plan));
      for (bool traced : {false, true}) {
        ExecContext ctx = PlanCtx(plan);
        if (traced) {
          ctx.trace = &sink;
          if (!plan.auto_index) continue;  // one traced run per threadcnt
        }
        SCOPED_TRACE(traced ? "traced: yes" : "traced: no");

        auto select = bat.SelectEq(probe, ctx);
        ASSERT_TRUE(select.ok());
        ExpectSameBat(*ref_select, *select);

        if (type == TailType::kStr) {
          auto ref_str = bat.SelectStr("s3");
          auto str = bat.SelectStr("s3", ctx);
          ASSERT_TRUE(ref_str.ok());
          ASSERT_TRUE(str.ok());
          ExpectSameBat(*ref_str, *str);
        }

        if (type == TailType::kInt || type == TailType::kFloat) {
          auto ref_range = bat.SelectRange(-1.5, 1.0);
          auto range = bat.SelectRange(-1.5, 1.0, ctx);
          ASSERT_TRUE(ref_range.ok());
          ASSERT_TRUE(range.ok());
          ExpectSameBat(*ref_range, *range);

          if (n == 0) {
            EXPECT_FALSE(bat.Max(ctx).ok());
            EXPECT_FALSE(bat.Min(ctx).ok());
            EXPECT_FALSE(bat.ArgMax(ctx).ok());
            EXPECT_TRUE(SameBits(*bat.Sum(base), *bat.Sum(ctx)));
          } else {
            EXPECT_TRUE(SameBits(*bat.Sum(base), *bat.Sum(ctx)));
            EXPECT_TRUE(SameBits(*bat.Max(), *bat.Max(ctx)));
            EXPECT_TRUE(SameBits(*bat.Min(), *bat.Min(ctx)));
            EXPECT_EQ(*bat.ArgMax(), *bat.ArgMax(ctx));
          }
        }

        auto join = Join(left, bat, ctx);
        ASSERT_TRUE(join.ok());
        ExpectSameBat(*ref_join, *join);

        ExpectSameBat(ref_semi, Semijoin(bat, filter, ctx));
        ExpectSameBat(ref_diff, Diff(bat, filter, ctx));

        std::vector<size_t> reps;
        ExpectSameBat(ref_group, Group(bat, &reps, ctx));
        EXPECT_EQ(ref_reps, reps);

        Bat concat(bat);
        concat.Concat(other, ctx);
        ExpectSameBat(ref_concat, concat);

        // Sharded legs: the same operators through the scatter-gather
        // exchange at 2 and 7 shards must merge to exactly the same bytes
        // (and fail with exactly the same messages). The aligned leg cuts
        // shards on the plan's morsel grid; the off-grid leg cuts them every
        // 3 rows under 4-row morsels, so shard boundaries fall inside
        // morsels — Sum included, every operator must still match.
        ExecContext off_grid = ctx;
        off_grid.morsel_rows = 4;
        ExecContext off_grid_base = base;
        off_grid_base.morsel_rows = 4;
        struct ShardLeg {
          const char* name;
          const ExecContext& ctx;
          size_t align;
          const ExecContext& sum_ref;  // Sum's same-grid reference plan
        };
        const ShardLeg legs[] = {{"aligned", ctx, ctx.MorselRows(), base},
                                 {"off-grid", off_grid, 3, off_grid_base}};
        for (const ShardLeg& leg : legs)
        for (const size_t shard_count : {size_t{2}, size_t{7}}) {
          SCOPED_TRACE(std::string("shard leg: ") + leg.name +
                       " shards: " + std::to_string(shard_count));
          const ExecContext& sctx = leg.ctx;
          const PartitionedBat part(bat, shard_count, leg.align);
          const ShardedBat sb = part.View();

          ExpectSameBat(bat, GatherShards(sb, sctx));

          auto ssel = ShardedSelectEq(sb, probe, sctx);
          ASSERT_TRUE(ssel.ok());
          ExpectSameBat(*ref_select, *ssel);

          if (type == TailType::kStr) {
            auto sstr = ShardedSelectStr(sb, "s3", sctx);
            ASSERT_TRUE(sstr.ok());
            ExpectSameBat(*bat.SelectStr("s3"), *sstr);
          }

          if (type == TailType::kInt || type == TailType::kFloat) {
            auto ref_range = bat.SelectRange(-1.5, 1.0);
            ASSERT_TRUE(ref_range.ok());
            auto srange = ShardedSelectRange(sb, -1.5, 1.0, sctx);
            ASSERT_TRUE(srange.ok());
            ExpectSameBat(*ref_range, *srange);

            // The pruned plan (zone maps) must not change a single byte.
            const std::vector<ShardStats> stats = ComputeShardStats(sb, sctx);
            ExchangeOptions pruned;
            pruned.scan_stats = &stats;
            auto spruned = ShardedSelectRange(sb, -1.5, 1.0, sctx, pruned);
            ASSERT_TRUE(spruned.ok());
            ExpectSameBat(*ref_range, *spruned);

            if (n == 0) {
              EXPECT_EQ(bat.Min(sctx).status().message(),
                        ShardedMin(sb, sctx).status().message());
              EXPECT_EQ(bat.Max(sctx).status().message(),
                        ShardedMax(sb, sctx).status().message());
              EXPECT_EQ(bat.ArgMax(sctx).status().message(),
                        ShardedArgMax(sb, sctx).status().message());
              EXPECT_TRUE(
                  SameBits(*bat.Sum(leg.sum_ref), *ShardedSum(sb, sctx)));
            } else {
              EXPECT_TRUE(
                  SameBits(*bat.Sum(leg.sum_ref), *ShardedSum(sb, sctx)));
              EXPECT_TRUE(SameBits(*bat.Max(), *ShardedMax(sb, sctx)));
              EXPECT_TRUE(SameBits(*bat.Min(), *ShardedMin(sb, sctx)));
              EXPECT_EQ(*bat.ArgMax(), *ShardedArgMax(sb, sctx));
            }
          }

          const PartitionedBat left_part(left, shard_count, leg.align);
          auto sjoin = ShardedJoin(left_part.View(), bat, sctx);
          ASSERT_TRUE(sjoin.ok());
          ExpectSameBat(*ref_join, *sjoin);

          auto ssemi = ShardedSemijoin(sb, filter, sctx);
          ASSERT_TRUE(ssemi.ok());
          ExpectSameBat(ref_semi, *ssemi);
          auto sdiff = ShardedDiff(sb, filter, sctx);
          ASSERT_TRUE(sdiff.ok());
          ExpectSameBat(ref_diff, *sdiff);

          std::vector<size_t> sreps;
          auto sgroup = ShardedGroup(sb, &sreps, sctx);
          ASSERT_TRUE(sgroup.ok());
          ExpectSameBat(ref_group, *sgroup);
          EXPECT_EQ(ref_reps, sreps);
        }
      }
    }
  }
}

// The verifier side of the harness: per seed, generate a random — but by
// construction well-typed — MIL pipeline over seeded catalog BATs. The
// static analyzer must accept it (zero false rejections), and execution
// (which re-runs the verifier before the first operator) must succeed under
// every plan with byte-identical PRINT output.
TEST_P(DifferentialTest, MilScriptsVerifyAndAgreeAcrossPlans) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("failing seed: " + std::to_string(seed) +
               " (replay with --gtest_filter='*/" + std::to_string(seed) +
               "')");
  constexpr size_t kSizeSchedule[] = {0, 1, 31, 32, 33, 97, 256, 523};
  const size_t n = kSizeSchedule[seed % 8];
  Rng rng(seed * 0xA24BAED4963EE407ull + 0x9FB21C651E98DF25ull);

  Catalog catalog;
  const std::pair<const char*, TailType> sources[] = {
      {"ints", TailType::kInt},
      {"floats", TailType::kFloat},
      {"strs", TailType::kStr},
      {"oids", TailType::kOid}};
  for (const auto& [name, type] : sources) {
    auto created = catalog.Create(name, type);
    ASSERT_TRUE(created.ok());
    const Bat src = GenBat(rng, type, n);
    for (size_t i = 0; i < src.size(); ++i) {
      ASSERT_TRUE((*created)->Append(src.HeadAt(i), src.TailAt(i)).ok());
    }
  }

  std::string script;
  script += "VAR f := bat('floats');\n";
  script += "VAR i := bat('ints');\n";
  const int64_t lo = rng.UniformInt(int64_t{-8}, 0);
  const int64_t hi = lo + rng.UniformInt(int64_t{0}, 8);
  script += "VAR r := select(f, " + std::to_string(lo) + ", " +
            std::to_string(hi) + ");\n";
  script += "PRINT count(r);\nPRINT sum(r);\n";
  if (rng.Bernoulli(0.7)) {
    script += "PRINT count(select(bat('strs'), 's" +
              std::to_string(rng.UniformInt(uint64_t{13})) + "'));\n";
  }
  if (rng.Bernoulli(0.7)) {
    script += "VAR j := join(bat('oids'), f);\n";
    script += "PRINT count(j);\nPRINT sum(j);\n";
  }
  if (rng.Bernoulli(0.5)) {
    script += "PRINT count(semijoin(i, bat('oids')));\n";
  }
  if (rng.Bernoulli(0.5)) script += "PRINT count(diff(f, bat('oids')));\n";
  if (rng.Bernoulli(0.5)) {
    script += "PRINT count(slice(f, 0, " +
              std::to_string(rng.UniformInt(uint64_t{40})) + "));\n";
  }
  if (rng.Bernoulli(0.5)) script += "PRINT count(mirror(bat('strs')));\n";
  if (rng.Bernoulli(0.5)) script += "PRINT sum(concat(i, bat('ints')));\n";
  script += "PRINT count(i);\n";

  MilAnalysisContext actx;
  actx.catalog = &catalog;
  DiagnosticList diags = AnalyzeMilScript(script, actx);
  EXPECT_TRUE(diags.ok()) << script << "\n" << diags.ToString("mil");

  std::string reference;
  bool have_reference = false;
  for (const PlanCase& plan : kPlans) {
    SCOPED_TRACE("plan: " + PlanName(plan));
    MilSession session(&catalog);
    session.set_exec(PlanCtx(plan));
    auto out = session.Execute(script);
    ASSERT_TRUE(out.ok()) << script << "\n" << out.status().message();
    if (!have_reference) {
      reference = *out;
      have_reference = true;
    }
    EXPECT_EQ(reference, *out);
  }

  // Static-analysis legs of the harness: (a) a session with the
  // analyzer-driven rewrites disabled must print exactly the same bytes —
  // the provable-empty and single-shard rewrites are pure optimizations;
  // (b) a traced session must pass the containment walk — every static
  // interval the abstract interpreter stamped on a span contains the
  // observed row count.
  {
    MilSession norewrite(&catalog);
    norewrite.set_exec(PlanCtx(kPlans[0]));
    norewrite.set_disable_static_rewrites(true);
    auto out = norewrite.Execute(script);
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_EQ(reference, *out);

    MilSession traced(&catalog);
    traced.set_exec(PlanCtx(kPlans[0]));
    auto tout = traced.Execute("trace on;\n" + script);
    ASSERT_TRUE(tout.ok()) << tout.status().message();
    EXPECT_EQ(reference, *tout);
    ASSERT_NE(traced.trace_sink(), nullptr);
    EXPECT_GT(ExpectStaticContainment(*traced.trace_sink()), size_t{0});
  }

  // Sharded deployments: the same script under a shards(2|7) prologue must
  // pass the analyzer (verdict parity with the unsharded script) and print
  // exactly the unsharded reference under every plan.
  for (const int shard_count : {2, 7}) {
    SCOPED_TRACE("shards: " + std::to_string(shard_count));
    const std::string sharded_script =
        "shards(" + std::to_string(shard_count) + ");\n" + script;
    MilAnalysisContext sctx;
    sctx.catalog = &catalog;
    DiagnosticList sdiags = AnalyzeMilScript(sharded_script, sctx);
    EXPECT_TRUE(sdiags.ok()) << sharded_script << "\n"
                             << sdiags.ToString("mil");
    for (const PlanCase& plan : kPlans) {
      SCOPED_TRACE("plan: " + PlanName(plan));
      MilSession session(&catalog);
      session.set_exec(PlanCtx(plan));
      auto out = session.Execute(sharded_script);
      ASSERT_TRUE(out.ok()) << sharded_script << "\n"
                            << out.status().message();
      EXPECT_EQ(reference, *out);
    }

    // Sharded static-analysis legs: rewrites disabled (no single-shard or
    // provably-empty pruning) must still print the unsharded reference, and
    // the traced sharded plan must pass the containment walk.
    MilSession norewrite(&catalog);
    norewrite.set_exec(PlanCtx(kPlans[2]));
    norewrite.set_disable_static_rewrites(true);
    auto nout = norewrite.Execute(sharded_script);
    ASSERT_TRUE(nout.ok()) << nout.status().message();
    EXPECT_EQ(reference, *nout);

    MilSession traced(&catalog);
    traced.set_exec(PlanCtx(kPlans[2]));
    auto tout = traced.Execute("trace on;\n" + sharded_script);
    ASSERT_TRUE(tout.ok()) << tout.status().message();
    EXPECT_EQ(reference, *tout);
    ASSERT_NE(traced.trace_sink(), nullptr);
    EXPECT_GT(ExpectStaticContainment(*traced.trace_sink()), size_t{0});
  }

  // Durability leg: a checkpoint→recover round-trip of the catalog must be
  // byte-identical (canonical dump), and the same script over the recovered
  // catalog must print exactly the never-persisted reference.
  io::MemFs fs;
  PersistentStore writer(&fs, "store");
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Checkpoint(catalog).ok());
  Catalog recovered;
  PersistentStore reader(&fs, "store");
  auto info = reader.Recover(&recovered);
  ASSERT_TRUE(info.ok()) << info.status().message();
  EXPECT_EQ(PersistentStore::DumpCatalog(catalog),
            PersistentStore::DumpCatalog(recovered));
  MilSession session(&recovered);
  session.set_exec(PlanCtx(kPlans[0]));
  auto replay = session.Execute(script);
  ASSERT_TRUE(replay.ok()) << script << "\n" << replay.status().message();
  EXPECT_EQ(reference, *replay);
}

// The harness has teeth: with the unsafe_unordered_merge seam enabled the
// exchange merges in reversed shard order — the deterministic stand-in for
// "merge whichever shard finishes first" — and every byte-equality the
// sharded legs above assert must be violable. Each sub-case pins one way
// the bug class corrupts results; the clean plan passes alongside to show
// the divergence is the seam's doing, not the inputs'.
TEST(ShardMergeDefectTest, HarnessCatchesUnorderedMerge) {
  ExecContext ctx;
  ctx.morsel_rows = 1;  // every row its own morsel: fold order fully exposed
  ctx.serial_cutoff = 1;
  ExchangeOptions unsafe;
  unsafe.unsafe_unordered_merge = true;

  // Row order: a select with matches in both shards comes back transposed.
  Bat strs(TailType::kStr);
  strs.AppendStr(1, "x");
  strs.AppendStr(2, "x");
  const PartitionedBat sparts(strs, 2, 1);
  auto clean = ShardedSelectStr(sparts.View(), "x", ctx);
  auto broken = ShardedSelectStr(sparts.View(), "x", ctx, unsafe);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(broken.ok());
  ASSERT_EQ(clean->size(), size_t{2});
  ASSERT_EQ(broken->size(), size_t{2});
  EXPECT_EQ(clean->HeadAt(0), Oid{1});   // shard order
  EXPECT_EQ(broken->HeadAt(0), Oid{2});  // ExpectSameBat would fail here

  // Min tie on -0.0 vs 0.0 across shards: shard order decides which zero's
  // bit pattern survives the leftmost-winner combine.
  Bat zeros(TailType::kFloat);
  zeros.AppendFloat(1, 0.0);
  zeros.AppendFloat(2, -0.0);
  const PartitionedBat zparts(zeros, 2, 1);
  EXPECT_TRUE(SameBits(*zeros.Min(), *ShardedMin(zparts.View(), ctx)));
  EXPECT_FALSE(
      SameBits(*zeros.Min(), *ShardedMin(zparts.View(), ctx, unsafe)));

  // Sum: refolding the per-morsel partials in any other order reassociates
  // the float additions and changes the rounding.
  Bat sums(TailType::kFloat);
  sums.AppendFloat(1, 1.0);
  sums.AppendFloat(2, 1e16);
  sums.AppendFloat(3, -1e16);
  const PartitionedBat fparts(sums, 2, 1);
  EXPECT_TRUE(SameBits(*sums.Sum(ctx), *ShardedSum(fparts.View(), ctx)));
  EXPECT_FALSE(
      SameBits(*sums.Sum(ctx), *ShardedSum(fparts.View(), ctx, unsafe)));
}

// The same defect caught end-to-end through the MIL layer: a session with
// the seam enabled prints different bytes than the clean sharded session —
// which itself matches the unsharded reference.
TEST(ShardMergeDefectTest, MilHarnessCatchesUnorderedMerge) {
  Catalog catalog;
  auto created = catalog.Create("f", TailType::kFloat);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE((*created)->Append(1, Value::Float(0.0)).ok());
  ASSERT_TRUE((*created)->Append(2, Value::Float(-0.0)).ok());

  ExecContext ctx;
  ctx.morsel_rows = 1;
  ctx.serial_cutoff = 1;

  MilSession unsharded(&catalog);
  unsharded.set_exec(ctx);
  auto reference = unsharded.Execute("PRINT min(bat('f'));");
  ASSERT_TRUE(reference.ok());

  const std::string script = "shards(2);\nPRINT min(bat('f'));";
  MilSession sharded(&catalog);
  sharded.set_exec(ctx);
  auto ordered = sharded.Execute(script);
  ASSERT_TRUE(ordered.ok());
  EXPECT_EQ(*reference, *ordered);

  MilSession seamed(&catalog);
  seamed.set_exec(ctx);
  seamed.set_unsafe_unordered_merge(true);
  auto unordered = seamed.Execute(script);
  ASSERT_TRUE(unordered.ok());
  EXPECT_NE(*reference, *unordered);  // -0 vs 0: the harness catches it
}

// The interval side of the harness has teeth too: with the
// unsafe_narrow_intervals seam the abstract interpreter's upper bounds come
// out halved — a deliberately unsound analysis. The PRINT output stays
// byte-identical (the seam corrupts only the proofs, not the plan), so the
// byte-equality legs are blind to it; ONLY the containment walk over the
// traced spans catches the defect. This is the proof that the walk is a
// load-bearing part of the soundness argument, not decoration.
TEST(StaticIntervalDefectTest, ContainmentWalkCatchesNarrowIntervals) {
  Catalog catalog;
  auto created = catalog.Create("f", TailType::kFloat);
  ASSERT_TRUE(created.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*created)->Append(static_cast<Oid>(i), Value::Float(i * 0.25))
                    .ok());
  }
  // The select's hull is inside the predicate range, so all 8 rows match —
  // the clean analysis proves [8, 8]; the seamed one claims hi = 4.
  const std::string script =
      "trace on;\nPRINT count(select(bat('f'), -100, 100));";

  MilSession clean(&catalog);
  auto reference = clean.Execute(script);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  ASSERT_NE(clean.trace_sink(), nullptr);
  EXPECT_GT(ExpectStaticContainment(*clean.trace_sink()), size_t{0});

  MilSession seamed(&catalog);
  seamed.set_unsafe_narrow_intervals(true);
  auto narrowed = seamed.Execute(script);
  ASSERT_TRUE(narrowed.ok()) << narrowed.status().message();
  EXPECT_EQ(*reference, *narrowed);  // bytes agree: equality legs are blind
  ASSERT_NE(seamed.trace_sink(), nullptr);
  size_t violations = 0;
  std::function<void(const trace::Span&)> walk = [&](const trace::Span& span) {
    if (span.has_static_card && span.rows_out > span.static_hi) ++violations;
    for (const auto& child : span.children) walk(*child);
  };
  for (const auto& root : seamed.trace_sink()->roots()) walk(*root);
  EXPECT_GT(violations, size_t{0});  // the walk catches the unsound bound
}

// 240 seeded cases per property; the seed doubles as the ctest case name so
// a failure (which prints the seed via SCOPED_TRACE) maps straight to a
// filter.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(uint64_t{0}, uint64_t{240}));

}  // namespace
}  // namespace cobra::kernel
