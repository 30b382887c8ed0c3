// Unit coverage of the sharded scatter-gather layer (kernel/shard.h) and
// its integration points: partitioning invariants, zone-map pruning, the
// exchange trace spans, ShardedCatalog semantics, the MIL `shards(n)`
// statement (interpreter/analyzer parity on the storage-statement gate),
// the query layer's sharded snapshot set, and a TSAN hammer over the
// scan-stats cache. The byte-identity sweep itself lives in
// differential_test.cc; this file pins the structural contracts.

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/diag.h"
#include "base/io.h"
#include "base/trace.h"
#include "cobra/video_model.h"
#include "extensions/extension.h"
#include "kernel/bat.h"
#include "kernel/catalog.h"
#include "kernel/exec_context.h"
#include "kernel/mil.h"
#include "kernel/shard.h"
#include "query/analyzer.h"
#include "query/engine.h"
#include "query/parser.h"
#include "query/snapshot.h"

namespace cobra::kernel {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// ---------------------------------------------------------------------------
// Partitioning.

TEST(ShardRangesTest, BoundariesAlignAndCover) {
  for (const size_t rows : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                            size_t{65}, size_t{1000}}) {
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      for (const size_t align : {size_t{1}, size_t{4}, size_t{32}}) {
        SCOPED_TRACE("rows=" + std::to_string(rows) +
                     " shards=" + std::to_string(shards) +
                     " align=" + std::to_string(align));
        const std::vector<ShardRange> ranges = ShardRanges(rows, shards, align);
        ASSERT_EQ(ranges.size(), shards);
        EXPECT_EQ(ranges.front().begin, 0u);
        EXPECT_EQ(ranges.back().end, rows);
        for (size_t k = 0; k < shards; ++k) {
          EXPECT_LE(ranges[k].begin, ranges[k].end);
          if (k > 0) {
            EXPECT_EQ(ranges[k].begin, ranges[k - 1].end);
          }
          // Every interior boundary is a multiple of the quantum.
          if (ranges[k].begin != rows) {
            EXPECT_EQ(ranges[k].begin % align, 0u);
          }
        }
      }
    }
  }
}

TEST(ShardRangesTest, HugeAlignPutsEverythingInOneShard) {
  // morsel_rows = 0 saturates MorselRows() to ~0; partitioning under that
  // quantum must not overflow and must keep all rows in a single slice.
  const std::vector<ShardRange> ranges = ShardRanges(100, 4, ~size_t{0});
  size_t covered = 0;
  for (const ShardRange& r : ranges) covered += r.size();
  EXPECT_EQ(covered, 100u);
}

TEST(PartitionedBatTest, GatherRestoresDictionaryStringsExactly) {
  Bat bat(TailType::kStr);
  for (Oid i = 0; i < 100; ++i) {
    bat.AppendStr(i, i % 3 == 0 ? "" : (i % 2 == 0 ? "alpha" : "beta"));
  }
  const PartitionedBat part(bat, 3, 8);
  const ShardedBat sb = part.View();
  EXPECT_EQ(sb.rows(), bat.size());
  EXPECT_TRUE(sb.AlignedTo(8));
  EXPECT_TRUE(sb.AlignedTo(4));  // 8 is a multiple of 4

  const Bat back = GatherShards(sb, ExecContext::Serial());
  ASSERT_EQ(back.size(), bat.size());
  for (size_t i = 0; i < bat.size(); ++i) {
    EXPECT_EQ(back.HeadAt(i), bat.HeadAt(i));
    EXPECT_EQ(back.StrAt(i), bat.StrAt(i));
  }
}

// ---------------------------------------------------------------------------
// Zone maps and pruning.

TEST(ShardStatsTest, NaNOnlyShardIsPrunableAndNeverMatches) {
  // Shard 1 is all-NaN: has_non_nan == false, so every range prunes it —
  // which is exactly right, because SelectRange never matches a NaN row.
  Bat bat(TailType::kFloat);
  for (Oid i = 0; i < 4; ++i) bat.AppendFloat(i, static_cast<double>(i));
  for (Oid i = 4; i < 8; ++i) bat.AppendFloat(i, kNaN);
  for (Oid i = 8; i < 12; ++i) bat.AppendFloat(i, 100.0 + i);

  const PartitionedBat part(bat, 3, 4);
  const ExecContext ctx = ExecContext::Serial();
  const std::vector<ShardStats> stats = ComputeShardStats(part.View(), ctx);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_TRUE(stats[0].has_non_nan);
  EXPECT_EQ(stats[0].min, 0.0);
  EXPECT_EQ(stats[0].max, 3.0);
  EXPECT_FALSE(stats[1].has_non_nan);
  EXPECT_TRUE(stats[2].has_non_nan);

  ExchangeOptions opts;
  opts.scan_stats = &stats;
  trace::TraceSink sink;
  ExecContext traced = ctx;
  traced.trace = &sink;
  // A window over shard 0 only: shards 1 (NaN) and 2 (disjoint) prune.
  auto pruned = ShardedSelectRange(part.View(), 1.0, 2.0, traced, opts);
  ASSERT_TRUE(pruned.ok());
  auto full = bat.SelectRange(1.0, 2.0);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(pruned->size(), full->size());
  for (size_t i = 0; i < full->size(); ++i) {
    EXPECT_EQ(pruned->HeadAt(i), full->HeadAt(i));
    EXPECT_TRUE(SameBits(pruned->FloatAt(i), full->FloatAt(i)));
  }

  // The scatter span reports the pruned shard count.
  ASSERT_GE(sink.root_count(), 1u);
  EXPECT_EQ(sink.roots()[0]->name, "exchange.scatter");
  EXPECT_NE(sink.roots()[0]->detail.find("op=select_range pruned=2"),
            std::string::npos)
      << sink.roots()[0]->detail;
}

TEST(ShardStatsTest, StaleStatsAreIgnoredNotTrusted) {
  // Stats computed at one version must not prune a mutated slice: versions
  // no longer match, so the operator scans everything.
  ShardedCatalog cat(2, 1);
  Bat bat(TailType::kFloat);
  bat.AppendFloat(1, 1.0);
  bat.AppendFloat(2, 2.0);
  ASSERT_TRUE(cat.Put("t", bat).ok());
  const ExecContext ctx = ExecContext::Serial();
  auto stats = cat.ScanStats("t", ctx);
  ASSERT_TRUE(stats.ok());

  // Mutate after the stats were taken (append routes to the last shard).
  ASSERT_TRUE(cat.Append("t", 3, Value::Float(50.0)).ok());
  auto view = cat.View("t");
  ASSERT_TRUE(view.ok());
  ExchangeOptions opts;
  opts.scan_stats = &*stats;  // stale: computed before the append
  auto result = ShardedSelectRange(*view, 49.0, 51.0, ctx, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);  // the new row is found despite stale maps
  EXPECT_EQ(result->HeadAt(0), Oid{3});

  // The catalog's cache recomputes lazily and the fresh maps see the row.
  auto fresh = cat.ScanStats("t", ctx);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)[1].max, 50.0);
}

// ---------------------------------------------------------------------------
// Exchange trace shape.

TEST(ShardTraceTest, ScatterAndMergeSpansNestThePerShardKernels) {
  Bat bat(TailType::kInt);
  for (Oid i = 0; i < 64; ++i) bat.AppendInt(i, static_cast<int64_t>(i % 5));
  const PartitionedBat part(bat, 2, 4);

  trace::TraceSink sink;
  ExecContext ctx;
  ctx.morsel_rows = 4;
  ctx.serial_cutoff = 1;
  ctx.trace = &sink;
  auto r = ShardedSelectEq(part.View(), Value::Int(3), ctx);
  ASSERT_TRUE(r.ok());

  // Roots: exchange.scatter (with one kernel child per shard) followed by
  // exchange.merge.
  ASSERT_EQ(sink.root_count(), 2u);
  const trace::Span& scatter = *sink.roots()[0];
  const trace::Span& merge = *sink.roots()[1];
  EXPECT_EQ(scatter.name, "exchange.scatter");
  EXPECT_NE(scatter.detail.find("shards=2"), std::string::npos);
  EXPECT_EQ(scatter.children.size(), 2u);
  for (const auto& child : scatter.children) {
    EXPECT_EQ(child->name, "kernel.select_eq");
  }
  EXPECT_EQ(merge.name, "exchange.merge");
}

// ---------------------------------------------------------------------------
// ShardedCatalog semantics.

TEST(ShardedCatalogTest, PutPartitionsAndAppendRoutesToLastShard) {
  ShardedCatalog cat(3, 2);
  EXPECT_FALSE(cat.Exists("laps"));
  Bat bat(TailType::kInt);
  for (Oid i = 0; i < 6; ++i) bat.AppendInt(i, static_cast<int64_t>(i));
  ASSERT_TRUE(cat.Put("laps", bat).ok());
  EXPECT_TRUE(cat.Exists("laps"));
  auto rows = cat.Rows("laps");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 6u);

  // Aligned even split: 2 rows per shard.
  auto view = cat.View("laps");
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->num_shards(), 3u);
  for (size_t k = 0; k < 3; ++k) EXPECT_EQ(view->slices[k]->size(), 2u);

  // Appends grow only the last shard, keeping earlier offsets aligned.
  ASSERT_TRUE(cat.Append("laps", 99, Value::Int(42)).ok());
  view = cat.View("laps");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->slices[0]->size(), 2u);
  EXPECT_EQ(view->slices[2]->size(), 3u);
  EXPECT_TRUE(view->AlignedTo(2));

  const ExecContext ctx = ExecContext::Serial();
  auto gathered = cat.Gather("laps", ctx);
  ASSERT_TRUE(gathered.ok());
  ASSERT_EQ(gathered->size(), 7u);
  EXPECT_EQ(gathered->IntAt(6), 42);

  ASSERT_TRUE(cat.Drop("laps").ok());
  EXPECT_FALSE(cat.Exists("laps"));
  EXPECT_EQ(cat.Drop("laps").code(), StatusCode::kNotFound);
  EXPECT_EQ(cat.View("laps").status().code(), StatusCode::kNotFound);
}

TEST(ShardedCatalogTest, ScanStatsHammerIsRaceFree) {
  // Concurrent readers on the lazily-recomputed zone-map cache plus sharded
  // scans: the tsan preset turns any missed lock into a failure.
  ShardedCatalog cat(4, 8);
  Bat bat(TailType::kFloat);
  for (Oid i = 0; i < 512; ++i) {
    bat.AppendFloat(i, static_cast<double>(i % 97));
  }
  ASSERT_TRUE(cat.Put("t", bat).ok());
  ExecContext ctx;
  ctx.threadcnt = 2;
  ctx.morsel_rows = 8;
  ctx.serial_cutoff = 1;

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&cat, &ctx] {
      for (int i = 0; i < 25; ++i) {
        auto stats = cat.ScanStats("t", ctx);
        ASSERT_TRUE(stats.ok());
        auto view = cat.View("t");
        ASSERT_TRUE(view.ok());
        ExchangeOptions opts;
        opts.scan_stats = &*stats;
        auto r = ShardedSelectRange(*view, 10.0, 20.0, ctx, opts);
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r->size(), 11u * (512 / 97 + (10 < 512 % 97 ? 1 : 0)));
      }
    });
  }
  for (std::thread& r : readers) r.join();
}

// ---------------------------------------------------------------------------
// MIL: the shards(n) statement and the storage gate, interpreter and
// analyzer in lockstep.

TEST(MilShardsTest, ShardsStatementValidatesItsRange) {
  Catalog catalog;
  MilSession session(&catalog);
  EXPECT_TRUE(session.Execute("shards(4);").ok());
  EXPECT_EQ(session.exec().shards, 4);
  for (const char* bad : {"shards(0);", "shards(65);", "shards(2.5);"}) {
    auto r = session.Execute(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("shards expects an integer in [1, 64]"),
              std::string::npos)
        << r.status().message();
  }
  // Failed scripts leave the session untouched (verify-before-execute).
  EXPECT_EQ(session.exec().shards, 4);
  EXPECT_TRUE(session.Execute("shards(1);").ok());
  EXPECT_EQ(session.exec().shards, 1);
}

TEST(MilShardsTest, StorageStatementsAreGatedWhileSharded) {
  io::MemFs fs;
  Catalog catalog;
  for (const char* stmt : {"save 'd';", "load 'd';", "checkpoint;"}) {
    const std::string script = std::string("shards(2);\n") + stmt;
    SCOPED_TRACE(script);

    // Interpreter: FailedPrecondition naming the shard count.
    MilSession session(&catalog, "data");
    session.set_fs(&fs);
    auto r = session.Execute(script);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(r.status().message().find(
                  "illegal while the session is sharded (shards(2) in effect)"),
              std::string::npos)
        << r.status().message();

    // Analyzer: the same verdict, positioned, before anything executes.
    MilAnalysisContext actx;
    actx.catalog = &catalog;
    actx.fs = &fs;
    actx.data_dir_attached = true;
    DiagnosticList diags = AnalyzeMilScript(script, actx);
    ASSERT_FALSE(diags.ok());
    EXPECT_EQ(diags.diagnostics()[0].code, StatusCode::kFailedPrecondition);
    EXPECT_NE(diags.diagnostics()[0].message.find("illegal while the session"),
              std::string::npos);

    // Resetting to shards(1) clears the gate for the analyzer too.
    const std::string reset = "shards(2);\nshards(1);\n" + std::string(stmt);
    DiagnosticList after = AnalyzeMilScript(reset, actx);
    for (const auto& d : after.diagnostics()) {
      EXPECT_EQ(d.message.find("illegal while the session is sharded"),
                std::string::npos)
          << d.message;
    }
  }

  // A session whose ExecContext already has shards > 1 seeds the analysis
  // context, so a bare storage statement is rejected up front.
  MilSession sharded(&catalog, "data");
  sharded.set_fs(&fs);
  ASSERT_TRUE(sharded.Execute("shards(3);").ok());
  auto gated = sharded.Execute("checkpoint;");
  ASSERT_FALSE(gated.ok());
  EXPECT_EQ(gated.status().code(), StatusCode::kFailedPrecondition);

  // A non-literal count is statically unknown: the analyzer passes it
  // conservatively (zero false rejections), execution decides.
  MilAnalysisContext actx;
  actx.catalog = &catalog;
  actx.fs = &fs;
  actx.data_dir_attached = true;
  DiagnosticList unknown = AnalyzeMilScript(
      "VAR n := 1;\nshards(n);\ncheckpoint;", actx);
  EXPECT_TRUE(unknown.ok()) << unknown.ToString("mil");
}

TEST(MilShardsTest, ShardedSessionMatchesUnshardedOutput) {
  Catalog catalog;
  auto created = catalog.Create("f", TailType::kFloat);
  ASSERT_TRUE(created.ok());
  for (Oid i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        (*created)
            ->Append(i, Value::Float(static_cast<double>(i % 7) - 3.0))
            .ok());
  }
  const std::string body =
      "PRINT count(select(bat('f'), -1, 2));\n"
      "PRINT sum(bat('f'));\nPRINT min(bat('f'));\nPRINT max(bat('f'));\n";
  MilSession plain(&catalog);
  auto reference = plain.Execute(body);
  ASSERT_TRUE(reference.ok());
  MilSession sharded(&catalog);
  auto out = sharded.Execute("shards(5);\n" + body);
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_EQ(*reference, *out);
}

}  // namespace
}  // namespace cobra::kernel

// ---------------------------------------------------------------------------
// Query layer: the sharded snapshot set.

namespace cobra::query {
namespace {

model::EventRecord MakeEvent(const std::string& type, double b, double e) {
  model::EventRecord record;
  record.type = type;
  record.begin_sec = b;
  record.end_sec = e;
  return record;
}

/// A two-shard deployment: each shard owns one video's catalog.
class ShardedSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto race = videos0_.RegisterVideo("race", 600.0);
    ASSERT_TRUE(race.ok());
    race_ = *race;
    ASSERT_TRUE(videos0_.StoreEvent(race_, MakeEvent("highlight", 30, 40)).ok());
    auto quali = videos1_.RegisterVideo("quali", 3600.0);
    ASSERT_TRUE(quali.ok());
    quali_ = *quali;
    ASSERT_TRUE(
        videos1_.StoreEvent(quali_, MakeEvent("highlight", 10, 20)).ok());
    ASSERT_TRUE(
        videos1_.StoreEvent(quali_, MakeEvent("highlight", 50, 60)).ok());
  }

  kernel::Catalog kcat0_, kcat1_;
  model::VideoCatalog videos0_{&kcat0_};
  model::VideoCatalog videos1_{&kcat1_};
  SnapshotManager mgr0_{&videos0_, &kcat0_};
  SnapshotManager mgr1_{&videos1_, &kcat1_};
  extensions::ExtensionRegistry registry_;
  QueryEngine engine_{&videos0_, &registry_};
  model::VideoId race_ = 0;
  model::VideoId quali_ = 0;
};

TEST_F(ShardedSnapshotTest, AcquireIsCoherentAndStamped) {
  auto set = AcquireShardedSnapshots({&mgr0_, &mgr1_});
  ASSERT_TRUE(set.ok()) << set.status().message();
  EXPECT_EQ(set->size(), 2u);
  EXPECT_TRUE(set->coherent());
  ASSERT_EQ(set->epochs().size(), 2u);
  EXPECT_EQ(set->epochs()[0], set->shard(0).epoch());
  EXPECT_EQ(set->epochs()[1], set->shard(1).epoch());
  EXPECT_EQ(set->EpochStamp(), "shards=2 epochs=[1,1] coherent=true");

  EXPECT_EQ(set->OwnerOf("race"), 0u);
  EXPECT_EQ(set->OwnerOf("quali"), 1u);
  EXPECT_EQ(set->OwnerOf("missing"), 0u);  // shard-0 fallback

  EXPECT_EQ(AcquireShardedSnapshots({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AcquireShardedSnapshots({&mgr0_, nullptr}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardedSnapshotTest, ExecuteRoutesToTheOwningShard) {
  auto set = AcquireShardedSnapshots({&mgr0_, &mgr1_});
  ASSERT_TRUE(set.ok());

  // quali lives on shard 1: its two highlights come back, and the result is
  // stamped with the full epoch vector.
  auto r = engine_.ExecuteSnapshot("RETRIEVE highlight FROM 'quali'", *set);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->segments.size(), 2u);
  EXPECT_EQ(r->info, set->EpochStamp());

  auto r0 = engine_.ExecuteSnapshot("RETRIEVE highlight FROM 'race'", *set);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0->segments.size(), 1u);

  // A video no shard owns fails with the single-catalog NotFound, byte for
  // byte (shard-0 fallback).
  auto missing =
      engine_.ExecuteSnapshot("RETRIEVE highlight FROM 'missing'", *set);
  ASSERT_FALSE(missing.ok());
  auto pin0 = mgr0_.Acquire();
  auto single =
      engine_.ExecuteSnapshot("RETRIEVE highlight FROM 'missing'", *pin0);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(missing.status().code(), single.status().code());
  EXPECT_EQ(missing.status().message(), single.status().message());

  // Storage commands stay rejected on the sharded path, byte for byte as
  // on a single snapshot.
  auto persist = engine_.ExecuteSnapshot("PERSIST", *set);
  ASSERT_FALSE(persist.ok());
  EXPECT_EQ(persist.status().code(), StatusCode::kFailedPrecondition);
  auto single_persist = engine_.ExecuteSnapshot("PERSIST", *pin0);
  ASSERT_FALSE(single_persist.ok());
  EXPECT_EQ(persist.status().code(), single_persist.status().code());
  EXPECT_EQ(persist.status().message(), single_persist.status().message());
}

TEST_F(ShardedSnapshotTest, ExplainRoutesToTheOwningShardAndMatchesIt) {
  auto set = AcquireShardedSnapshots({&mgr0_, &mgr1_});
  ASSERT_TRUE(set.ok());

  // EXPLAIN over the sharded read set routes to the owning shard and its
  // report is byte-identical to the single-snapshot report of that shard;
  // only the epoch-vector stamp is added.
  auto sharded =
      engine_.ExecuteSnapshot("EXPLAIN RETRIEVE highlight FROM 'quali'", *set);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  EXPECT_TRUE(sharded->segments.empty());  // static analysis only
  EXPECT_EQ(sharded->info, set->EpochStamp());

  auto pin1 = mgr1_.Acquire();
  auto single =
      engine_.ExecuteSnapshot("EXPLAIN RETRIEVE highlight FROM 'quali'", *pin1);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(sharded->profile_text, single->profile_text);
  EXPECT_EQ(sharded->profile_json, single->profile_json);

  // quali holds two highlights and the plan has no predicates: the static
  // interval is exact.
  EXPECT_NE(sharded->profile_text.find("static=[2,2]"), std::string::npos)
      << sharded->profile_text;

  // An empty read set fails like every other sharded read.
  ShardedSnapshotSet no_shards;
  EXPECT_EQ(engine_
                .ExecuteSnapshot("EXPLAIN RETRIEVE highlight FROM 'quali'",
                                 no_shards)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardedSnapshotTest, VerifyPlanMatchesTheOwningShardVerdict) {
  auto set = AcquireShardedSnapshots({&mgr0_, &mgr1_});
  ASSERT_TRUE(set.ok());
  auto parsed = ParseQuery("RETRIEVE highlight FROM 'quali'");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(VerifyPlan(*parsed, *set, registry_).ok());

  auto pin1 = mgr1_.Acquire();
  auto unknown = ParseQuery("RETRIEVE telemetry FROM 'quali'");
  ASSERT_TRUE(unknown.ok());
  const Status sharded = VerifyPlan(*unknown, *set, registry_);
  const Status single = VerifyPlan(*unknown, *pin1, registry_);
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.code(), single.code());
  EXPECT_EQ(sharded.message(), single.message());

  ShardedSnapshotSet empty;
  EXPECT_EQ(VerifyPlan(*parsed, empty, registry_).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardedSnapshotTest, WriterMovingOneShardRefreshesTheVector) {
  auto first = AcquireShardedSnapshots({&mgr0_, &mgr1_});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(videos1_.StoreEvent(quali_, MakeEvent("caption", 1, 2)).ok());
  auto second = AcquireShardedSnapshots({&mgr0_, &mgr1_});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->coherent());
  EXPECT_EQ(second->epochs()[0], first->epochs()[0]);  // shard 0 unmoved
  EXPECT_EQ(second->epochs()[1], first->epochs()[1] + 1);
  // The old pins still read their epoch's data (snapshot isolation).
  EXPECT_EQ(first->shard(1).Events(quali_, "caption").size(), 0u);
  EXPECT_EQ(second->shard(1).Events(quali_, "caption").size(), 1u);
}

}  // namespace
}  // namespace cobra::query
