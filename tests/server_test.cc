// Tests of the multi-client query server: wire protocol round-trips,
// session lifecycle, snapshot-isolated execution, admission control
// (typed busy errors, shutdown drain, no worker starvation), trace/analyzer
// parity with direct QueryEngine calls, and the seeded isolation-violation
// mode the consistency harness must be able to catch. Everything except the
// final TCP smoke test runs over the in-process LocalConnection transport —
// fully deterministic, no real sockets.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <limits>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "cobra/video_model.h"
#include "extensions/extension.h"
#include "kernel/catalog.h"
#include "query/engine.h"
#include "query/parser.h"
#include "query/snapshot.h"
#include "server/protocol.h"
#include "server/server.h"

namespace cobra::server {
namespace {

// -- Protocol unit tests ---------------------------------------------------

TEST(ProtocolTest, FrameRoundTripIncremental) {
  const std::string payloads[] = {"hello", "", std::string(1000, 'x')};
  std::string stream;
  for (const auto& p : payloads) stream += protocol::EncodeFrame(p);

  // Feed byte-at-a-time: frames must reassemble exactly.
  protocol::FrameDecoder decoder;
  std::vector<std::string> out;
  for (char c : stream) {
    decoder.Feed(std::string_view(&c, 1));
    std::string payload;
    while (decoder.Next(&payload)) out.push_back(payload);
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "hello");
  EXPECT_EQ(out[1], "");
  EXPECT_EQ(out[2], payloads[2]);
}

TEST(ProtocolTest, OversizedFramePoisonsDecoder) {
  protocol::FrameDecoder decoder;
  decoder.Feed(std::string("\xff\xff\xff\xff", 4));
  std::string payload;
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_TRUE(decoder.poisoned());
}

TEST(ProtocolTest, RequestRoundTrip) {
  protocol::Request request;
  request.session = 7;
  request.seq = 42;
  request.query = "RETRIEVE highlight FROM 'race'\nsecond line kept verbatim";
  auto parsed = protocol::ParseRequest(protocol::EncodeRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->session, 7u);
  EXPECT_EQ(parsed->seq, 42u);
  EXPECT_EQ(parsed->query, request.query);

  EXPECT_FALSE(protocol::ParseRequest("no header").ok());
  EXPECT_FALSE(protocol::ParseRequest("Q x y\nquery").ok());
  EXPECT_FALSE(protocol::ParseRequest("Z 1 2\nquery").ok());
}

TEST(ProtocolTest, NumericFieldOverflowIsMalformed) {
  // 2^64 and beyond must be rejected, not silently wrapped modulo 2^64.
  EXPECT_FALSE(protocol::ParseRequest("Q 18446744073709551616 1\nq").ok());
  EXPECT_FALSE(protocol::ParseRequest("Q 1 99999999999999999999\nq").ok());
  EXPECT_FALSE(
      protocol::ParseResponse("OK session=18446744073709551616 seq=1 epoch=1 "
                              "version=1 lsn=1 rows=0\n")
          .ok());
  // UINT64_MAX itself is in range and must still parse exactly.
  auto parsed = protocol::ParseRequest("Q 18446744073709551615 1\nq");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->session, std::numeric_limits<uint64_t>::max());
}

TEST(ProtocolTest, ResponseRoundTrip) {
  protocol::Response response;
  response.ok = true;
  response.session = 3;
  response.seq = 9;
  response.epoch = 4;
  response.version = 17;
  response.lsn = 23;
  model::EventRecord event;
  event.type = "pit stop";  // space must survive escaping
  event.begin_sec = 1.5;
  event.end_sec = 2.5;
  event.confidence = 0.75;
  event.attrs["driver"] = "ALESI";
  response.segments = protocol::EncodeSegments({event});
  response.profile = "server.request\n  query.execute\n";

  auto parsed = protocol::ParseResponse(protocol::EncodeResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->epoch, 4u);
  EXPECT_EQ(parsed->version, 17u);
  EXPECT_EQ(parsed->lsn, 23u);
  ASSERT_EQ(parsed->segments.size(), 1u);
  EXPECT_EQ(parsed->segments[0], response.segments[0]);
  EXPECT_EQ(parsed->profile, response.profile);
  // The segment line carries exact double bits and escaped fields.
  EXPECT_NE(parsed->segments[0].find("pit%20stop"), std::string::npos);
  EXPECT_NE(parsed->segments[0].find("driver=ALESI"), std::string::npos);

  protocol::Response err;
  err.ok = false;
  err.code = StatusCode::kResourceExhausted;
  err.session = 3;
  err.seq = 10;
  err.message = "server busy: 2 requests in flight (limit 2)";
  auto parsed_err = protocol::ParseResponse(protocol::EncodeResponse(err));
  ASSERT_TRUE(parsed_err.ok());
  EXPECT_FALSE(parsed_err->ok);
  EXPECT_EQ(parsed_err->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(parsed_err->message, err.message);

  EXPECT_FALSE(protocol::ParseResponse("BOGUS x\n").ok());
  EXPECT_FALSE(
      protocol::ParseResponse("OK session=1 seq=2 epoch=3\n").ok());
}

TEST(ProtocolTest, SegmentEncodingIsByteExactOnDoubleBits) {
  model::EventRecord a;
  a.type = "t";
  a.begin_sec = 0.1;  // not exactly representable — decimal text would slip
  a.end_sec = 0.3;
  model::EventRecord b = a;
  EXPECT_EQ(protocol::EncodeSegment(a), protocol::EncodeSegment(b));
  b.end_sec = 0.1 + 0.2;  // != 0.3 in IEEE-754
  EXPECT_NE(protocol::EncodeSegment(a), protocol::EncodeSegment(b));
}

// -- Server fixture --------------------------------------------------------

/// Reusable open/close latch for wedging workers deterministically.
struct Gate {
  Mutex mu;
  CondVar cv;
  bool open COBRA_GUARDED_BY(mu) = false;
  void Open() {
    MutexLock lock(mu);
    open = true;
    cv.NotifyAll();
  }
  void WaitOpen() {
    MutexLock lock(mu);
    while (!open) cv.Wait(lock);
  }
};

/// Collects async responses across worker threads.
struct Collector {
  Mutex mu;
  CondVar cv;
  std::vector<protocol::Response> responses COBRA_GUARDED_BY(mu);
  void Add(protocol::Response response) {
    MutexLock lock(mu);
    responses.push_back(std::move(response));
    cv.NotifyAll();
  }
  void WaitFor(size_t n) {
    MutexLock lock(mu);
    while (responses.size() < n) cv.Wait(lock);
  }
  size_t Count() {
    MutexLock lock(mu);
    return responses.size();
  }
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = videos_.RegisterVideo("race", 5400.0);
    ASSERT_TRUE(id.ok());
    video_ = *id;
    StoreEvent("highlight", 30, 40, {});
    StoreEvent("highlight", 100, 110, {{"driver", "ALESI"}});
    StoreEvent("caption", 102, 106, {{"driver", "ALESI"}});
    StoreEvent("caption", 300, 304, {{"driver", "BUTTON"}});
  }

  void StoreEvent(const std::string& type, double b, double e,
                  std::map<std::string, std::string> attrs) {
    model::EventRecord record;
    record.type = type;
    record.begin_sec = b;
    record.end_sec = e;
    record.attrs = std::move(attrs);
    ASSERT_TRUE(videos_.StoreEvent(video_, record).ok());
  }

  std::unique_ptr<QueryServer> MakeServer(ServerConfig config = {}) {
    return std::make_unique<QueryServer>(&engine_, &videos_, &catalog_,
                                         std::move(config));
  }

  kernel::Catalog catalog_;
  model::VideoCatalog videos_{&catalog_};
  extensions::ExtensionRegistry registry_;
  query::QueryEngine engine_{&videos_, &registry_};
  model::VideoId video_ = 0;
};

// -- Basic serving ---------------------------------------------------------

TEST_F(ServerTest, LocalConnectionServesQueries) {
  auto server = MakeServer();
  LocalConnection conn(server.get());
  auto response = conn.Query("RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_EQ(response.segments.size(), 2u);
  EXPECT_GE(response.epoch, 1u);
  EXPECT_EQ(response.session, conn.session());

  // Byte-identical to a direct engine evaluation of the same query.
  auto direct = engine_.Execute("RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response.segments, protocol::EncodeSegments(direct->segments));

  auto filtered =
      conn.Query("RETRIEVE highlight FROM 'race' WHERE driver = 'alesi'");
  ASSERT_TRUE(filtered.ok);
  ASSERT_EQ(filtered.segments.size(), 1u);

  auto join = conn.Query(
      "RETRIEVE highlight FROM 'race' OVERLAPPING caption WHERE driver = "
      "'ALESI'");
  ASSERT_TRUE(join.ok);
  EXPECT_EQ(join.segments.size(), 1u);
}

TEST_F(ServerTest, SessionLifecycle) {
  auto server = MakeServer();
  const uint64_t session = server->OpenSession();
  EXPECT_TRUE(server->Call(session, 1, "RETRIEVE highlight FROM 'race'").ok);
  ASSERT_TRUE(server->CloseSession(session).ok());
  // Requests on a closed (or never-opened) session are typed errors.
  auto response = server->Call(session, 2, "RETRIEVE highlight FROM 'race'");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kNotFound);
  EXPECT_EQ(server->CloseSession(session).code(), StatusCode::kNotFound);

  auto stats = server->stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST_F(ServerTest, StorageCommandsAreRejected) {
  auto server = MakeServer();
  LocalConnection conn(server.get());
  auto response = conn.Query("PERSIST INTO '/tmp/nope'");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kFailedPrecondition);
  auto recover = conn.Query("RECOVER FROM '/tmp/nope'");
  EXPECT_FALSE(recover.ok);
  EXPECT_EQ(recover.code, StatusCode::kFailedPrecondition);

  // Every read entry point shares one front: each spelling of a storage
  // verb gets the same code and message bytes over the wire, over a pinned
  // snapshot and over a one-shard sharded set. A lookalike word is plain
  // retrieval text and gets the grammar's error on all three.
  auto pin = server->snapshots().Acquire();
  auto set = query::AcquireShardedSnapshots({&server->snapshots()});
  ASSERT_TRUE(set.ok());
  const std::string persist_error =
      "PERSIST is a storage command — snapshot reads are read-only";
  const std::string recover_error =
      "RECOVER is a storage command — snapshot reads are read-only";
  const struct {
    const char* text;
    StatusCode code;
    std::string message;
  } cases[] = {
      {"PERSIST", StatusCode::kFailedPrecondition, persist_error},
      {"persist into 'd'", StatusCode::kFailedPrecondition, persist_error},
      {"  Recover FROM 'd'", StatusCode::kFailedPrecondition, recover_error},
      {"RECOVER", StatusCode::kFailedPrecondition, recover_error},
      {"PERSISTED RETRIEVE highlight FROM 'race'",
       StatusCode::kInvalidArgument,
       "query:1:1: error: query must start with RETRIEVE"},
  };
  for (const auto& c : cases) {
    auto wire = conn.Query(c.text);
    auto snapshot = engine_.ExecuteSnapshot(c.text, *pin);
    auto sharded = engine_.ExecuteSnapshot(c.text, *set);
    ASSERT_FALSE(wire.ok) << c.text;
    ASSERT_FALSE(snapshot.ok()) << c.text;
    ASSERT_FALSE(sharded.ok()) << c.text;
    EXPECT_EQ(wire.code, c.code) << c.text;
    EXPECT_EQ(wire.message, c.message) << c.text;
    EXPECT_EQ(snapshot.status().code(), c.code) << c.text;
    EXPECT_EQ(snapshot.status().message(), c.message) << c.text;
    EXPECT_EQ(sharded.status().code(), c.code) << c.text;
    EXPECT_EQ(sharded.status().message(), c.message) << c.text;
  }
}

TEST_F(ServerTest, MalformedFramesAndQueries) {
  auto server = MakeServer();
  // A garbage frame payload yields a parseable ERR response, not a crash.
  auto raw = server->HandleFrame("not a request");
  auto parsed = protocol::ParseResponse(raw);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->code, StatusCode::kInvalidArgument);

  // Malformed query text: same typed diagnostics as the direct engine.
  LocalConnection conn(server.get());
  auto response = conn.Query("RETRIEVE highlight FROM");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
  auto direct = engine_.Execute("RETRIEVE highlight FROM");
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(response.message, direct.status().message());
}

TEST_F(ServerTest, VerifyPlanDiagnosticsMatchDirectEngine) {
  auto server = MakeServer();
  LocalConnection conn(server.get());
  for (const char* text :
       {"RETRIEVE highlight FROM 'nope'", "RETRIEVE nosuch FROM 'race'"}) {
    auto via_server = conn.Query(text);
    auto direct = engine_.Execute(text);
    ASSERT_FALSE(via_server.ok);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(via_server.code, direct.status().code()) << text;
    EXPECT_EQ(via_server.message, direct.status().message()) << text;
  }
}

// -- Snapshot isolation ----------------------------------------------------

TEST_F(ServerTest, SnapshotEpochAdvancesOnWriteAndReclaims) {
  auto server = MakeServer();
  LocalConnection conn(server.get());

  auto first = conn.Query("RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(first.ok);
  auto second = conn.Query("RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(second.ok);
  // No write in between: same epoch, no republication.
  EXPECT_EQ(first.epoch, second.epoch);
  EXPECT_EQ(first.version, second.version);

  StoreEvent("highlight", 200, 210, {});
  auto third = conn.Query("RETRIEVE highlight FROM 'race'");
  ASSERT_TRUE(third.ok);
  EXPECT_GT(third.epoch, second.epoch);
  EXPECT_GT(third.version, second.version);
  EXPECT_EQ(third.segments.size(), 3u);

  auto stats = server->stats();
  EXPECT_EQ(stats.snapshots.published, 2u);
  // The superseded epoch had no pins left: reclaimed.
  EXPECT_EQ(stats.snapshots.reclaimed, 1u);
  EXPECT_EQ(stats.snapshots.live_epochs, 1u);
}

TEST_F(ServerTest, PinnedSnapshotUnaffectedByConcurrentWrite) {
  auto server = MakeServer();
  auto pin = server->snapshots().Acquire();
  const uint64_t pinned_epoch = pin->epoch();

  auto before = engine_.ExecuteSnapshot("RETRIEVE highlight FROM 'race'", *pin);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->segments.size(), 2u);

  StoreEvent("highlight", 200, 210, {});

  // The pinned snapshot still serves the old state, byte-identically...
  auto after = engine_.ExecuteSnapshot("RETRIEVE highlight FROM 'race'", *pin);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(protocol::EncodeSegments(before->segments),
            protocol::EncodeSegments(after->segments));
  // ...while new acquisitions see the write under a later epoch.
  {
    auto fresh = server->snapshots().Acquire();
    EXPECT_GT(fresh->epoch(), pinned_epoch);
    auto live = engine_.ExecuteSnapshot("RETRIEVE highlight FROM 'race'",
                                        *fresh);
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(live->segments.size(), 3u);
    // Both epochs alive: the old one is pinned.
    EXPECT_EQ(server->snapshots().stats().live_epochs, 2u);
  }
  auto stats = server->snapshots().stats();
  EXPECT_EQ(stats.pinned_readers, 1u);
  EXPECT_EQ(stats.oldest_pinned_epoch, pinned_epoch);
}

TEST_F(ServerTest, SnapshotReadsDoNotExtractDynamically) {
  int calls = 0;
  registry_.Register(std::make_unique<extensions::CallbackExtension>(
      "test-extension",
      std::vector<extensions::CallbackExtension::Provided>{
          {"flyout", 1.0, 0.9}},
      [&calls](model::VideoId id, const std::string&,
               model::VideoCatalog* catalog) {
        ++calls;
        model::EventRecord e;
        e.type = "flyout";
        e.begin_sec = 50;
        e.end_sec = 57;
        return catalog->StoreEvent(id, e);
      }));
  auto server = MakeServer();
  LocalConnection conn(server.get());
  // Through the server: typed FailedPrecondition, extension NOT invoked.
  auto response = conn.Query("RETRIEVE flyout FROM 'race'");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(calls, 0);
  // The live engine path extracts; afterwards the server serves the
  // materialized metadata from the next snapshot.
  ASSERT_TRUE(engine_.Execute("RETRIEVE flyout FROM 'race'").ok());
  EXPECT_EQ(calls, 1);
  auto again = conn.Query("RETRIEVE flyout FROM 'race'");
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.segments.size(), 1u);
  EXPECT_EQ(calls, 1);
}

// -- Admission control -----------------------------------------------------

TEST_F(ServerTest, QueueFullReturnsTypedBusyError) {
  auto gate = std::make_shared<Gate>();
  ServerConfig config;
  config.workers = 1;
  config.max_queue = 1;  // 1 executing + 1 queued
  config.pre_execute_hook = [gate] { gate->WaitOpen(); };
  auto server = MakeServer(config);
  const uint64_t session = server->OpenSession();

  Collector collector;
  auto done = [&collector](protocol::Response r) {
    collector.Add(std::move(r));
  };
  // First request wedges the only worker; second fills the queue slot.
  ASSERT_TRUE(
      server->Submit(session, 1, "RETRIEVE highlight FROM 'race'", done).ok());
  ASSERT_TRUE(
      server->Submit(session, 2, "RETRIEVE highlight FROM 'race'", done).ok());
  // Third submit bounces IMMEDIATELY with the typed busy error — no hang,
  // no blocking on the wedged worker.
  Status busy =
      server->Submit(session, 3, "RETRIEVE highlight FROM 'race'", done);
  EXPECT_EQ(busy.code(), StatusCode::kResourceExhausted);
  // Call() surfaces the same backpressure as an ERR response.
  auto via_call = server->Call(session, 4, "RETRIEVE highlight FROM 'race'");
  EXPECT_FALSE(via_call.ok);
  EXPECT_EQ(via_call.code, StatusCode::kResourceExhausted);

  gate->Open();
  collector.WaitFor(2);
  auto stats = server->stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected_busy, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_F(ServerTest, ShutdownDrainsInFlightThenRejects) {
  auto gate = std::make_shared<Gate>();
  ServerConfig config;
  config.workers = 2;
  config.max_queue = 8;
  config.pre_execute_hook = [gate] { gate->WaitOpen(); };
  auto server = MakeServer(config);
  const uint64_t session = server->OpenSession();

  Collector collector;
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(server
                    ->Submit(session, seq, "RETRIEVE highlight FROM 'race'",
                             [&collector](protocol::Response r) {
                               collector.Add(std::move(r));
                             })
                    .ok());
  }
  // Open the gate from a helper thread, then drain via Shutdown: every
  // admitted request must deliver its response before Shutdown returns.
  std::thread opener([&gate] { gate->Open(); });
  server->Shutdown();
  opener.join();
  EXPECT_EQ(collector.Count(), 4u);

  Status rejected = server->Submit(session, 9, "RETRIEVE highlight FROM 'race'",
                                   [](protocol::Response) {});
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  auto stats = server->stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_F(ServerTest, ShutdownUnderConcurrentSubmitsLosesNothing) {
  // Shutdown racing live Submits: a request admitted before the flag flips
  // may not yet have reached the pool when Shutdown starts. The drain wait
  // must keep the pool alive through that window (no crash under TSAN) and
  // still deliver every admitted request's response before returning.
  ServerConfig config;
  config.workers = 2;
  config.max_queue = 8;
  auto server = MakeServer(config);
  const uint64_t session = server->OpenSession();

  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> responded{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&server, &admitted, &responded, session, t] {
      uint64_t seq = static_cast<uint64_t>(t) << 32;
      for (;;) {
        Status status =
            server->Submit(session, ++seq, "RETRIEVE highlight FROM 'race'",
                           [&responded](protocol::Response) {
                             responded.fetch_add(1, std::memory_order_relaxed);
                           });
        if (status.ok()) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        } else if (status.code() == StatusCode::kUnavailable) {
          return;  // shutdown reached this client
        }
        // ResourceExhausted: backpressure, just retry.
      }
    });
  }
  while (admitted.load(std::memory_order_relaxed) < 64) {
    std::this_thread::yield();
  }
  server->Shutdown();
  for (auto& client : clients) client.join();

  // Every admitted request got its response by the time Shutdown returned;
  // joins only flushed the clients' own bookkeeping.
  EXPECT_EQ(responded.load(), admitted.load());
  auto stats = server->stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.completed + stats.errors, admitted.load());
  EXPECT_GT(stats.rejected_shutdown, 0u);
}

TEST_F(ServerTest, SlowClientDoesNotStarveOtherSessions) {
  auto gate = std::make_shared<Gate>();
  auto wedge_first = std::make_shared<std::atomic<bool>>(true);
  ServerConfig config;
  config.workers = 2;
  config.max_queue = 8;
  // Only the FIRST execution wedges (the slow client); everyone else runs.
  config.pre_execute_hook = [gate, wedge_first] {
    if (wedge_first->exchange(false)) gate->WaitOpen();
  };
  auto server = MakeServer(config);

  const uint64_t slow_session = server->OpenSession();
  Collector slow_done;
  ASSERT_TRUE(server
                  ->Submit(slow_session, 1, "RETRIEVE highlight FROM 'race'",
                           [&slow_done](protocol::Response r) {
                             slow_done.Add(std::move(r));
                           })
                  .ok());

  // Hand-computed bound: workers=2 with exactly one wedged leaves one free
  // worker, so every fast-client Call completes while the slow request is
  // still in flight. 5 sequential Calls would deadlock here if the slow
  // client could starve the pool.
  LocalConnection fast(server.get());
  for (int i = 0; i < 5; ++i) {
    auto response = fast.Query("RETRIEVE highlight FROM 'race'");
    ASSERT_TRUE(response.ok) << response.message;
  }
  EXPECT_GE(server->stats().in_flight, 1u);  // the wedged one
  gate->Open();
  slow_done.WaitFor(1);
  EXPECT_EQ(server->stats().in_flight, 0u);
}

// -- Trace parity ----------------------------------------------------------

/// Strips the per-span timing token ("<seconds>s") so profile texts compare
/// structurally: names, details, row/morsel counters, nesting.
std::string StripTimings(const std::string& profile) {
  static const std::regex kSeconds(" [0-9]+\\.[0-9]{6}s");
  return std::regex_replace(profile, kSeconds, "");
}

TEST_F(ServerTest, ProfileSpanTreeMatchesDirectEngine) {
  // Direct reference: cache disabled, so the direct span shape matches the
  // cache-less snapshot path (no query.cache_lookup span either way).
  engine_.set_cache_capacity(0);
  const std::string text =
      "PROFILE RETRIEVE highlight FROM 'race' OVERLAPPING caption "
      "WHERE driver = 'ALESI'";
  auto direct = engine_.Execute(text);
  ASSERT_TRUE(direct.ok());
  ASSERT_FALSE(direct->profile_text.empty());

  auto server = MakeServer();
  LocalConnection conn(server.get());
  auto response = conn.Query(text);
  ASSERT_TRUE(response.ok) << response.message;
  ASSERT_FALSE(response.profile.empty());

  // Server root span: server.request with serving attributes.
  std::vector<std::string> server_lines;
  {
    std::istringstream in(StripTimings(response.profile));
    std::string line;
    while (std::getline(in, line)) server_lines.push_back(line);
  }
  ASSERT_FALSE(server_lines.empty());
  EXPECT_EQ(server_lines[0].rfind("server.request", 0), 0u);
  EXPECT_NE(
      server_lines[0].find("session=" + std::to_string(conn.session())),
      std::string::npos);
  EXPECT_NE(server_lines[0].find("epoch=" + std::to_string(response.epoch)),
            std::string::npos);
  EXPECT_NE(
      server_lines[0].find("version=" + std::to_string(response.version)),
      std::string::npos);

  // The query.execute subtree under it is line-identical (modulo timings
  // and one indent level) to the direct engine profile.
  std::vector<std::string> direct_lines;
  {
    std::istringstream in(StripTimings(direct->profile_text));
    std::string line;
    while (std::getline(in, line)) direct_lines.push_back(line);
  }
  ASSERT_EQ(server_lines.size(), direct_lines.size() + 1);
  for (size_t i = 0; i < direct_lines.size(); ++i) {
    EXPECT_EQ(server_lines[i + 1], "  " + direct_lines[i]) << "line " << i;
  }
}

// -- EXPLAIN parity ----------------------------------------------------------

// The EXPLAIN report is a static artifact (no timings, nothing executed),
// so parity across surfaces is byte-identity of the whole report: direct
// engine == snapshot surface == LocalConnection == TCP.
TEST_F(ServerTest, ExplainReportsAreByteIdenticalAcrossTransports) {
  const std::string text =
      "EXPLAIN RETRIEVE highlight FROM 'race' WHERE driver = 'nobody'";

  auto direct = engine_.Execute(text);
  ASSERT_TRUE(direct.ok()) << direct.status().message();
  EXPECT_TRUE(direct->segments.empty());
  ASSERT_FALSE(direct->profile_text.empty());
  // No stored highlight has driver=NOBODY: positioned dead-predicate
  // warning, provably-empty verdict.
  EXPECT_NE(direct->profile_text.find("warning: statically dead predicate"),
            std::string::npos)
      << direct->profile_text;
  EXPECT_NE(direct->profile_text.find("provably empty"), std::string::npos);

  auto server = MakeServer();
  auto pin = server->snapshots().Acquire();
  auto snap = engine_.ExecuteSnapshot(text, *pin);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(direct->profile_text, snap->profile_text);
  EXPECT_EQ(direct->profile_json, snap->profile_json);

  LocalConnection conn(server.get());
  auto response = conn.Query(text);
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_TRUE(response.segments.empty());
  EXPECT_EQ(response.profile, direct->profile_text);

  // TCP leg: the same report through a real socket, byte for byte.
  TcpServer tcp(server.get());
  Status started = tcp.Start(0);
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.message();
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(tcp.port());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    tcp.Stop();
    GTEST_SKIP() << "loopback connect refused";
  }
  protocol::Request request;
  request.session = 0;
  request.seq = 1;
  request.query = text;
  const std::string frame =
      protocol::EncodeFrame(protocol::EncodeRequest(request));
  ASSERT_EQ(::write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  protocol::FrameDecoder decoder;
  std::string payload;
  char buf[4096];
  while (!decoder.Next(&payload)) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "connection closed before a response frame";
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  ::close(fd);
  auto tcp_response = protocol::ParseResponse(payload);
  ASSERT_TRUE(tcp_response.ok());
  EXPECT_TRUE(tcp_response->ok) << tcp_response->message;
  EXPECT_TRUE(tcp_response->segments.empty());
  EXPECT_EQ(tcp_response->profile, direct->profile_text);
  tcp.Stop();
}

TEST_F(ServerTest, ExplainNeverExtractsThroughTheServer) {
  int calls = 0;
  registry_.Register(std::make_unique<extensions::CallbackExtension>(
      "test-extension",
      std::vector<extensions::CallbackExtension::Provided>{
          {"flyout", 1.0, 0.9}},
      [&calls](model::VideoId id, const std::string&,
               model::VideoCatalog* catalog) {
        ++calls;
        model::EventRecord e;
        e.type = "flyout";
        e.begin_sec = 50;
        e.end_sec = 57;
        return catalog->StoreEvent(id, e);
      }));
  auto server = MakeServer();
  LocalConnection conn(server.get());
  // EXPLAIN of an unextracted type succeeds (unlike a snapshot RETRIEVE,
  // which is FailedPrecondition) because nothing needs to run: the report
  // defers with an unbounded interval.
  auto response = conn.Query("EXPLAIN RETRIEVE flyout FROM 'race'");
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_EQ(calls, 0);
  EXPECT_NE(response.profile.find("deferred"), std::string::npos);
  EXPECT_NE(response.profile.find("static=[0,*]"), std::string::npos);
}

// -- Seeded isolation violation --------------------------------------------

// The response must describe the ADMISSION-time snapshot. A server built
// with unsafe_unpinned_reads=true stamps that identity but evaluates
// against execution-time state — precisely the defect the consistency
// harness exists to catch. This test proves the detection deterministically
// by forcing a write into the admission/execution window; the stress
// harness (snapshot_stress_test.cc) does the same under full concurrency.
TEST_F(ServerTest, SeededUnpinnedReadBreaksClaimedVersion) {
  for (const bool unsafe : {false, true}) {
    kernel::Catalog catalog;
    model::VideoCatalog videos(&catalog);
    extensions::ExtensionRegistry registry;
    query::QueryEngine engine(&videos, &registry);
    auto id = videos.RegisterVideo("race", 5400.0);
    ASSERT_TRUE(id.ok());
    model::EventRecord seed;
    seed.type = "highlight";
    seed.begin_sec = 30;
    seed.end_sec = 40;
    ASSERT_TRUE(videos.StoreEvent(*id, seed).ok());

    auto mutate_once = std::make_shared<std::atomic<bool>>(true);
    ServerConfig config;
    config.workers = 1;
    config.unsafe_unpinned_reads = unsafe;
    // The write lands between admission (snapshot pinned, identity
    // stamped) and execution.
    config.pre_execute_hook = [mutate_once, &videos, &id] {
      if (mutate_once->exchange(false)) {
        model::EventRecord extra;
        extra.type = "highlight";
        extra.begin_sec = 200;
        extra.end_sec = 210;
        ASSERT_TRUE(videos.StoreEvent(*id, extra).ok());
      }
    };
    QueryServer server(&engine, &videos, &catalog, config);

    // Reference snapshot at the same version the response will claim.
    auto reference = server.snapshots().Acquire();
    LocalConnection conn(&server);
    auto response = conn.Query("RETRIEVE highlight FROM 'race'");
    ASSERT_TRUE(response.ok) << response.message;
    ASSERT_EQ(response.version, reference->event_version());

    auto expected =
        engine.ExecuteSnapshot("RETRIEVE highlight FROM 'race'", *reference);
    ASSERT_TRUE(expected.ok());
    const auto expected_lines = protocol::EncodeSegments(expected->segments);
    if (unsafe) {
      // The seeded defect: claimed version V, data from after V.
      EXPECT_NE(response.segments, expected_lines);
      EXPECT_EQ(response.segments.size(), expected_lines.size() + 1);
    } else {
      // Correct pinning: byte-identical to serial evaluation at V.
      EXPECT_EQ(response.segments, expected_lines);
    }
  }
}

// -- TCP transport smoke test ----------------------------------------------

TEST_F(ServerTest, TcpTransportSmoke) {
  auto server = MakeServer();
  TcpServer tcp(server.get());
  Status started = tcp.Start(0);
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.message();
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(tcp.port());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    GTEST_SKIP() << "loopback connect refused";
  }
  protocol::Request request;
  request.session = 0;  // connection-implicit session
  request.seq = 1;
  request.query = "RETRIEVE highlight FROM 'race'";
  const std::string frame =
      protocol::EncodeFrame(protocol::EncodeRequest(request));
  ASSERT_EQ(::write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));

  protocol::FrameDecoder decoder;
  std::string payload;
  char buf[4096];
  while (!decoder.Next(&payload)) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "connection closed before a response frame";
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  ::close(fd);
  auto response = protocol::ParseResponse(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok) << response->message;
  EXPECT_EQ(response->segments.size(), 2u);
  EXPECT_GE(response->session, 1u);  // rewritten to the implicit session
  tcp.Stop();
}

}  // namespace
}  // namespace cobra::server
