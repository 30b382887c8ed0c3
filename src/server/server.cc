#include "server/server.h"

#include <atomic>
#include <memory>
#include <utility>

#include "base/logging.h"
#include "base/strings.h"
#include "base/trace.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace cobra::server {

QueryServer::QueryServer(const query::QueryEngine* engine,
                         model::VideoCatalog* videos, kernel::Catalog* kernel,
                         ServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      snapshots_(videos, kernel),
      pool_(std::make_unique<ThreadPool>(
          config_.workers > 0 ? config_.workers : 1)),
      watch_manager_(engine, &snapshots_, kernel) {
  COBRA_CHECK(engine != nullptr && videos != nullptr);
}

QueryServer::~QueryServer() { Shutdown(); }

uint64_t QueryServer::OpenSession() {
  MutexLock lock(mu_);
  const uint64_t id = next_session_++;
  sessions_[id] = SessionState{};
  ++sessions_opened_;
  return id;
}

Status QueryServer::CloseSession(uint64_t session) {
  {
    MutexLock lock(mu_);
    if (sessions_.erase(session) == 0) {
      return Status::NotFound(StrFormat(
          "no session %llu", static_cast<unsigned long long>(session)));
    }
    ++sessions_closed_;
  }
  // Watches die with their session: registrations are removed and
  // undelivered notifications dropped. A host that wants watches to survive
  // (e.g. across RECOVER) snapshots watch_manager().SerializeCursors()
  // before the session goes away.
  MutexLock lock(watch_mu_);
  pending_notifications_.erase(session);
  for (auto it = watch_sessions_.begin(); it != watch_sessions_.end();) {
    if (it->second == session) {
      (void)watch_manager_.Unregister(it->first);
      it = watch_sessions_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status QueryServer::Submit(uint64_t session, uint64_t seq, std::string query,
                           std::function<void(protocol::Response)> done) {
  // Admission control on the caller's thread: typed rejections, never a
  // hang. The snapshot is pinned inside the admission lock, so the data an
  // accepted request sees is fixed here — a writer landing while the
  // request waits in the queue moves later epochs, not this one.
  query::SnapshotManager::Pin admitted_pin;
  {
    MutexLock lock(mu_);
    if (shutting_down_) {
      ++rejected_shutdown_;
      return Status::Unavailable("server is shutting down");
    }
    auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      return Status::NotFound(StrFormat(
          "no session %llu", static_cast<unsigned long long>(session)));
    }
    if (in_flight_ >= config_.workers + config_.max_queue) {
      ++rejected_busy_;
      return Status::ResourceExhausted(
          StrFormat("server busy: %zu requests in flight (limit %zu)",
                    in_flight_, config_.workers + config_.max_queue));
    }
    ++it->second.requests;
    ++in_flight_;
    ++accepted_;
    admitted_pin = snapshots_.Acquire();
  }
  // While in_flight_ counts this request, Shutdown cannot pass its drain
  // wait, so pool_ is guaranteed alive for the Schedule call below even if
  // shutting_down_ flipped the instant the admission lock was released.
  //
  // shared_ptr because ThreadPool tasks are copyable std::functions; the
  // pin itself is move-only.
  auto pin = std::make_shared<query::SnapshotManager::Pin>(
      std::move(admitted_pin));
  auto done_ptr =
      std::make_shared<std::function<void(protocol::Response)>>(
          std::move(done));
  auto query_ptr = std::make_shared<std::string>(std::move(query));
  pool_->Schedule([this, session, seq, pin, done_ptr, query_ptr]() mutable {
    protocol::Response response =
        ExecuteAdmitted(session, seq, *query_ptr, *pin);
    // Unpin before replying: the pool destroys a task (and this capture)
    // only after it returns, and a caller holding its response must not
    // find its epoch still pinned (and unreclaimed) in stats().
    pin.reset();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (response.ok) {
        ++completed_;
      } else {
        ++errors_;
      }
      if (in_flight_ == 0) drained_cv_.NotifyAll();
    }
    (*done_ptr)(std::move(response));
  });
  return Status::OK();
}

protocol::Response QueryServer::ExecuteAdmitted(
    uint64_t session, uint64_t seq, const std::string& query,
    const query::SnapshotManager::Pin& pin) {
  if (config_.pre_execute_hook) config_.pre_execute_hook();

  protocol::Response response;
  response.session = session;
  response.seq = seq;
  // The response claims the ADMISSION-time snapshot identity.
  response.epoch = pin->epoch();
  response.version = pin->event_version();
  response.lsn = pin->last_lsn();

  // Seeded isolation defect (test only): evaluate against a snapshot taken
  // NOW instead of the pinned one, while still claiming the admission-time
  // identity. A write landing between admission and execution makes the
  // claim a lie — exactly what the consistency harness must detect.
  query::SnapshotManager::Pin unsafe_pin;
  const query::CatalogSnapshot* snapshot = pin.get();
  if (config_.unsafe_unpinned_reads) {
    unsafe_pin = snapshots_.Acquire();
    snapshot = unsafe_pin.get();
  }

  auto fail = [&response](const Status& status) {
    response.ok = false;
    response.code = status.code();
    response.message = status.message();
    return response;
  };

  // One read-only front with QueryEngine::ExecuteSnapshot(text): storage
  // commands are rejected, then the text is parsed — once — with
  // positioned diagnostics identical to the direct engine path. The server
  // needs the parse itself to own PROFILE tracing.
  Result<query::QueryAnalysis> analysis = query::ParseReadOnlyQuery(query);
  if (!analysis.ok()) return fail(analysis.status());
  const query::ParsedQuery& parsed = analysis->parsed;

  if (parsed.watch) {
    // WATCH registers a continuous query instead of reading. The response
    // still claims the admission-time snapshot identity: the watch observes
    // every write from that epoch on (its first pump evaluates the full
    // history, so earlier matches are delivered too — exactly once).
    MutexLock lock(watch_mu_);
    Result<uint64_t> id = watch_manager_.Register(*analysis);
    if (!id.ok()) return fail(id.status());
    watch_sessions_[*id] = session;
    response.ok = true;
    response.watch = *id;
    return response;
  }

  kernel::ExecContext exec = config_.exec;
  exec.trace = nullptr;
  exec.trace_parent = nullptr;
  trace::TraceSink sink;
  Result<query::QueryResult> result = [&]() -> Result<query::QueryResult> {
    // EXPLAIN through the server: the engine's static report — cardinality
    // intervals and positioned dead-predicate warnings, byte-identical to a
    // direct engine call over the same snapshot — rides the profile field.
    // Nothing executes, so no request span tree is built around it.
    if (parsed.explain) {
      return engine_->ExecuteExplain(parsed, analysis->attr_sites, *snapshot);
    }
    if (!parsed.profile) {
      return engine_->ExecuteSnapshot(parsed, *snapshot, exec);
    }
    // PROFILE through the server: the request root span carries the serving
    // attributes (session, snapshot identity); the engine's query.execute
    // subtree underneath is identical to a direct engine call.
    trace::SpanGuard root(&sink, nullptr, "server.request");
    root.Detail(StrFormat("session=%llu epoch=%llu version=%llu",
                          static_cast<unsigned long long>(session),
                          static_cast<unsigned long long>(response.epoch),
                          static_cast<unsigned long long>(response.version)));
    exec.trace = &sink;
    exec.trace_parent = root.span();
    return engine_->ExecuteSnapshot(parsed, *snapshot, exec);
  }();
  if (!result.ok()) return fail(result.status());
  response.ok = true;
  if (parsed.explain) response.profile = result->profile_text;
  if (parsed.profile) response.profile = sink.ToText();
  response.segments = protocol::EncodeSegments(result->segments);
  return response;
}

protocol::Response QueryServer::Call(uint64_t session, uint64_t seq,
                                     const std::string& query) {
  // One-shot completion latch; Submit errors become ERR responses so every
  // caller sees uniform typed results.
  struct CallState {
    Mutex mu;
    CondVar cv;
    bool ready COBRA_GUARDED_BY(mu) = false;
    protocol::Response response COBRA_GUARDED_BY(mu);
  };
  auto state = std::make_shared<CallState>();
  Status admitted =
      Submit(session, seq, query, [state](protocol::Response response) {
        MutexLock lock(state->mu);
        state->response = std::move(response);
        state->ready = true;
        state->cv.NotifyAll();
      });
  if (!admitted.ok()) {
    protocol::Response response;
    response.ok = false;
    response.code = admitted.code();
    response.message = admitted.message();
    response.session = session;
    response.seq = seq;
    return response;
  }
  MutexLock lock(state->mu);
  while (!state->ready) state->cv.Wait(lock);
  return state->response;
}

std::string QueryServer::HandleFrame(const std::string& payload) {
  Result<protocol::Request> request = protocol::ParseRequest(payload);
  if (!request.ok()) {
    protocol::Response response;
    response.ok = false;
    response.code = request.status().code();
    response.message = request.status().message();
    return protocol::EncodeResponse(response);
  }
  return protocol::EncodeResponse(
      Call(request->session, request->seq, request->query));
}

Status QueryServer::PumpWatches() {
  kernel::ExecContext exec = config_.exec;
  exec.trace = nullptr;
  exec.trace_parent = nullptr;
  std::vector<query::WatchNotification> notes;
  MutexLock lock(watch_mu_);
  COBRA_RETURN_IF_ERROR(watch_manager_.Pump(exec, &notes));
  for (const query::WatchNotification& note : notes) {
    auto it = watch_sessions_.find(note.watch_id);
    if (it == watch_sessions_.end()) continue;
    protocol::Notification out;
    out.watch = note.watch_id;
    out.seq = note.seq;
    out.epoch = note.epoch;
    out.version = note.version;
    out.segment = protocol::EncodeSegment(note.segment);
    pending_notifications_[it->second].push_back(std::move(out));
  }
  return Status::OK();
}

std::vector<protocol::Notification> QueryServer::TakeNotifications(
    uint64_t session) {
  MutexLock lock(watch_mu_);
  auto it = pending_notifications_.find(session);
  if (it == pending_notifications_.end()) return {};
  std::vector<protocol::Notification> out = std::move(it->second);
  pending_notifications_.erase(it);
  return out;
}

void QueryServer::Shutdown() {
  std::unique_ptr<ThreadPool> pool;
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
    // Drain to zero in-flight before touching pool_: in_flight_ covers the
    // window between admission and Schedule, so a Submit racing this
    // Shutdown keeps the wait alive until its task has been enqueued AND
    // executed — the pool is never torn down under a pending Schedule, and
    // every admitted request reaches a worker. Taking the pool under the
    // lock also makes concurrent Shutdowns safe (one wins, the rest no-op).
    while (in_flight_ > 0) drained_cv_.Wait(lock);
    pool = std::move(pool_);
  }
  if (pool != nullptr) {
    // The workers may still be inside the done callbacks that follow the
    // in_flight_ decrement; WaitIdle sees those tasks through before the
    // pool goes away. New Submits have been bouncing with Unavailable
    // since the flag flipped above.
    pool->WaitIdle();
  }
}

ServerStats QueryServer::stats() const {
  ServerStats out;
  {
    MutexLock lock(mu_);
    out.accepted = accepted_;
    out.rejected_busy = rejected_busy_;
    out.rejected_shutdown = rejected_shutdown_;
    out.completed = completed_;
    out.errors = errors_;
    out.sessions_opened = sessions_opened_;
    out.sessions_closed = sessions_closed_;
    out.in_flight = in_flight_;
    out.snapshots = snapshots_.stats();
  }
  MutexLock lock(watch_mu_);
  out.watches = watch_manager_.watch_count();
  return out;
}

protocol::Response LocalConnection::Query(const std::string& text) {
  protocol::Request request;
  request.session = session_;
  request.seq = next_seq_++;
  request.query = text;
  // Full wire round-trip, frames included: what a socket client would send
  // and read, minus the socket.
  protocol::FrameDecoder decoder;
  decoder.Feed(protocol::EncodeFrame(
      server_->HandleFrame(protocol::EncodeRequest(request))));
  std::string payload;
  COBRA_CHECK(decoder.Next(&payload));
  Result<protocol::Response> response = protocol::ParseResponse(payload);
  COBRA_CHECK(response.ok());
  return *response;
}

std::vector<protocol::Notification> LocalConnection::TakeNotifications() {
  // Same no-socket wire round-trip as Query(): every notification is frame-
  // encoded and re-parsed, so the bytes a test compares are exactly the
  // bytes a TCP client would read.
  std::vector<protocol::Notification> out;
  protocol::FrameDecoder decoder;
  for (const protocol::Notification& pending :
       server_->TakeNotifications(session_)) {
    decoder.Feed(protocol::EncodeFrame(protocol::EncodeNotification(pending)));
    std::string payload;
    COBRA_CHECK(decoder.Next(&payload));
    Result<protocol::Notification> parsed =
        protocol::ParseNotification(payload);
    COBRA_CHECK(parsed.ok());
    out.push_back(std::move(*parsed));
  }
  return out;
}

// -- TCP transport ---------------------------------------------------------

Status TcpServer::Start(uint16_t port) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, 16) < 0) {
    ::close(listen_fd);
    return Status::IoError("bind/listen on 127.0.0.1 failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_.store(listen_fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::AcceptLoop() {
  // The fd value is fixed for the thread's lifetime; Stop() only shuts the
  // socket down (which unblocks accept) and closes it after joining us.
  const int listen_fd = listen_fd_.load(std::memory_order_acquire);
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // listener closed by Stop()
    std::vector<Connection> reaped;
    bool admitted = false;
    {
      MutexLock lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      // Reap connections whose serving thread already returned, so a
      // long-lived server does not accumulate dead std::thread objects.
      for (uint64_t id : finished_) {
        auto it = connections_.find(id);
        if (it != connections_.end()) {
          reaped.push_back(std::move(it->second));
          connections_.erase(it);
        }
      }
      finished_.clear();
      if (connections_.size() < kMaxConnections) {
        const uint64_t id = next_connection_++;
        Connection& conn = connections_[id];
        conn.fd = fd;
        conn.thread = std::thread([this, fd, id] { ServeConnection(fd, id); });
        admitted = true;
      }
    }
    // Past the cap the connection is refused by an immediate close — the
    // worker pool behind HandleFrame stays protected by its own admission
    // bound either way.
    if (!admitted) ::close(fd);
    for (Connection& conn : reaped) {
      // These threads have already returned (they marked themselves
      // finished), so the joins cannot block on a live connection.
      if (conn.thread.joinable()) conn.thread.join();
      ::close(conn.fd);
    }
  }
}

void TcpServer::ServeConnection(int fd, uint64_t id) {
  // Connection-implicit session: requests with session id 0 are rewritten
  // to it, so a plain client needs no handshake.
  const uint64_t session = server_->OpenSession();
  protocol::FrameDecoder decoder;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    if (decoder.poisoned()) break;
    std::string payload;
    while (decoder.Next(&payload)) {
      Result<protocol::Request> request = protocol::ParseRequest(payload);
      std::string out;
      if (!request.ok()) {
        protocol::Response response;
        response.ok = false;
        response.code = request.status().code();
        response.message = request.status().message();
        out = protocol::EncodeFrame(protocol::EncodeResponse(response));
      } else {
        const uint64_t sid = request->session == 0 ? session : request->session;
        out = protocol::EncodeFrame(protocol::EncodeResponse(
            server_->Call(sid, request->seq, request->query)));
        // Watch notifications queued for this session ride behind the
        // response as "N" frames — a client distinguishes them by the
        // payload's leading field.
        for (const protocol::Notification& note :
             server_->TakeNotifications(sid)) {
          out += protocol::EncodeFrame(protocol::EncodeNotification(note));
        }
      }
      size_t sent = 0;
      while (sent < out.size()) {
        const ssize_t w = ::write(fd, out.data() + sent, out.size() - sent);
        if (w <= 0) break;
        sent += static_cast<size_t>(w);
      }
      if (sent < out.size()) break;
    }
  }
  // The fd stays open (whoever joins us closes it — see Connection); only
  // mark the connection reapable.
  (void)server_->CloseSession(session);
  MutexLock lock(mu_);
  finished_.push_back(id);
}

void TcpServer::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    // shutdown() unblocks accept(); close() alone does not on all kernels.
    // Closing waits until the accept thread is joined so the fd number
    // cannot be recycled under a still-running accept().
    ::shutdown(listen_fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd >= 0) ::close(listen_fd);
  std::map<uint64_t, Connection> connections;
  {
    MutexLock lock(mu_);
    connections.swap(connections_);
    finished_.clear();
  }
  // First unblock every reader still inside read() (shutdown on an
  // already-disconnected fd is a harmless ENOTCONN), then join and close.
  for (auto& [id, conn] : connections) ::shutdown(conn.fd, SHUT_RDWR);
  for (auto& [id, conn] : connections) {
    if (conn.thread.joinable()) conn.thread.join();
    ::close(conn.fd);
  }
}

}  // namespace cobra::server
