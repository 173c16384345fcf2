#include "server/server.h"

#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/run_summary.h"

namespace oij {

namespace {

bool SameSpec(const QuerySpec& a, const QuerySpec& b) {
  return a.window.pre == b.window.pre && a.window.fol == b.window.fol &&
         a.lateness_us == b.lateness_us && a.agg == b.agg &&
         a.emit_mode == b.emit_mode && a.late_policy == b.late_policy;
}

}  // namespace

/// Joiner threads call OnResult concurrently; frames are encoded under a
/// mutex into one egress buffer the loop thread swaps out. The wakeup is
/// only issued on the empty->non-empty transition, so a result burst
/// costs one pipe write, not one per result.
class OijServer::EgressSink : public ResultSink {
 public:
  explicit EgressSink(EventLoop* loop) : loop_(loop) {}

  void OnResult(const JoinResult& result) override {
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(mu_);
      was_empty = buffer_.empty();
      AppendResultFrame(&buffer_, result);
      ++pending_;
    }
    if (was_empty) loop_->Wakeup();
  }

  /// Swaps out everything buffered; `count` reports how many results.
  std::string Take(uint64_t* count) {
    std::lock_guard<std::mutex> lock(mu_);
    *count = pending_;
    pending_ = 0;
    std::string out = std::move(buffer_);
    buffer_.clear();
    return out;
  }

 private:
  EventLoop* loop_;
  std::mutex mu_;
  std::string buffer_;
  uint64_t pending_ = 0;
};

OijServer::OijServer(const ServerConfig& config) : config_(config) {}

OijServer::~OijServer() { Shutdown(); }

Status OijServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (!loop_.ok()) return Status::Internal("event loop init failed");

  Status s = data_listener_.Listen(config_.bind_address, config_.data_port);
  if (!s.ok()) return s;
  s = admin_listener_.Listen(config_.bind_address, config_.admin_port);
  if (!s.ok()) {
    data_listener_.Close();
    return s;
  }
  data_port_ = data_listener_.port();
  admin_port_ = admin_listener_.port();

  sink_ = std::make_unique<EgressSink>(&loop_);
  engine_ =
      CreateEngine(config_.engine, config_.query, config_.options, sink_.get());
  s = engine_->Start();
  if (!s.ok()) {
    data_listener_.Close();
    admin_listener_.Close();
    engine_.reset();
    return s;
  }
  if (config_.recover) {
    // Build the replay plan here (loop thread not yet running, so this
    // still satisfies the single-driver contract); a corrupt manifest or
    // snapshot fails Start rather than serving from partial state. The
    // replay itself is stepped by ServeLoop.
    s = engine_->BeginRecovery();
    if (!s.ok()) {
      engine_->Finish();
      data_listener_.Close();
      admin_listener_.Close();
      engine_.reset();
      return s;
    }
  }

  loop_.Add(data_listener_.fd(), kLoopReadable,
            [this](uint32_t) { OnDataAccept(); });
  loop_.Add(admin_listener_.fd(), kLoopReadable,
            [this](uint32_t) { OnAdminAccept(); });

  started_ns_ = MonotonicNowNs();
  started_ = true;
  stop_.store(false, std::memory_order_release);
  // The loop thread takes over as the engine's single driver thread; the
  // thread-creation edge orders it after Start().
  loop_thread_ = std::thread([this] { ServeLoop(); });
  return Status::OK();
}

void OijServer::Shutdown() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  loop_.Wakeup();
  if (loop_thread_.joinable()) loop_thread_.join();
  started_ = false;
}

ServerCounters OijServer::CountersSnapshot() const {
  ServerCounters c;
  c.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  c.connections_open = connections_open_.load(std::memory_order_relaxed);
  c.admin_requests = admin_requests_.load(std::memory_order_relaxed);
  c.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  c.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  c.frames_in = frames_in_.load(std::memory_order_relaxed);
  c.tuples_in = tuples_in_.load(std::memory_order_relaxed);
  c.watermarks_in = watermarks_in_.load(std::memory_order_relaxed);
  c.frames_rejected = frames_rejected_.load(std::memory_order_relaxed);
  c.results_streamed = results_streamed_.load(std::memory_order_relaxed);
  c.subscribers = subscribers_.load(std::memory_order_relaxed);
  c.subscribers_evicted =
      subscribers_evicted_.load(std::memory_order_relaxed);
  c.watermark_acks = watermark_acks_.load(std::memory_order_relaxed);
  c.hellos_rejected = hellos_rejected_.load(std::memory_order_relaxed);
  return c;
}

RunResult OijServer::FinalRun() const {
  std::lock_guard<std::mutex> lock(final_run_mu_);
  return final_run_;
}

void OijServer::ServeLoop() {
  // Drive WAL replay in chunks on the loop thread (the engine's single
  // driver thread), interleaving short polls so the admin plane answers
  // during recovery (/healthz 503 "recovering") while HandleFrame
  // rejects data tuples. Replay is bounded by the log suffix, so stop_
  // is honored only after the replayed state is complete — exiting
  // mid-replay would finalize a half-restored engine.
  while (engine_->Recovering()) {
    engine_->RecoveryStep(4096);
    loop_.Poll(/*timeout_ms=*/0);
    DrainEgress();
  }
  while (!stop_.load(std::memory_order_acquire)) {
    loop_.Poll(/*timeout_ms=*/50);
    DrainEgress();
  }
  if (!run_finished_.load(std::memory_order_acquire)) FinalizeRun();
  FlushAllBeforeExit();

  loop_.Remove(data_listener_.fd());
  loop_.Remove(admin_listener_.fd());
  data_listener_.Close();
  admin_listener_.Close();
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) CloseConn(fd);
}

void OijServer::OnDataAccept() {
  data_listener_.AcceptAll([this](int fd) {
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>(fd);
    Conn* raw = conn.get();
    conns_.emplace(fd, std::move(conn));
    loop_.Add(fd, kLoopReadable,
              [this, fd](uint32_t ready) { OnConnEvent(fd, ready); });
    (void)raw;
  });
}

void OijServer::OnAdminAccept() {
  admin_listener_.AcceptAll([this](int fd) {
    auto conn = std::make_unique<Conn>(fd);
    conn->is_admin = true;
    conns_.emplace(fd, std::move(conn));
    loop_.Add(fd, kLoopReadable,
              [this, fd](uint32_t ready) { OnConnEvent(fd, ready); });
  });
}

void OijServer::OnConnEvent(int fd, uint32_t ready) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();

  if (ready & kLoopError) {
    CloseConn(fd);
    return;
  }
  if (ready & kLoopWritable) {
    if (conn->tcp.FlushWrites() == TcpConnection::IoResult::kError) {
      CloseConn(fd);
      return;
    }
    if (conn->tcp.close_after_flush() && !conn->tcp.wants_write()) {
      CloseConn(fd);
      return;
    }
    UpdateInterest(conn);
  }
  if (ready & kLoopReadable) {
    size_t got = 0;
    const TcpConnection::IoResult r = conn->tcp.ReadReady(&got);
    bytes_in_.fetch_add(got, std::memory_order_relaxed);
    if (r == TcpConnection::IoResult::kError) {
      CloseConn(fd);
      return;
    }
    // Process whatever arrived even on EOF: the peer may have sent its
    // final frames and closed its write end in one burst.
    if (conn->is_admin) {
      ProcessAdminInput(conn);
    } else {
      ProcessDataInput(conn);
    }
    if (conns_.count(fd) == 0) return;  // processing closed it
    if (r == TcpConnection::IoResult::kEof) {
      if (conn->tcp.wants_write()) {
        // Half-close: let queued output (e.g. a summary) drain first.
        conn->tcp.set_close_after_flush(true);
        UpdateInterest(conn);
      } else {
        CloseConn(fd);
      }
    }
  }
}

void OijServer::ProcessDataInput(Conn* conn) {
  if (conn->tcp.close_after_flush()) {
    conn->tcp.input().clear();  // already tearing down; drop new bytes
    return;
  }
  WireFrame frame;
  std::string& in = conn->tcp.input();
  conn->decoder.Feed(in);
  in.clear();
  while (true) {
    const WireDecoder::Result r = conn->decoder.Next(&frame);
    if (r == WireDecoder::Result::kNeedMore) return;
    if (r == WireDecoder::Result::kCorrupt) {
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, conn->decoder.error().ToString());
      return;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    if (!HandleFrame(conn, frame)) return;
  }
}

bool OijServer::HandleFrame(Conn* conn, const WireFrame& frame) {
  const bool first_frame = !conn->saw_frame;
  conn->saw_frame = true;
  switch (frame.type) {
    case FrameType::kHello: {
      // Handshake is optional (bare clients keep working), but when a
      // peer does send one it must lead, and a mismatched magic/version
      // gets a clean kError — the frame itself decoded fine, so the
      // refusal never poisons the decoder or strands buffered bytes.
      if (!first_frame) {
        hellos_rejected_.fetch_add(1, std::memory_order_relaxed);
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "hello must be the first frame");
        return false;
      }
      if (!frame.hello.Compatible()) {
        hellos_rejected_.fetch_add(1, std::memory_order_relaxed);
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn,
                  "incompatible wire protocol: peer magic=" +
                      std::to_string(frame.hello.magic) + " version=" +
                      std::to_string(frame.hello.version) + ", want magic=" +
                      std::to_string(kWireMagic) + " version=" +
                      std::to_string(kWireVersion));
        return false;
      }
      if (engine_->Recovering()) {
        // A well-meaning peer this early is told to come back; the
        // router treats it like a failed connect and backs off.
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "engine recovering; retry later");
        return false;
      }
      conn->wants_acks = (frame.hello.flags & kHelloWantAcks) != 0;
      HelloInfo reply;
      reply.recovered_watermark = engine_->RecoveredWatermark();
      // Durable-exact is a promise about the running engine's log, so it
      // keys on the engine's live WAL, not only on what was configured.
      const DurabilityOptions& d = config_.options.durability;
      if (engine_->SampleWal().enabled && d.fsync == FsyncPolicy::kPerBatch &&
          d.recover_to_watermark) {
        reply.flags |= kHelloDurableExact;
      }
      std::string out;
      AppendHelloFrame(&out, reply);
      const int fd = conn->tcp.fd();
      conn->tcp.QueueWrite(out);
      FlushConn(conn);
      return conns_.count(fd) != 0;
    }
    case FrameType::kWatermarkAck:
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, "server-to-client frame type received from client");
      return false;
    case FrameType::kTuple: {
      tuples_in_.fetch_add(1, std::memory_order_relaxed);
      ++conn->tuples_received;
      if (run_finished_.load(std::memory_order_relaxed)) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "run already finalized; tuple rejected");
        return false;
      }
      if (engine_->Recovering()) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "engine recovering; tuple rejected");
        return false;
      }
      if (!meter_started_) {
        meter_.Start();
        meter_started_ = true;
      }
      engine_->Push(frame.event, MonotonicNowUs());
      return true;
    }
    case FrameType::kWatermark: {
      watermarks_in_.fetch_add(1, std::memory_order_relaxed);
      const bool applied = !run_finished_.load(std::memory_order_relaxed) &&
                           !engine_->Recovering();
      if (applied) engine_->SignalWatermark(frame.watermark);
      if (applied && conn->wants_acks) {
        // SignalWatermark has already passed the WAL commit barrier
        // (under kPerBatch, a full sync), so this ack certifies every
        // earlier tuple on this connection as durable — the router
        // trims its replay buffer on it.
        std::string out;
        AppendWatermarkAckFrame(&out, frame.watermark,
                                conn->tuples_received);
        watermark_acks_.fetch_add(1, std::memory_order_relaxed);
        const int fd = conn->tcp.fd();
        conn->tcp.QueueWrite(out);
        FlushConn(conn);
        return conns_.count(fd) != 0;
      }
      return true;
    }
    case FrameType::kSubscribe:
      if (!conn->subscriber) {
        conn->subscriber = true;
        subscribers_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    case FrameType::kFinish: {
      if (engine_->Recovering()) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "engine recovering; finish rejected");
        return false;
      }
      const int fd = conn->tcp.fd();
      if (!run_finished_.load(std::memory_order_relaxed)) FinalizeRun();
      // FinalizeRun may have flushed-and-closed this very connection (it
      // was a subscriber); re-resolve before touching it again.
      auto it = conns_.find(fd);
      if (it == conns_.end()) return false;
      conn = it->second.get();
      // The summary answers the finisher too (subscribers already got
      // theirs inside FinalizeRun); either way this connection is done.
      if (!conn->subscriber) {
        std::string out;
        AppendTextFrame(&out, FrameType::kSummary, summary_text_);
        conn->tcp.QueueWrite(out);
      }
      conn->tcp.set_close_after_flush(true);
      FlushConn(conn);
      return false;
    }
    case FrameType::kAddQuery: {
      if (engine_->Recovering()) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "engine recovering; catalog change rejected");
        return false;
      }
      if (run_finished_.load(std::memory_order_relaxed)) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "run already finalized; catalog change rejected");
        return false;
      }
      // The router re-broadcasts catalog frames to backends it
      // reconnects, so a duplicate add carrying an identical spec is an
      // idempotent no-op; a conflicting spec under the same id is a real
      // error.
      for (const QueryStatsRow& row : engine_->QuerySnapshot()) {
        if (row.active && row.id == frame.query_id &&
            SameSpec(row.spec, frame.query_spec)) {
          return true;
        }
      }
      const Status s = engine_->AddQuery(frame.query_id, frame.query_spec);
      if (!s.ok()) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "add-query rejected: " + s.ToString());
        return false;
      }
      return true;
    }
    case FrameType::kRemoveQuery: {
      if (engine_->Recovering()) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "engine recovering; catalog change rejected");
        return false;
      }
      if (run_finished_.load(std::memory_order_relaxed)) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "run already finalized; catalog change rejected");
        return false;
      }
      const Status s = engine_->RemoveQuery(frame.query_id);
      // NotFound = this remove already landed (router re-delivery);
      // treating it as success keeps catalog frames idempotent.
      if (!s.ok() && s.code() != Status::Code::kNotFound) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, "remove-query rejected: " + s.ToString());
        return false;
      }
      return true;
    }
    case FrameType::kResult:
    case FrameType::kSummary:
    case FrameType::kError:
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, "server-to-client frame type received from client");
      return false;
  }
  return true;
}

void OijServer::FinalizeRun() {
  // Net thread == driver thread: flush staged transport batches, then
  // drain and stop the joiners. Results keep arriving in the egress sink
  // until Finish returns; the drain below then delivers every one of
  // them before any summary frame, so a subscriber always sees
  // [results..., summary].
  engine_->FlushPending();
  // Durability barrier for the graceful-drain path: every accepted
  // record reaches disk before the joiners stop, so a SIGTERM'd server
  // loses nothing regardless of the configured fsync policy.
  engine_->Sync();
  RunResult run;
  run.stats = engine_->Finish();
  if (meter_started_) meter_.Stop();
  run.tuples = run.stats.input_tuples;
  run.elapsed_seconds = meter_started_ ? meter_.elapsed_seconds() : 0.0;
  run.throughput_tps =
      run.elapsed_seconds > 0.0
          ? static_cast<double>(run.tuples) / run.elapsed_seconds
          : 0.0;

  {
    std::lock_guard<std::mutex> lock(final_run_mu_);
    final_run_ = run;
  }
  summary_text_ =
      SummarizeRun(std::string(EngineKindName(config_.engine)), run);
  run_finished_.store(true, std::memory_order_release);

  DrainEgress();
  std::string summary_frame;
  AppendTextFrame(&summary_frame, FrameType::kSummary, summary_text_);
  // FlushConn may close (erase) a connection, so never flush while
  // range-iterating the map.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    if (conn->subscriber) fds.push_back(fd);
  }
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    conn->tcp.QueueWrite(summary_frame);
    conn->tcp.set_close_after_flush(true);
    FlushConn(conn);
  }
}

void OijServer::DrainEgress() {
  uint64_t count = 0;
  const std::string frames = sink_->Take(&count);
  if (frames.empty()) return;
  bool delivered = false;
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    if (conn->subscriber && !conn->tcp.close_after_flush()) fds.push_back(fd);
  }
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    it->second->tcp.QueueWrite(frames);
    FlushConn(it->second.get());
    // A subscriber that has stopped reading (stalled or silently gone)
    // accumulates backlog; past the bound it is evicted so the run
    // keeps serving the live ones. An outright write error was already
    // closed by FlushConn above.
    auto again = conns_.find(fd);
    if (again != conns_.end() &&
        again->second->tcp.pending_write_bytes() >
            config_.max_subscriber_backlog_bytes) {
      subscribers_evicted_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(fd);
      continue;
    }
    delivered = true;
  }
  if (delivered) {
    results_streamed_.fetch_add(count, std::memory_order_relaxed);
  }
}

void OijServer::SendError(Conn* conn, const std::string& message) {
  std::string out;
  AppendTextFrame(&out, FrameType::kError, message);
  conn->tcp.QueueWrite(out);
  conn->tcp.set_close_after_flush(true);
  FlushConn(conn);
}

void OijServer::UpdateInterest(Conn* conn) {
  uint32_t interest = 0;
  if (!conn->tcp.close_after_flush()) interest |= kLoopReadable;
  if (conn->tcp.wants_write()) interest |= kLoopWritable;
  loop_.SetInterest(conn->tcp.fd(), interest);
}

void OijServer::FlushConn(Conn* conn) {
  const size_t before = conn->tcp.pending_write_bytes();
  if (conn->tcp.FlushWrites() == TcpConnection::IoResult::kError) {
    CloseConn(conn->tcp.fd());
    return;
  }
  const size_t after = conn->tcp.pending_write_bytes();
  bytes_out_.fetch_add(before - after, std::memory_order_relaxed);
  if (conn->tcp.close_after_flush() && !conn->tcp.wants_write()) {
    CloseConn(conn->tcp.fd());
    return;
  }
  UpdateInterest(conn);
}

void OijServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second->subscriber) {
    subscribers_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (!it->second->is_admin) {
    connections_open_.fetch_sub(1, std::memory_order_relaxed);
  }
  loop_.Remove(fd);
  conns_.erase(it);  // TcpConnection's destructor closes the fd
}

AdminSnapshot OijServer::BuildSnapshot() {
  AdminSnapshot snap;
  snap.engine_name = std::string(EngineKindName(config_.engine));
  snap.workload_name = config_.workload_name;
  snap.counters = CountersSnapshot();
  snap.progress = engine_ != nullptr ? engine_->SampleProgress()
                                     : WatchdogSample{};
  snap.health = engine_ != nullptr ? engine_->Health() : Status::OK();
  if (engine_ != nullptr) {
    snap.recovering = engine_->Recovering();
    snap.queries = engine_->QuerySnapshot();
    snap.wal = engine_->SampleWal();
    if (snap.wal.last_snapshot_mono_us > 0) {
      snap.snapshot_age_seconds =
          static_cast<double>(MonotonicNowUs() -
                              snap.wal.last_snapshot_mono_us) /
          1e6;
    }
  }
  snap.uptime_seconds =
      static_cast<double>(MonotonicNowNs() - started_ns_) / 1e9;
  snap.run_finished = run_finished_.load(std::memory_order_acquire);
  if (snap.run_finished) {
    std::lock_guard<std::mutex> lock(final_run_mu_);
    snap.final_run = final_run_;
  }
  return snap;
}

void OijServer::ProcessAdminInput(Conn* conn) {
  if (conn->tcp.close_after_flush()) {
    conn->tcp.input().clear();
    return;
  }
  HttpRequest request;
  size_t consumed = 0;
  switch (ParseHttpRequest(conn->tcp.input(), &request, &consumed)) {
    case HttpParseResult::kNeedMore:
      return;
    case HttpParseResult::kBad:
      conn->tcp.input().clear();
      conn->tcp.QueueWrite(BuildHttpResponse(
          400, "text/plain; charset=utf-8", "malformed request\n"));
      conn->tcp.set_close_after_flush(true);
      FlushConn(conn);
      return;
    case HttpParseResult::kOk:
      break;
  }
  conn->tcp.input().erase(0, consumed);
  admin_requests_.fetch_add(1, std::memory_order_relaxed);
  // The catalog-mutating verbs run here, on the loop thread — which is
  // the engine's single driver thread, so AddQuery/RemoveQuery need no
  // extra synchronization. Everything else routes to the pure renderer.
  std::string response;
  if (request.method == "POST" && request.path == "/queries") {
    response = HandleAddQueryRequest(request);
  } else if (request.method == "DELETE" &&
             request.path.rfind("/queries/", 0) == 0) {
    response = HandleRemoveQueryRequest(request.path.substr(9));
  } else {
    response = HandleAdminRequest(BuildSnapshot(), request);
  }
  conn->tcp.QueueWrite(response);
  conn->tcp.set_close_after_flush(true);
  FlushConn(conn);
}

std::string OijServer::HandleAddQueryRequest(const HttpRequest& request) {
  if (engine_->Recovering()) {
    return BuildHttpResponse(
        503, "application/json",
        "{\"error\":{\"code\":\"Unavailable\","
        "\"message\":\"engine recovering; retry later\"}}\n");
  }
  if (run_finished_.load(std::memory_order_relaxed)) {
    return BuildQueryErrorResponse(
        Status::FailedPrecondition("run already finalized"));
  }
  std::string id;
  QuerySpec spec;
  Status s = ParseQuerySpecJson(request.body, config_.query, &id, &spec);
  if (!s.ok()) return BuildQueryErrorResponse(s);
  s = engine_->AddQuery(id, spec);
  if (!s.ok()) return BuildQueryErrorResponse(s);
  // AddQuery validated the id against [A-Za-z0-9_.-]{1,64}, so embedding
  // it unescaped is safe.
  return BuildHttpResponse(200, "application/json",
                           "{\"added\":\"" + id + "\"}\n");
}

std::string OijServer::HandleRemoveQueryRequest(const std::string& id) {
  if (engine_->Recovering()) {
    return BuildHttpResponse(
        503, "application/json",
        "{\"error\":{\"code\":\"Unavailable\","
        "\"message\":\"engine recovering; retry later\"}}\n");
  }
  if (run_finished_.load(std::memory_order_relaxed)) {
    return BuildQueryErrorResponse(
        Status::FailedPrecondition("run already finalized"));
  }
  const Status s = engine_->RemoveQuery(id);
  if (!s.ok()) return BuildQueryErrorResponse(s);
  return BuildHttpResponse(200, "application/json",
                           "{\"removed\":\"" + id + "\"}\n");
}

void OijServer::FlushAllBeforeExit() {
  // A short, bounded courtesy window so final summaries reach slow
  // subscribers; anything still stuck afterwards is abandoned.
  const int64_t deadline = MonotonicNowNs() + 500'000'000;  // 500 ms
  while (MonotonicNowNs() < deadline) {
    bool pending = false;
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) fds.push_back(fd);
    for (int fd : fds) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      if (!conn->tcp.wants_write()) continue;
      FlushConn(conn);
      auto again = conns_.find(fd);
      if (again != conns_.end() && again->second->tcp.wants_write()) {
        pending = true;
      }
    }
    if (!pending) return;
    loop_.Poll(/*timeout_ms=*/10);
  }
}

}  // namespace oij
