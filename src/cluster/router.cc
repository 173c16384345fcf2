#include "cluster/router.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "net/http.h"
#include "net/socket.h"

namespace oij {

namespace {

const char* BackendStateName(uint8_t state) {
  switch (state) {
    case 0: return "disconnected";
    case 1: return "connecting";
    case 2: return "handshaking";
    case 3: return "active";
  }
  return "?";
}

}  // namespace

OijRouter::OijRouter(const RouterConfig& config)
    : config_(config), ring_(config.ring_vnodes) {}

OijRouter::~OijRouter() { Shutdown(); }

Status OijRouter::Start() {
  if (started_) return Status::FailedPrecondition("router already started");
  if (!loop_.ok()) return Status::Internal("event loop init failed");
  if (config_.backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }

  Status s = data_listener_.Listen(config_.bind_address, config_.data_port);
  if (!s.ok()) return s;
  s = admin_listener_.Listen(config_.bind_address, config_.admin_port);
  if (!s.ok()) {
    data_listener_.Close();
    return s;
  }
  data_port_ = data_listener_.port();
  admin_port_ = admin_listener_.port();

  health_ = std::make_unique<HealthChecker>(
      &loop_, &timers_, config_.health,
      [this](uint32_t id, bool healthy) { OnHealthTransition(id, healthy); });
  for (uint32_t i = 0; i < config_.backends.size(); ++i) {
    backends_.push_back(
        std::make_unique<Backend>(i, config_.backends[i], config_));
    ring_.AddBackend(i);
    cluster_wm_.Add(i);
    health_->AddTarget(i, config_.backends[i].host,
                       config_.backends[i].admin_port);
  }

  loop_.Add(data_listener_.fd(), kLoopReadable,
            [this](uint32_t) { OnDataAccept(); });
  loop_.Add(admin_listener_.fd(), kLoopReadable,
            [this](uint32_t) { OnAdminAccept(); });

  started_ = true;
  stop_.store(false, std::memory_order_release);
  loop_thread_ = std::thread([this] { ServeLoop(); });
  return Status::OK();
}

void OijRouter::Shutdown() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  loop_.Wakeup();
  if (loop_thread_.joinable()) loop_thread_.join();
  started_ = false;
}

RouterCounters OijRouter::CountersSnapshot() const {
  RouterCounters c;
  c.clients_accepted = clients_accepted_.load(std::memory_order_relaxed);
  c.clients_open = clients_open_.load(std::memory_order_relaxed);
  c.clients_stalled_evicted =
      clients_stalled_evicted_.load(std::memory_order_relaxed);
  c.subscribers = subscribers_.load(std::memory_order_relaxed);
  c.subscribers_evicted =
      subscribers_evicted_.load(std::memory_order_relaxed);
  c.tuples_in = tuples_in_.load(std::memory_order_relaxed);
  c.tuples_routed = tuples_routed_.load(std::memory_order_relaxed);
  c.tuples_queued_sticky =
      tuples_queued_sticky_.load(std::memory_order_relaxed);
  c.tuples_failed_over = tuples_failed_over_.load(std::memory_order_relaxed);
  c.tuples_dropped = tuples_dropped_.load(std::memory_order_relaxed);
  c.watermarks_in = watermarks_in_.load(std::memory_order_relaxed);
  c.watermarks_broadcast =
      watermarks_broadcast_.load(std::memory_order_relaxed);
  c.watermarks_ignored = watermarks_ignored_.load(std::memory_order_relaxed);
  c.acks_received = acks_received_.load(std::memory_order_relaxed);
  c.results_fanned = results_fanned_.load(std::memory_order_relaxed);
  c.backend_connects = backend_connects_.load(std::memory_order_relaxed);
  c.backend_disconnects =
      backend_disconnects_.load(std::memory_order_relaxed);
  c.backend_retries = backend_retries_.load(std::memory_order_relaxed);
  c.replayed_tuples = replayed_tuples_.load(std::memory_order_relaxed);
  c.replay_dropped_tuples =
      replay_dropped_tuples_.load(std::memory_order_relaxed);
  c.cluster_watermark = cluster_watermark_.load(std::memory_order_relaxed);
  c.min_backend_acked = min_backend_acked_.load(std::memory_order_relaxed);
  c.hellos_rejected = hellos_rejected_.load(std::memory_order_relaxed);
  c.admin_requests = admin_requests_.load(std::memory_order_relaxed);
  return c;
}

void OijRouter::ServeLoop() {
  health_->Start();
  for (auto& backend : backends_) StartConnect(backend.get());
  const int64_t sweep_every =
      std::max<int64_t>(100, config_.client_stall_timeout_ms / 4);
  std::function<void()> sweep = [this, sweep_every, &sweep] {
    SweepStalledClients();
    stall_sweep_timer_ = timers_.Schedule(NowMs(), sweep_every, sweep);
  };
  stall_sweep_timer_ = timers_.Schedule(NowMs(), sweep_every, sweep);

  while (!stop_.load(std::memory_order_acquire)) {
    loop_.Poll(timers_.NextTimeoutMs(NowMs(), 50));
    timers_.RunExpired(NowMs());
    if (finish_requested_ && !finish_broadcast_) MaybeFinish();
  }

  health_->Stop();
  loop_.Remove(data_listener_.fd());
  loop_.Remove(admin_listener_.fd());
  data_listener_.Close();
  admin_listener_.Close();
  for (auto& backend : backends_) {
    if (backend->conn != nullptr) {
      loop_.Remove(backend->conn->fd());
      backend->conn.reset();
    }
  }
  std::vector<int> fds;
  fds.reserve(clients_.size());
  for (const auto& [fd, conn] : clients_) fds.push_back(fd);
  for (int fd : fds) CloseClient(fd);
}

// --- backend pool ----------------------------------------------------

void OijRouter::StartConnect(Backend* backend) {
  if (backend->conn != nullptr || stop_.load(std::memory_order_relaxed)) {
    return;
  }
  int fd = -1;
  bool in_progress = false;
  const Status s = ConnectTcpNonBlocking(backend->addr.host,
                                         backend->addr.data_port, &fd,
                                         &in_progress);
  if (!s.ok()) {
    BackendFailed(backend, "connect");
    return;
  }
  backend->state = BackendState::kConnecting;
  backend->conn = std::make_unique<TcpConnection>(fd);
  backend->decoder = std::make_unique<WireDecoder>();
  Backend* raw = backend;
  loop_.Add(fd, kLoopWritable,
            [this, raw](uint32_t ready) { OnBackendEvent(raw, ready); });
  backend->connect_timer = timers_.Schedule(
      NowMs(), config_.connect_timeout_ms,
      [this, raw] {
        raw->connect_timer = 0;
        BackendFailed(raw, "connect/handshake timeout");
      });
}

void OijRouter::OnBackendEvent(Backend* backend, uint32_t ready) {
  if (backend->conn == nullptr) return;
  if (ready & kLoopError) {
    BackendFailed(backend, "socket error");
    return;
  }
  if (ready & kLoopWritable) {
    if (backend->state == BackendState::kConnecting) {
      OnBackendConnectWritable(backend);
      if (backend->conn == nullptr) return;
    } else if (backend->conn->FlushWrites() ==
               TcpConnection::IoResult::kError) {
      BackendFailed(backend, "write error");
      return;
    }
    FlushBackend(backend);
    if (backend->conn == nullptr) return;
  }
  if (ready & kLoopReadable) {
    const TcpConnection::IoResult r = backend->conn->ReadReady();
    if (r == TcpConnection::IoResult::kError) {
      BackendFailed(backend, "read error");
      return;
    }
    ProcessBackendInput(backend);
    if (backend->conn == nullptr) return;
    if (r == TcpConnection::IoResult::kEof) {
      if (backend->finish_sent && backend->summary_received) {
        // Orderly close after the summary: the run is over there.
        loop_.Remove(backend->conn->fd());
        backend->conn.reset();
        backend->decoder.reset();
        backend->state = BackendState::kDisconnected;
      } else {
        BackendFailed(backend, "eof");
      }
    }
  }
}

void OijRouter::OnBackendConnectWritable(Backend* backend) {
  if (!FinishConnect(backend->conn->fd()).ok()) {
    BackendFailed(backend, "connect refused");
    return;
  }
  backend->state = BackendState::kHandshaking;
  HelloInfo hello;
  hello.flags = kHelloWantAcks;
  std::string out;
  AppendHelloFrame(&out, hello);
  backend->conn->QueueWrite(out);
}

void OijRouter::ProcessBackendInput(Backend* backend) {
  std::string& in = backend->conn->input();
  backend->decoder->Feed(in);
  in.clear();
  WireFrame frame;
  while (backend->conn != nullptr) {
    const WireDecoder::Result r = backend->decoder->Next(&frame);
    if (r == WireDecoder::Result::kNeedMore) return;
    if (r == WireDecoder::Result::kCorrupt) {
      BackendFailed(backend, "protocol corruption");
      return;
    }
    if (!HandleBackendFrame(backend, frame)) return;
  }
}

bool OijRouter::HandleBackendFrame(Backend* backend,
                                   const WireFrame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      if (backend->state != BackendState::kHandshaking) {
        BackendFailed(backend, "unexpected hello");
        return false;
      }
      if (!frame.hello.Compatible()) {
        // A clean, decoded refusal — do not retry-hammer a peer from
        // the wrong protocol era.
        hellos_rejected_.fetch_add(1, std::memory_order_relaxed);
        BackendFailed(backend, "incompatible peer");
        return false;
      }
      BackendActivated(backend, frame.hello);
      return backend->conn != nullptr;
    case FrameType::kWatermarkAck:
      backend->acks += 1;
      acks_received_.fetch_add(1, std::memory_order_relaxed);
      OnBackendAck(backend, frame.watermark, frame.ack_tuples);
      return true;
    case FrameType::kResult:
      FanResultToSubscribers(frame.result);
      return true;
    case FrameType::kSummary:
      backend->summary_received = true;
      backend->summary = frame.text;
      if (finish_broadcast_) MaybeFinish();
      return true;
    case FrameType::kError:
      // Typical mid-recovery answer ("engine recovering; retry later")
      // or a finalized-run rejection; either way the connection is
      // done — back off and try again.
      BackendFailed(backend, "backend error frame");
      return false;
    default:
      BackendFailed(backend, "unexpected frame type");
      return false;
  }
}

void OijRouter::BackendActivated(Backend* backend, const HelloInfo& hello) {
  if (backend->connect_timer != 0) {
    timers_.Cancel(backend->connect_timer);
    backend->connect_timer = 0;
  }
  backend->state = BackendState::kActive;
  backend->ever_active = true;
  backend->backoff.Reset();
  backend->connects += 1;
  backend_connects_.fetch_add(1, std::memory_order_relaxed);
  const bool durable = (hello.flags & kHelloDurableExact) != 0;
  backend->durable_exact = durable;

  std::string out;
  AppendControlFrame(&out, FrameType::kSubscribe);
  backend->conn->QueueWrite(out);

  // Catalog convergence: replay the full standing-query journal before
  // any data. A freshly restarted durable backend already restored its
  // catalog from its own WAL manifest and treats the duplicates as
  // no-ops; a wiped or never-connected one catches up here.
  if (!catalog_journal_.empty()) {
    backend->conn->QueueWrite(catalog_journal_);
  }

  if (durable) {
    // The backend recovered exactly to `hello.recovered_watermark`
    // (watermark-cut recovery): everything it acked before the crash
    // survives, nothing past the cut does. Resend exactly the un-acked
    // suffix — sealed segments with their watermark punctuation, then
    // the open tail.
    cluster_wm_.RecordAck(backend->id, hello.recovered_watermark);
    if (hello.recovered_watermark > backend->acked) {
      backend->acked = hello.recovered_watermark;
    }
    std::string replay;
    const uint64_t resent =
        backend->replay.EncodeUnacked(hello.recovered_watermark, &replay);
    if (!replay.empty()) {
      backend->conn->QueueWrite(replay);
      backend->replays += 1;
    }
    backend->tuples_sent += resent;
    replayed_tuples_.fetch_add(resent, std::memory_order_relaxed);
  } else {
    // Bounded-loss mode: this backend's keys failed over while it was
    // gone and its pre-crash state is not exactly reconstructable, so
    // replaying could only manufacture disagreeing results. Account
    // the buffer as lost and start clean.
    replay_dropped_tuples_.fetch_add(backend->replay.buffered_tuples(),
                                     std::memory_order_relaxed);
    backend->replay.Clear();
  }
  FlushBackend(backend);
}

void OijRouter::BackendFailed(Backend* backend, const char* why) {
  (void)why;
  if (backend->connect_timer != 0) {
    timers_.Cancel(backend->connect_timer);
    backend->connect_timer = 0;
  }
  const bool was_active = backend->state == BackendState::kActive;
  if (backend->conn != nullptr) {
    loop_.Remove(backend->conn->fd());
    backend->conn.reset();
    backend->decoder.reset();
  }
  backend->state = BackendState::kDisconnected;
  if (was_active) {
    backend->disconnects += 1;
    backend_disconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  health_->ReportPassiveFailure(backend->id);
  if (!backend->durable_exact && !backend->ever_active) {
    // Never spoke to it; nothing buffered to preserve.
    backend->replay.Clear();
  }
  ScheduleReconnect(backend);
}

void OijRouter::ScheduleReconnect(Backend* backend) {
  if (stop_.load(std::memory_order_relaxed)) return;
  if (backend->retry_timer != 0) return;  // one pending retry at a time
  const int64_t delay = backend->backoff.NextDelayMs();
  backend_retries_.fetch_add(1, std::memory_order_relaxed);
  Backend* raw = backend;
  backend->retry_timer = timers_.Schedule(NowMs(), delay, [this, raw] {
    raw->retry_timer = 0;
    if (raw->state == BackendState::kDisconnected) StartConnect(raw);
  });
}

void OijRouter::OnHealthTransition(uint32_t id, bool healthy) {
  Backend* backend = backends_[id].get();
  backend->health_ok = healthy;
  if (healthy && backend->state == BackendState::kDisconnected) {
    // The admin plane answers again — skip the rest of the backoff.
    if (backend->retry_timer != 0) {
      timers_.Cancel(backend->retry_timer);
      backend->retry_timer = 0;
    }
    StartConnect(backend);
  }
}

void OijRouter::FlushBackend(Backend* backend) {
  if (backend->conn == nullptr) return;
  if (backend->conn->FlushWrites() == TcpConnection::IoResult::kError) {
    BackendFailed(backend, "flush error");
    return;
  }
  uint32_t interest = kLoopReadable;
  if (backend->state == BackendState::kConnecting ||
      backend->conn->wants_write()) {
    interest |= kLoopWritable;
  }
  loop_.SetInterest(backend->conn->fd(), interest);
}

// --- client plane ----------------------------------------------------

void OijRouter::OnDataAccept() {
  data_listener_.AcceptAll([this](int fd) {
    clients_accepted_.fetch_add(1, std::memory_order_relaxed);
    clients_open_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<ClientConn>(fd);
    conn->last_frame_ms = NowMs();
    clients_.emplace(fd, std::move(conn));
    loop_.Add(fd, kLoopReadable,
              [this, fd](uint32_t ready) { OnClientEvent(fd, ready); });
  });
}

void OijRouter::OnAdminAccept() {
  admin_listener_.AcceptAll([this](int fd) {
    auto conn = std::make_unique<ClientConn>(fd);
    conn->is_admin = true;
    conn->last_frame_ms = NowMs();
    clients_.emplace(fd, std::move(conn));
    loop_.Add(fd, kLoopReadable,
              [this, fd](uint32_t ready) { OnClientEvent(fd, ready); });
  });
}

void OijRouter::OnClientEvent(int fd, uint32_t ready) {
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  ClientConn* conn = it->second.get();
  if (ready & kLoopError) {
    CloseClient(fd);
    return;
  }
  if (ready & kLoopWritable) {
    if (conn->tcp.FlushWrites() == TcpConnection::IoResult::kError) {
      CloseClient(fd);
      return;
    }
    if (conn->tcp.close_after_flush() && !conn->tcp.wants_write()) {
      CloseClient(fd);
      return;
    }
    FlushClient(conn);
    if (clients_.count(fd) == 0) return;
  }
  if (ready & kLoopReadable) {
    const TcpConnection::IoResult r = conn->tcp.ReadReady();
    if (r == TcpConnection::IoResult::kError) {
      CloseClient(fd);
      return;
    }
    if (conn->is_admin) {
      ProcessAdminInput(conn);
    } else {
      ProcessClientInput(conn);
    }
    if (clients_.count(fd) == 0) return;
    if (r == TcpConnection::IoResult::kEof) {
      if (conn->tcp.wants_write()) {
        conn->tcp.set_close_after_flush(true);
        FlushClient(conn);
      } else {
        CloseClient(fd);
      }
    }
  }
}

void OijRouter::ProcessClientInput(ClientConn* conn) {
  if (conn->tcp.close_after_flush()) {
    conn->tcp.input().clear();
    return;
  }
  std::string& in = conn->tcp.input();
  conn->decoder.Feed(in);
  in.clear();
  WireFrame frame;
  bool any = false;
  while (true) {
    const WireDecoder::Result r = conn->decoder.Next(&frame);
    if (r == WireDecoder::Result::kNeedMore) break;
    if (r == WireDecoder::Result::kCorrupt) {
      SendClientError(conn, conn->decoder.error().ToString());
      return;
    }
    any = true;
    conn->last_frame_ms = NowMs();
    if (!HandleClientFrame(conn, frame)) return;
  }
  if (!any) return;
  // One flush per processed batch keeps syscalls off the per-frame path.
  for (auto& backend : backends_) {
    if (backend->conn != nullptr && backend->conn->wants_write()) {
      FlushBackend(backend.get());
    }
  }
}

bool OijRouter::HandleClientFrame(ClientConn* conn, const WireFrame& frame) {
  const bool first_frame = !conn->saw_frame;
  conn->saw_frame = true;
  switch (frame.type) {
    case FrameType::kHello: {
      if (!first_frame) {
        hellos_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendClientError(conn, "hello must be the first frame");
        return false;
      }
      if (!frame.hello.Compatible()) {
        hellos_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendClientError(conn, "incompatible wire protocol version");
        return false;
      }
      HelloInfo reply;
      reply.recovered_watermark = cluster_wm_.emitted();
      std::string out;
      AppendHelloFrame(&out, reply);
      const int fd = conn->tcp.fd();
      conn->tcp.QueueWrite(out);
      FlushClient(conn);
      return clients_.count(fd) != 0;
    }
    case FrameType::kTuple:
      tuples_in_.fetch_add(1, std::memory_order_relaxed);
      if (run_finished_.load(std::memory_order_relaxed)) {
        SendClientError(conn, "run already finalized; tuple rejected");
        return false;
      }
      RouteTuple(frame.event);
      return true;
    case FrameType::kWatermark:
      watermarks_in_.fetch_add(1, std::memory_order_relaxed);
      if (run_finished_.load(std::memory_order_relaxed)) return true;
      if (frame.watermark <= last_broadcast_wm_) {
        // Watermark values key replay segments, so only strictly
        // increasing punctuation is broadcast.
        watermarks_ignored_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      BroadcastWatermark(frame.watermark);
      return true;
    case FrameType::kSubscribe:
      if (!conn->subscriber) {
        conn->subscriber = true;
        subscribers_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    case FrameType::kFinish:
      if (!finish_requested_) {
        finish_requested_ = true;
        finish_requested_ms_ = NowMs();
        finisher_fd_ = conn->tcp.fd();
        MaybeFinish();
      }
      return true;
    case FrameType::kAddQuery:
    case FrameType::kRemoveQuery: {
      if (run_finished_.load(std::memory_order_relaxed)) {
        SendClientError(conn, "run already finalized; catalog change "
                              "rejected");
        return false;
      }
      std::string out;
      if (frame.type == FrameType::kAddQuery) {
        AppendAddQueryFrame(&out, frame.query_id, frame.query_spec);
      } else {
        AppendRemoveQueryFrame(&out, frame.query_id);
      }
      // Journal first (so a backend that is down right now still gets
      // the change on reconnect), then broadcast to the reachable ones.
      catalog_journal_ += out;
      for (auto& backend : backends_) {
        if (Eligible(*backend)) backend->conn->QueueWrite(out);
      }
      return true;
    }
    default:
      SendClientError(conn, "unexpected frame type from client");
      return false;
  }
}

void OijRouter::RouteTuple(const StreamEvent& event) {
  const auto eligible = [this](uint32_t id) {
    return Eligible(*backends_[id]);
  };
  const int owner = ring_.PickOwner(event.tuple.key);
  if (owner < 0) {
    tuples_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Backend* target = backends_[static_cast<size_t>(owner)].get();
  if (Eligible(*target)) {
    std::string out;
    AppendTupleFrame(&out, event);
    target->conn->QueueWrite(out);
    target->replay.Append(event);
    target->tuples_sent += 1;
    tuples_routed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (target->durable_exact) {
    // Sticky: the owner runs per_batch + watermark-cut recovery, so
    // queueing through its downtime and replaying on return is exact —
    // rerouting would instead split this key's window state across two
    // backends and corrupt both aggregates.
    target->replay.Append(event);
    tuples_queued_sticky_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const int alt = ring_.PickEligible(event.tuple.key, eligible);
  if (alt < 0) {
    tuples_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Backend* failover = backends_[static_cast<size_t>(alt)].get();
  std::string out;
  AppendTupleFrame(&out, event);
  failover->conn->QueueWrite(out);
  failover->replay.Append(event);
  failover->tuples_sent += 1;
  tuples_routed_.fetch_add(1, std::memory_order_relaxed);
  tuples_failed_over_.fetch_add(1, std::memory_order_relaxed);
}

void OijRouter::BroadcastWatermark(Timestamp watermark) {
  last_broadcast_wm_ = watermark;
  std::string frame;
  AppendWatermarkFrame(&frame, watermark);
  for (auto& backend : backends_) {
    // Seal every buffer (sticky-down owners get the punctuation on
    // replay via the segment bound), send to the reachable ones.
    backend->replay.Seal(watermark);
    if (Eligible(*backend)) {
      backend->conn->QueueWrite(frame);
      backend->watermarks_sent += 1;
    }
  }
  watermarks_broadcast_.fetch_add(1, std::memory_order_relaxed);
}

void OijRouter::OnBackendAck(Backend* backend, Timestamp watermark,
                             uint64_t tuples) {
  (void)tuples;
  if (watermark > backend->acked) backend->acked = watermark;
  backend->replay.Ack(watermark);
  replay_dropped_tuples_.store(
      [this] {
        uint64_t total = 0;
        for (const auto& b : backends_) total += b->replay.dropped_tuples();
        return total;
      }(),
      std::memory_order_relaxed);
  cluster_wm_.RecordAck(backend->id, watermark);
  min_backend_acked_.store(cluster_wm_.MinAcked(),
                           std::memory_order_relaxed);
  Timestamp advanced = kMinTimestamp;
  if (cluster_wm_.TryAdvance(&advanced)) {
    cluster_watermark_.store(advanced, std::memory_order_relaxed);
    // Cluster-level punctuation to subscribers: every shard is durable
    // and complete through `advanced`.
    std::string frame;
    AppendWatermarkFrame(&frame, advanced);
    FanFramesToSubscribers(frame);
  }
}

void OijRouter::FanResultToSubscribers(const JoinResult& result) {
  std::string frame;
  AppendResultFrame(&frame, result);
  results_fanned_.fetch_add(1, std::memory_order_relaxed);
  FanFramesToSubscribers(frame);
}

void OijRouter::FanFramesToSubscribers(const std::string& frames) {
  std::vector<int> fds;
  fds.reserve(clients_.size());
  for (const auto& [fd, conn] : clients_) {
    if (conn->subscriber && !conn->tcp.close_after_flush()) {
      fds.push_back(fd);
    }
  }
  for (int fd : fds) {
    auto it = clients_.find(fd);
    if (it == clients_.end()) continue;
    it->second->tcp.QueueWrite(frames);
    FlushClient(it->second.get());
    auto again = clients_.find(fd);
    if (again != clients_.end() &&
        again->second->tcp.pending_write_bytes() >
            config_.max_subscriber_backlog_bytes) {
      subscribers_evicted_.fetch_add(1, std::memory_order_relaxed);
      CloseClient(fd);
    }
  }
}

void OijRouter::SendClientError(ClientConn* conn,
                                const std::string& message) {
  std::string out;
  AppendTextFrame(&out, FrameType::kError, message);
  conn->tcp.QueueWrite(out);
  conn->tcp.set_close_after_flush(true);
  FlushClient(conn);
}

void OijRouter::FlushClient(ClientConn* conn) {
  if (conn->tcp.FlushWrites() == TcpConnection::IoResult::kError) {
    CloseClient(conn->tcp.fd());
    return;
  }
  if (conn->tcp.close_after_flush() && !conn->tcp.wants_write()) {
    CloseClient(conn->tcp.fd());
    return;
  }
  uint32_t interest = 0;
  if (!conn->tcp.close_after_flush()) interest |= kLoopReadable;
  if (conn->tcp.wants_write()) interest |= kLoopWritable;
  loop_.SetInterest(conn->tcp.fd(), interest);
}

void OijRouter::CloseClient(int fd) {
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  if (it->second->subscriber) {
    subscribers_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (!it->second->is_admin) {
    clients_open_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (fd == finisher_fd_) finisher_fd_ = -1;
  loop_.Remove(fd);
  clients_.erase(it);
}

void OijRouter::SweepStalledClients() {
  const int64_t now = NowMs();
  std::vector<int> stalled;
  for (const auto& [fd, conn] : clients_) {
    if (conn->is_admin) continue;
    if (conn->decoder.buffered() > 0 &&
        now - conn->last_frame_ms > config_.client_stall_timeout_ms) {
      stalled.push_back(fd);
    }
  }
  for (int fd : stalled) {
    clients_stalled_evicted_.fetch_add(1, std::memory_order_relaxed);
    CloseClient(fd);
  }
}

// --- finish ----------------------------------------------------------

void OijRouter::MaybeFinish() {
  if (!finish_requested_ || run_finished_.load(std::memory_order_relaxed)) {
    return;
  }
  if (!finish_broadcast_) {
    const bool timed_out =
        NowMs() - finish_requested_ms_ >= config_.finish_timeout_ms;
    if (!timed_out) {
      for (const auto& backend : backends_) {
        if (Eligible(*backend)) continue;
        if (backend->durable_exact ||
            backend->state == BackendState::kConnecting ||
            backend->state == BackendState::kHandshaking) {
          // Sticky backends must come back (their queued keys drain on
          // replay); in-flight connections get a moment to settle.
          return;
        }
      }
    }
    BroadcastFinish();
  }
  for (const auto& backend : backends_) {
    if (backend->finish_sent && !backend->summary_received) return;
  }
  CompleteFinish();
}

void OijRouter::BroadcastFinish() {
  finish_broadcast_ = true;
  std::string frame;
  AppendControlFrame(&frame, FrameType::kFinish);
  for (auto& backend : backends_) {
    if (!Eligible(*backend)) continue;
    backend->conn->QueueWrite(frame);
    backend->finish_sent = true;
    FlushBackend(backend.get());
  }
}

void OijRouter::CompleteFinish() {
  merged_summary_ = "cluster run: " + std::to_string(backends_.size()) +
                    " backend(s)\n";
  for (const auto& backend : backends_) {
    merged_summary_ += "--- backend " + std::to_string(backend->id) + " (" +
                       backend->addr.host + ":" +
                       std::to_string(backend->addr.data_port) + ") ---\n";
    if (backend->summary_received) {
      merged_summary_ += backend->summary;
      if (merged_summary_.empty() || merged_summary_.back() != '\n') {
        merged_summary_ += '\n';
      }
    } else {
      merged_summary_ += "(unreachable at finish)\n";
    }
  }
  run_finished_.store(true, std::memory_order_release);

  std::string summary_frame;
  AppendTextFrame(&summary_frame, FrameType::kSummary, merged_summary_);
  std::vector<int> fds;
  fds.reserve(clients_.size());
  for (const auto& [fd, conn] : clients_) {
    if (conn->subscriber || fd == finisher_fd_) fds.push_back(fd);
  }
  for (int fd : fds) {
    auto it = clients_.find(fd);
    if (it == clients_.end()) continue;
    ClientConn* conn = it->second.get();
    conn->tcp.QueueWrite(summary_frame);
    conn->tcp.set_close_after_flush(true);
    FlushClient(conn);
  }
}

// --- admin plane -----------------------------------------------------

void OijRouter::ProcessAdminInput(ClientConn* conn) {
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
      FlushClient(conn);
      return;
    case HttpParseResult::kOk:
      break;
  }
  conn->tcp.input().erase(0, consumed);
  admin_requests_.fetch_add(1, std::memory_order_relaxed);

  std::string response;
  if (request.method != "GET") {
    response = BuildHttpResponse(405, "text/plain; charset=utf-8",
                                 "method not allowed\n");
  } else if (request.path == "/healthz") {
    size_t eligible = 0;
    for (const auto& backend : backends_) {
      if (Eligible(*backend)) ++eligible;
    }
    if (eligible > 0) {
      response = BuildHttpResponse(200, "text/plain; charset=utf-8",
                                   "ok: " + std::to_string(eligible) + "/" +
                                       std::to_string(backends_.size()) +
                                       " backends\n");
    } else {
      response = BuildHttpResponse(503, "text/plain; charset=utf-8",
                                   "no eligible backends\n");
    }
  } else if (request.path == "/statz") {
    JsonWriter j;
    VisitStats(j);
    response = BuildHttpResponse(200, "application/json", j.Take());
  } else if (request.path == "/metrics") {
    PrometheusStatsWriter w("oij_router_");
    VisitStats(w);
    response = BuildHttpResponse(200, "text/plain; version=0.0.4", w.Take());
  } else {
    response = BuildHttpResponse(404, "text/plain; charset=utf-8",
                                 "not found\n");
  }
  conn->tcp.QueueWrite(response);
  conn->tcp.set_close_after_flush(true);
  FlushClient(conn);
}

void VisitRouterStats(const RouterCounters& c, bool run_finished,
                      const std::vector<RouterBackendRow>& backends,
                      StatsVisitor& v) {
  v.Counter("clients_accepted", c.clients_accepted, {},
            "Client connections accepted");
  v.Gauge("clients_open", c.clients_open, {}, "Open client data connections");
  v.Counter("clients_stalled_evicted", c.clients_stalled_evicted, {},
            "Clients dropped by the slow-loris sweep");
  v.Gauge("subscribers", c.subscribers, {}, "Clients subscribed to results");
  v.Counter("subscribers_evicted", c.subscribers_evicted, {},
            "Subscribers dropped for egress backlog overflow");
  v.Counter("tuples_in", c.tuples_in, {}, "Tuple frames from clients");
  v.Counter("tuples_routed", c.tuples_routed, {},
            "Tuples forwarded to a backend");
  v.Counter("tuples_queued_sticky", c.tuples_queued_sticky, {},
            "Tuples buffered for a down sticky owner");
  v.Counter("tuples_failed_over", c.tuples_failed_over, {},
            "Tuples rerouted off their ring owner");
  v.Counter("tuples_dropped", c.tuples_dropped, {},
            "Tuples with no eligible backend");
  v.Counter("watermarks_in", c.watermarks_in, {},
            "Watermark frames from clients");
  v.Counter("watermarks_broadcast", c.watermarks_broadcast, {},
            "Watermarks broadcast to backends");
  v.Counter("watermarks_ignored", c.watermarks_ignored, {},
            "Non-increasing client watermarks not broadcast");
  v.Counter("acks_received", c.acks_received, "oij_router_acks_total",
            "Watermark acks from backends");
  v.Counter("results_fanned", c.results_fanned, {},
            "Result frames fanned to subscribers");
  v.Counter("backend_connects", c.backend_connects, {},
            "Backend connections that completed the handshake");
  v.Counter("backend_disconnects", c.backend_disconnects, {},
            "Backend connections lost");
  v.Counter("backend_retries", c.backend_retries, {},
            "Backend reconnect attempts scheduled");
  v.Counter("replayed_tuples", c.replayed_tuples, {},
            "Tuples resent to recovered backends");
  v.Counter("replay_dropped_tuples", c.replay_dropped_tuples, {},
            "Replay-buffer tuples lost to overflow or failover");
  v.Counter("hellos_rejected", c.hellos_rejected, {},
            "Client handshake frames refused");
  v.Counter("admin_requests", c.admin_requests, {},
            "Admin HTTP requests served");
  v.Gauge("cluster_watermark", c.cluster_watermark, {},
          "Min-of-backends cluster watermark");
  v.Gauge("min_backend_acked", c.min_backend_acked, {},
          "Lowest durability-acked watermark across backends");
  v.Flag("run_finished", run_finished, {}, "1 once kFinish has completed");
  v.Array("backends", "backend");
  for (const RouterBackendRow& b : backends) {
    v.Element(std::to_string(b.id));
    v.Field("id", b.id);
    v.Text("state", b.state);
    v.Flag("healthy", b.healthy, "oij_router_backend_healthy",
           "1 when the backend passes health checks");
    v.Flag("durable_exact", b.durable_exact, {},
           "1 when the backend's replay is exact (keys stick to it)");
    v.Gauge("acked_watermark", b.acked_watermark,
            "oij_router_backend_acked_watermark",
            "Latest durability-acked watermark");
    v.Gauge("replay_buffered_tuples", b.replay_buffered_tuples,
            "oij_router_backend_replay_buffered_tuples",
            "Un-acked tuples held for replay");
    v.Counter("replay_dropped_tuples", b.replay_dropped_tuples, {},
              "Replay-buffer tuples lost per backend");
    v.Counter("tuples_sent", b.tuples_sent, {}, "Tuples sent per backend");
    v.Counter("watermarks_sent", b.watermarks_sent, {},
              "Watermarks sent per backend");
    v.Counter("acks", b.acks, {}, "Watermark acks per backend");
    v.Counter("connects", b.connects, {}, "Handshakes completed per backend");
    v.Counter("disconnects", b.disconnects, {},
              "Connections lost per backend");
    v.Counter("replays", b.replays, {}, "Replays started per backend");
    v.Flag("active", b.active, "oij_router_backend_active",
           "1 when the backend connection is active");
    v.Counter("health_probes", b.health.probes,
              "oij_router_backend_health_probes_total",
              "Active health probes");
    v.Counter("health_failures", b.health.failures,
              "oij_router_backend_health_failures_total",
              "Failed health probes (active + passive)");
    v.Counter("ejections", b.health.ejections,
              "oij_router_backend_ejections_total", "Outlier ejections");
    v.Counter("readmissions", b.health.readmissions,
              "oij_router_backend_readmissions_total",
              "Re-admissions after recovery");
    v.End();
  }
  v.End();
}

void OijRouter::VisitStats(StatsVisitor& v) const {
  std::vector<RouterBackendRow> rows;
  for (const auto& b : backends_) {
    rows.push_back({b->id, BackendStateName(static_cast<uint8_t>(b->state)),
                    b->state == BackendState::kActive, b->health_ok,
                    b->durable_exact, b->acked, b->replay.buffered_tuples(),
                    b->replay.dropped_tuples(), b->tuples_sent,
                    b->watermarks_sent, b->acks, b->connects, b->disconnects,
                    b->replays, health_->StatsOf(b->id)});
  }
  VisitRouterStats(CountersSnapshot(),
                   run_finished_.load(std::memory_order_relaxed), rows, v);
}

}  // namespace oij
