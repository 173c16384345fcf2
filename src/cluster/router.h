#ifndef OIJ_CLUSTER_ROUTER_H_
#define OIJ_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/backoff.h"
#include "cluster/cluster_watermark.h"
#include "cluster/hash_ring.h"
#include "cluster/health_checker.h"
#include "cluster/replay_buffer.h"
#include "common/status.h"
#include "metrics/stats_visitor.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/timer_queue.h"
#include "net/wire_codec.h"

namespace oij {

/// One upstream `oij_server`.
struct RouterBackendAddress {
  std::string host = "127.0.0.1";
  uint16_t data_port = 0;
  uint16_t admin_port = 0;
};

/// Construction knobs for the cluster ingress tier.
struct RouterConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t data_port = 0;   ///< 0 picks an ephemeral port
  uint16_t admin_port = 0;  ///< 0 picks an ephemeral port

  std::vector<RouterBackendAddress> backends;

  /// Virtual nodes per backend on the consistent-hash ring.
  uint32_t ring_vnodes = 64;

  HealthCheckConfig health;

  /// Bound on one connect + handshake attempt to a backend.
  int64_t connect_timeout_ms = 1000;

  /// Reconnect schedule after a backend failure (full-jitter
  /// exponential, see cluster/backoff.h).
  int64_t backoff_base_ms = 50;
  int64_t backoff_max_ms = 2000;

  /// Slow-loris guard: a client holding a *partial* frame longer than
  /// this without completing one is disconnected.
  int64_t client_stall_timeout_ms = 30000;

  /// How long a kFinish waits for absent backends to come back before
  /// finalizing with the reachable subset.
  int64_t finish_timeout_ms = 30000;

  /// Per-backend replay buffer bound; overflow degrades exactness to
  /// bounded loss (oldest sealed segments dropped first).
  size_t replay_max_bytes = 256u << 20;

  /// Same eviction bound the server applies to its subscribers.
  size_t max_subscriber_backlog_bytes = 64u << 20;

  /// Seed for backoff jitter (deterministic in tests).
  uint64_t seed = 1;
};

/// Cross-thread router counters (atomics snapshot, like ServerCounters).
struct RouterCounters {
  uint64_t clients_accepted = 0;
  uint64_t clients_open = 0;
  uint64_t clients_stalled_evicted = 0;
  uint64_t subscribers = 0;
  uint64_t subscribers_evicted = 0;
  uint64_t tuples_in = 0;
  uint64_t tuples_routed = 0;
  uint64_t tuples_queued_sticky = 0;  ///< buffered for a down sticky owner
  uint64_t tuples_failed_over = 0;    ///< rerouted off the owner
  uint64_t tuples_dropped = 0;        ///< no eligible backend at all
  uint64_t watermarks_in = 0;
  uint64_t watermarks_broadcast = 0;
  uint64_t watermarks_ignored = 0;  ///< non-increasing, not broadcast
  uint64_t acks_received = 0;
  uint64_t results_fanned = 0;
  uint64_t backend_connects = 0;
  uint64_t backend_disconnects = 0;
  uint64_t backend_retries = 0;
  uint64_t replayed_tuples = 0;  ///< resent after backend recovery
  uint64_t replay_dropped_tuples = 0;
  int64_t cluster_watermark = INT64_MIN;
  int64_t min_backend_acked = INT64_MIN;
  uint64_t hellos_rejected = 0;
  uint64_t admin_requests = 0;
};

/// One backend as the router's admin pages show it: the fields of its
/// connection state plus its health checker's counters.
struct RouterBackendRow {
  uint32_t id = 0;
  const char* state = "";
  bool active = false;
  bool healthy = true;
  bool durable_exact = false;
  Timestamp acked_watermark = kMinTimestamp;
  uint64_t replay_buffered_tuples = 0;
  uint64_t replay_dropped_tuples = 0;
  uint64_t tuples_sent = 0;
  uint64_t watermarks_sent = 0;
  uint64_t acks = 0;
  uint64_t connects = 0;
  uint64_t disconnects = 0;
  uint64_t replays = 0;
  HealthChecker::TargetStats health;
};

/// The router's one stats walk behind /statz (JsonWriter) and /metrics
/// (PrometheusStatsWriter with prefix `oij_router_`).
void VisitRouterStats(const RouterCounters& c, bool run_finished,
                      const std::vector<RouterBackendRow>& backends,
                      StatsVisitor& v);

/// Health-gated consistent-hash ingress router over N oij_server
/// backends (ROADMAP item 2; modeled on Envoy's upstream machinery).
///
/// One event-loop thread owns everything: the client data/admin
/// listeners, one outbound connection per backend (nonblocking connect
/// -> versioned hello handshake -> active), the TimerQueue driving
/// connect timeouts, health probes, reconnect backoff and the client
/// slow-loris sweep.
///
/// Data path: client kTuple frames route by Mix64(key) on the ring to
/// the owning backend. Every routed tuple also enters that backend's
/// ReplayBuffer; client kWatermark frames (strictly increasing ones)
/// seal the buffers and broadcast to all active backends, whose
/// kWatermarkAck (sent post-WAL-sync) trims the buffers and feeds the
/// min-of-backends ClusterWatermark. A backend that dies and returns
/// is handed exactly the un-acked suffix past its recovered watermark
/// — exact under per_batch + recover_to_watermark (it advertises
/// kHelloDurableExact; its keys *stick* and queue while it is down),
/// bounded loss otherwise (its keys fail over ring-clockwise).
///
/// Subscriptions: the router subscribes to every backend and fans
/// kResult frames back to subscribed clients (union of disjoint key
/// partitions), inserting kWatermark punctuation whenever the cluster
/// watermark advances. kFinish waits (bounded) for participating
/// backends, broadcasts, merges their summaries, and answers every
/// subscriber with [results..., watermarks..., summary].
class OijRouter {
 public:
  explicit OijRouter(const RouterConfig& config);
  ~OijRouter();

  OijRouter(const OijRouter&) = delete;
  OijRouter& operator=(const OijRouter&) = delete;

  Status Start();
  void Shutdown();

  uint16_t data_port() const { return data_port_; }
  uint16_t admin_port() const { return admin_port_; }

  bool run_finished() const {
    return run_finished_.load(std::memory_order_acquire);
  }

  RouterCounters CountersSnapshot() const;

 private:
  struct ClientConn {
    explicit ClientConn(int fd) : tcp(fd) {}
    TcpConnection tcp;
    WireDecoder decoder;
    bool is_admin = false;
    bool subscriber = false;
    bool saw_frame = false;
    /// Last time a complete frame finished decoding (stall sweep).
    int64_t last_frame_ms = 0;
  };

  enum class BackendState : uint8_t {
    kDisconnected = 0,
    kConnecting,
    kHandshaking,
    kActive,
  };

  struct Backend {
    uint32_t id = 0;
    RouterBackendAddress addr;
    BackendState state = BackendState::kDisconnected;
    std::unique_ptr<TcpConnection> conn;
    std::unique_ptr<WireDecoder> decoder;
    Backoff backoff;
    ReplayBuffer replay;

    /// From its hello reply: per_batch + recover_to_watermark, so keys
    /// stick to it across downtime and replay is exact.
    bool durable_exact = false;
    bool ever_active = false;
    bool health_ok = true;  ///< active checker verdict
    Timestamp acked = kMinTimestamp;

    TimerQueue::TimerId connect_timer = 0;
    TimerQueue::TimerId retry_timer = 0;

    bool finish_sent = false;
    bool summary_received = false;
    std::string summary;

    uint64_t tuples_sent = 0;
    uint64_t watermarks_sent = 0;
    uint64_t acks = 0;
    uint64_t connects = 0;
    uint64_t disconnects = 0;
    uint64_t replays = 0;

    Backend(uint32_t backend_id, RouterBackendAddress address,
            const RouterConfig& config)
        : id(backend_id),
          addr(std::move(address)),
          backoff(config.backoff_base_ms, config.backoff_max_ms,
                  config.seed * 1000003u + backend_id),
          replay(config.replay_max_bytes) {}
  };

  void ServeLoop();
  int64_t NowMs() const { return TimerQueue::NowMs(); }

  // --- backend pool ---
  void StartConnect(Backend* backend);
  void OnBackendEvent(Backend* backend, uint32_t ready);
  void OnBackendConnectWritable(Backend* backend);
  void ProcessBackendInput(Backend* backend);
  bool HandleBackendFrame(Backend* backend, const WireFrame& frame);
  void BackendActivated(Backend* backend, const HelloInfo& hello);
  void BackendFailed(Backend* backend, const char* why);
  void ScheduleReconnect(Backend* backend);
  void OnHealthTransition(uint32_t id, bool healthy);
  bool Eligible(const Backend& backend) const {
    return backend.state == BackendState::kActive && backend.health_ok;
  }
  void FlushBackend(Backend* backend);

  // --- client plane ---
  void OnDataAccept();
  void OnAdminAccept();
  void OnClientEvent(int fd, uint32_t ready);
  void ProcessClientInput(ClientConn* conn);
  bool HandleClientFrame(ClientConn* conn, const WireFrame& frame);
  void ProcessAdminInput(ClientConn* conn);
  void RouteTuple(const StreamEvent& event);
  void BroadcastWatermark(Timestamp watermark);
  void FanResultToSubscribers(const JoinResult& result);
  void FanFramesToSubscribers(const std::string& frames);
  void SendClientError(ClientConn* conn, const std::string& message);
  void FlushClient(ClientConn* conn);
  void CloseClient(int fd);
  void SweepStalledClients();

  // --- watermark + finish ---
  void OnBackendAck(Backend* backend, Timestamp watermark, uint64_t tuples);
  void MaybeFinish();
  void BroadcastFinish();
  void CompleteFinish();

  /// Gathers the backend rows and runs VisitRouterStats over them.
  void VisitStats(StatsVisitor& v) const;

  RouterConfig config_;
  EventLoop loop_;
  TimerQueue timers_;
  TcpListener data_listener_;
  TcpListener admin_listener_;
  uint16_t data_port_ = 0;
  uint16_t admin_port_ = 0;

  std::thread loop_thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  // Loop-thread-only state.
  std::vector<std::unique_ptr<Backend>> backends_;
  HashRing ring_;
  ClusterWatermark cluster_wm_;
  std::unique_ptr<HealthChecker> health_;
  std::unordered_map<int, std::unique_ptr<ClientConn>> clients_;
  Timestamp last_broadcast_wm_ = kMinTimestamp;
  /// Every kAddQuery/kRemoveQuery frame accepted, in order. Broadcast
  /// to all backends as it arrives and resent in full to every backend
  /// that (re)connects, so the whole cluster serves the same catalog;
  /// backends treat duplicate catalog frames as idempotent.
  std::string catalog_journal_;
  bool finish_requested_ = false;
  bool finish_broadcast_ = false;
  int64_t finish_requested_ms_ = 0;
  int finisher_fd_ = -1;
  std::string merged_summary_;
  TimerQueue::TimerId stall_sweep_timer_ = 0;

  // Cross-thread.
  std::atomic<bool> run_finished_{false};

  // Counters (loop thread writes; any thread reads).
  std::atomic<uint64_t> clients_accepted_{0};
  std::atomic<uint64_t> clients_open_{0};
  std::atomic<uint64_t> clients_stalled_evicted_{0};
  std::atomic<uint64_t> subscribers_{0};
  std::atomic<uint64_t> subscribers_evicted_{0};
  std::atomic<uint64_t> tuples_in_{0};
  std::atomic<uint64_t> tuples_routed_{0};
  std::atomic<uint64_t> tuples_queued_sticky_{0};
  std::atomic<uint64_t> tuples_failed_over_{0};
  std::atomic<uint64_t> tuples_dropped_{0};
  std::atomic<uint64_t> watermarks_in_{0};
  std::atomic<uint64_t> watermarks_broadcast_{0};
  std::atomic<uint64_t> watermarks_ignored_{0};
  std::atomic<uint64_t> acks_received_{0};
  std::atomic<uint64_t> results_fanned_{0};
  std::atomic<uint64_t> backend_connects_{0};
  std::atomic<uint64_t> backend_disconnects_{0};
  std::atomic<uint64_t> backend_retries_{0};
  std::atomic<uint64_t> replayed_tuples_{0};
  std::atomic<uint64_t> replay_dropped_tuples_{0};
  std::atomic<int64_t> cluster_watermark_{INT64_MIN};
  std::atomic<int64_t> min_backend_acked_{INT64_MIN};
  std::atomic<uint64_t> hellos_rejected_{0};
  std::atomic<uint64_t> admin_requests_{0};
};

}  // namespace oij

#endif  // OIJ_CLUSTER_ROUTER_H_
