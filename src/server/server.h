#ifndef OIJ_SERVER_SERVER_H_
#define OIJ_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/engine_factory.h"
#include "core/pipeline.h"
#include "metrics/throughput.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/wire_codec.h"
#include "server/admin.h"

namespace oij {

/// Construction knobs for a network-served join run.
struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t data_port = 0;   ///< 0 picks an ephemeral port
  uint16_t admin_port = 0;  ///< 0 picks an ephemeral port

  EngineKind engine = EngineKind::kScaleOij;
  QuerySpec query;
  EngineOptions options;

  /// Label shown on the admin pages (preset/config name).
  std::string workload_name = "network";

  /// Upper bound on one subscriber's unflushed egress backlog. A peer
  /// that stops reading (stalled, half-open, silently gone) is evicted
  /// once its queued bytes cross this, so one dead subscriber can never
  /// wedge the loop or grow memory without bound while the run keeps
  /// serving everyone else.
  size_t max_subscriber_backlog_bytes = 64u << 20;

  /// Recover from `options.durability.wal_dir` before serving traffic.
  /// Replay runs on the loop thread interleaved with admin polls, so
  /// /healthz answers 503 "recovering" and data tuples are rejected
  /// until the replayed state is live. No-op with durability off or an
  /// empty WAL directory.
  bool recover = true;
};

/// TCP serving layer around one JoinEngine run.
///
/// Threading model (DESIGN.md § Serving layer): the server's event-loop
/// thread IS the engine's single driver thread — every Push /
/// SignalWatermark / FlushPending / Finish happens there, so the SWMR
/// contract, the LatenessGate, and the overload policies apply to
/// network traffic exactly as they do to in-process runs. Joiner threads
/// deliver results into a thread-safe egress buffer the loop drains to
/// subscribed connections.
///
/// Data plane (wire_codec.h): clients send kTuple/kWatermark frames,
/// optionally kSubscribe (streamed kResult frames), and kFinish, which
/// finalizes the engine and answers with a kSummary frame to every
/// subscriber and to the finisher. Malformed frames get a kError frame
/// and a close, and are counted in frames_rejected.
///
/// Admin plane, on the same loop: HTTP/1.0 GET /metrics (Prometheus
/// text), /healthz (engine health, 200/503), /statz (JSON).
class OijServer {
 public:
  explicit OijServer(const ServerConfig& config);
  ~OijServer();

  OijServer(const OijServer&) = delete;
  OijServer& operator=(const OijServer&) = delete;

  /// Binds both listeners, starts the engine, and spawns the loop
  /// thread. On failure nothing is left running.
  Status Start();

  /// Graceful drain (SIGINT/SIGTERM path): if the run is still live it
  /// is finalized (FlushPending + Sync + Finish) — Sync forces every
  /// accepted WAL byte to disk before the joiners stop, so a drained
  /// shutdown never loses logged state regardless of fsync policy —
  /// pending summaries/results are flushed to subscribers, then the
  /// loop exits and all sockets close. Idempotent.
  void Shutdown();

  uint16_t data_port() const { return data_port_; }
  uint16_t admin_port() const { return admin_port_; }

  bool run_finished() const {
    return run_finished_.load(std::memory_order_acquire);
  }

  /// Server-side counters (safe from any thread).
  ServerCounters CountersSnapshot() const;

  /// Merged stats of the finalized run; valid once run_finished().
  RunResult FinalRun() const;

 private:
  struct Conn {
    explicit Conn(int fd) : tcp(fd) {}
    TcpConnection tcp;
    WireDecoder decoder;
    bool is_admin = false;
    bool subscriber = false;
    /// Handshake state: a kHello is only legal as the first frame; a
    /// peer that sent one may request per-watermark acks.
    bool saw_frame = false;
    bool wants_acks = false;
    uint64_t tuples_received = 0;
  };

  /// Joiner-thread entry: encodes results into the egress buffer.
  class EgressSink;

  void ServeLoop();
  void OnDataAccept();
  void OnAdminAccept();
  void OnConnEvent(int fd, uint32_t ready);
  void ProcessDataInput(Conn* conn);
  void ProcessAdminInput(Conn* conn);
  /// OK while the catalog accepts changes; Unavailable while the WAL
  /// replays, FailedPrecondition once the run is finalized.
  Status CatalogWritable() const;
  /// POST /queries: parse the JSON body, register the standing query on
  /// the loop (= engine driver) thread, answer 200 or a structured error.
  std::string HandleAddQueryRequest(const HttpRequest& request);
  /// DELETE /queries/<id>: deactivate the standing query.
  std::string HandleRemoveQueryRequest(const std::string& id);
  bool HandleFrame(Conn* conn, const WireFrame& frame);
  void FinalizeRun();
  /// Moves buffered result frames to every subscriber's write queue.
  void DrainEgress();
  void SendError(Conn* conn, const std::string& message);
  void UpdateInterest(Conn* conn);
  void FlushConn(Conn* conn);
  void CloseConn(int fd);
  AdminSnapshot BuildSnapshot();
  /// Best-effort final flush of pending writes before the loop exits.
  void FlushAllBeforeExit();

  ServerConfig config_;
  std::unique_ptr<EgressSink> sink_;
  std::unique_ptr<JoinEngine> engine_;

  EventLoop loop_;
  TcpListener data_listener_;
  TcpListener admin_listener_;
  uint16_t data_port_ = 0;
  uint16_t admin_port_ = 0;

  std::thread loop_thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  // Loop-thread-only state.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  ThroughputMeter meter_;
  bool meter_started_ = false;
  int64_t started_ns_ = 0;
  std::string summary_text_;  // set by FinalizeRun

  // Cross-thread state.
  std::atomic<bool> run_finished_{false};
  mutable std::mutex final_run_mu_;
  RunResult final_run_;  // guarded by final_run_mu_

  // Counters (loop thread writes; any thread reads).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_open_{0};
  std::atomic<uint64_t> admin_requests_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> tuples_in_{0};
  std::atomic<uint64_t> watermarks_in_{0};
  std::atomic<uint64_t> frames_rejected_{0};
  std::atomic<uint64_t> results_streamed_{0};
  std::atomic<uint64_t> subscribers_{0};
  std::atomic<uint64_t> subscribers_evicted_{0};
  std::atomic<uint64_t> watermark_acks_{0};
  std::atomic<uint64_t> hellos_rejected_{0};
};

}  // namespace oij

#endif  // OIJ_SERVER_SERVER_H_
