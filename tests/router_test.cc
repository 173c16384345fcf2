// In-process cluster-tier tests: a real OijRouter in front of real
// OijServer backends (and, for the failure-injection cases, scripted
// fake backends speaking the wire protocol). Headline properties:
//
//   * fan-back exactness — the union of results streamed back through
//     the router from two key-partitioned backends equals the
//     policy-aware reference oracle, and the cluster watermark
//     punctuation the router inserts is strictly increasing and never
//     ahead of the min acked backend watermark;
//   * handshake hygiene — a mismatched or misplaced kHello is answered
//     with a clean kError, never a poisoned decoder;
//   * failover — a non-durable backend's keys reroute ring-clockwise to
//     the survivor the moment it drops, and /healthz flips to 503 when
//     no backend is eligible;
//   * sticky replay — a durable-exact backend's keys queue while it is
//     down and exactly the un-acked suffix past its recovered watermark
//     is resent when it returns.
//
// The kill -9 version of the replay property (real WAL, real recovery)
// lives in cluster_integration_test.cc.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "admin_http.h"
#include "cluster/router.h"
#include "core/engine_factory.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "net/socket.h"
#include "net/wire_codec.h"
#include "server/server.h"
#include "stream/generator.h"
#include "stream/presets.h"

namespace oij {
namespace {

std::vector<StreamEvent> Generate(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

bool WaitUntil(const std::function<bool()>& pred, int64_t timeout_ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Blocking router client with a concurrent reader; beyond DataClient
/// (server_test.cc) it also collects the kHello reply and the cluster
/// kWatermark punctuation the router inserts into subscriptions.
class RouterClient {
 public:
  explicit RouterClient(uint16_t port) {
    const Status s = ConnectTcp("127.0.0.1", port, &fd_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (fd_ >= 0) reader_ = std::thread(&RouterClient::ReadLoop, this);
  }

  ~RouterClient() {
    JoinReader();
    CloseFd(fd_);
  }

  bool Send(const std::string& bytes) {
    return SendAll(fd_, bytes.data(), bytes.size()).ok();
  }

  void JoinReader() {
    if (reader_.joinable()) reader_.join();
  }

  std::vector<JoinResult> results;
  std::vector<Timestamp> watermarks;
  std::vector<HelloInfo> hellos;
  std::string summary;
  std::vector<std::string> errors;
  bool corrupt = false;

 private:
  void ReadLoop() {
    WireDecoder decoder;
    char buf[16384];
    WireFrame frame;
    while (true) {
      const int64_t n = RecvSome(fd_, buf, sizeof(buf));
      if (n <= 0) return;
      decoder.Feed(buf, static_cast<size_t>(n));
      while (true) {
        const WireDecoder::Result r = decoder.Next(&frame);
        if (r == WireDecoder::Result::kNeedMore) break;
        if (r == WireDecoder::Result::kCorrupt) {
          corrupt = true;
          return;
        }
        switch (frame.type) {
          case FrameType::kResult:
            results.push_back(frame.result);
            break;
          case FrameType::kWatermark:
            watermarks.push_back(frame.watermark);
            break;
          case FrameType::kHello:
            hellos.push_back(frame.hello);
            break;
          case FrameType::kSummary:
            summary = frame.text;
            break;
          case FrameType::kError:
            errors.push_back(frame.text);
            break;
          default:
            break;
        }
      }
    }
  }

  int fd_ = -1;
  std::thread reader_;
};

RouterConfig TwoBackendConfig(const OijServer& a, const OijServer& b) {
  RouterConfig rc;
  rc.backends.push_back({"127.0.0.1", a.data_port(), a.admin_port()});
  rc.backends.push_back({"127.0.0.1", b.data_port(), b.admin_port()});
  rc.backoff_base_ms = 20;
  rc.backoff_max_ms = 200;
  rc.seed = 7;
  return rc;
}

// --------------------------------------------------- fan-back exactness

/// Two key-partitioned backends behind the router must reproduce the
/// single-node oracle exactly: every tuple routes to exactly one
/// backend, both see the identical watermark sequence, so the union of
/// their (disjoint) result streams is the reference result set. The
/// cluster watermark punctuation must be strictly increasing and is
/// checked against the min-acked gauge at the end.
TEST(RouterFanBack, TwoBackendUnionMatchesReferenceOracle) {
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset("default", &workload));
  workload.total_tuples = 8'000;
  const std::vector<StreamEvent> events = Generate(workload);

  QuerySpec query;
  query.window = workload.window;
  query.lateness_us = workload.lateness_us;
  query.emit_mode = EmitMode::kWatermark;

  ServerConfig sc;
  sc.engine = EngineKind::kScaleOij;
  sc.query = query;
  sc.options.num_joiners = 2;

  OijServer backend_a(sc);
  OijServer backend_b(sc);
  ASSERT_TRUE(backend_a.Start().ok());
  ASSERT_TRUE(backend_b.Start().ok());

  OijRouter router(TwoBackendConfig(backend_a, backend_b));
  ASSERT_TRUE(router.Start().ok());

  // Both backends must be active before traffic, or early tuples for a
  // still-handshaking durable-unknown backend would fail over.
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_connects >= 2;
  }));

  const uint64_t wm_every = 256;
  {
    RouterClient client(router.data_port());
    std::string batch;
    HelloInfo hello;
    AppendHelloFrame(&batch, hello);
    AppendControlFrame(&batch, FrameType::kSubscribe);
    WatermarkTracker tracker(query.lateness_us);
    uint64_t n = 0;
    bool io_ok = true;
    for (const StreamEvent& ev : events) {
      tracker.Observe(ev.tuple.ts);
      AppendTupleFrame(&batch, ev);
      if (++n % wm_every == 0) {
        AppendWatermarkFrame(&batch, tracker.watermark());
      }
      if (batch.size() >= 32 * 1024) {
        if (!(io_ok = client.Send(batch))) break;
        batch.clear();
      }
    }
    ASSERT_TRUE(io_ok) << "tuple send failed";
    ASSERT_TRUE(client.Send(batch));
    batch.clear();

    // Admin plane mid-run, while both backends are active.
    ASSERT_TRUE(WaitUntil([&] {
      return router.CountersSnapshot().tuples_routed >= events.size();
    }));
    int code = 0;
    HttpGet(router.admin_port(), "/healthz", &code);
    EXPECT_EQ(code, 200) << "healthz with two active backends";
    const std::string statz = HttpGet(router.admin_port(), "/statz", &code);
    EXPECT_EQ(code, 200);
    EXPECT_NE(statz.find("cluster_watermark"), std::string::npos) << statz;
    EXPECT_NE(statz.find("\"backends\""), std::string::npos) << statz;
    EXPECT_NE(statz.find("active"), std::string::npos) << statz;
    const std::string metrics = HttpGet(router.admin_port(), "/metrics", &code);
    EXPECT_EQ(code, 200);
    EXPECT_NE(metrics.find("oij_router_tuples_routed_total"),
              std::string::npos);
    EXPECT_NE(metrics.find("oij_router_backend_acked_watermark"),
              std::string::npos);
    // Per-backend families stay contiguous with two backends.
    ExpectValidExposition(metrics);

    AppendControlFrame(&batch, FrameType::kFinish);
    ASSERT_TRUE(client.Send(batch));
    client.JoinReader();

    EXPECT_FALSE(client.corrupt) << "router sent a malformed frame";
    ASSERT_TRUE(client.errors.empty())
        << "router error: " << client.errors.front();
    ASSERT_EQ(client.hellos.size(), 1u) << "no hello reply";
    EXPECT_TRUE(client.hellos[0].Compatible());
    ASSERT_FALSE(client.summary.empty()) << "no summary frame";
    EXPECT_NE(client.summary.find("cluster run: 2 backend(s)"),
              std::string::npos)
        << client.summary;
    EXPECT_NE(client.summary.find("--- backend 0"), std::string::npos);
    EXPECT_NE(client.summary.find("--- backend 1"), std::string::npos);

    // Cluster watermark punctuation: strictly increasing, and never
    // ahead of the min acked backend watermark (monotone-safety at the
    // emission site; the eject/re-admit cycle is covered in
    // cluster_test.cc).
    for (size_t i = 1; i < client.watermarks.size(); ++i) {
      EXPECT_GT(client.watermarks[i], client.watermarks[i - 1])
          << "cluster watermark regressed at punctuation " << i;
    }
    const RouterCounters rc = router.CountersSnapshot();
    EXPECT_LE(rc.cluster_watermark, rc.min_backend_acked);
    if (!client.watermarks.empty()) {
      EXPECT_EQ(client.watermarks.back(), rc.cluster_watermark);
    }
    EXPECT_EQ(rc.tuples_routed, events.size());
    EXPECT_EQ(rc.tuples_dropped, 0u);
    EXPECT_EQ(rc.tuples_failed_over, 0u);
    EXPECT_GT(rc.watermarks_broadcast, 0u);
    EXPECT_GE(rc.acks_received, rc.watermarks_broadcast);

    // The union of the two disjoint key partitions must equal the
    // single-node policy-aware oracle, result for result.
    std::vector<ReferenceResult> got;
    got.reserve(client.results.size());
    for (const JoinResult& r : client.results) {
      got.push_back({r.base, r.aggregate, r.match_count});
    }
    SortResults(&got);
    std::vector<ReferenceResult> want =
        ReferenceJoinWithPolicy(events, query, wm_every);
    SortResults(&want);
    ASSERT_EQ(got.size(), want.size()) << "fan-back result cardinality";
    size_t mismatches = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].base != want[i].base ||
          got[i].match_count != want[i].match_count ||
          (!std::isnan(want[i].aggregate) &&
           std::abs(got[i].aggregate - want[i].aggregate) > 1e-6)) {
        if (++mismatches <= 3) {
          ADD_FAILURE() << "result " << i << " differs: ts=" << got[i].base.ts
                        << " key=" << got[i].base.key
                        << " got count=" << got[i].match_count
                        << " want count=" << want[i].match_count;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }

  router.Shutdown();
  backend_a.Shutdown();
  backend_b.Shutdown();
}

// ----------------------------------------------------- handshake hygiene

TEST(RouterHandshake, MismatchedHelloGetsCleanErrorNotDecoderPoison) {
  ServerConfig sc;
  sc.options.num_joiners = 1;
  OijServer backend(sc);
  ASSERT_TRUE(backend.Start().ok());

  RouterConfig rc;
  rc.backends.push_back({"127.0.0.1", backend.data_port(),
                         backend.admin_port()});
  OijRouter router(rc);
  ASSERT_TRUE(router.Start().ok());

  {  // Wrong version: clean kError naming the mismatch, then close.
    RouterClient client(router.data_port());
    std::string bytes;
    HelloInfo bad;
    bad.version = 99;
    AppendHelloFrame(&bytes, bad);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();  // router closes after the error
    EXPECT_FALSE(client.corrupt);
    ASSERT_EQ(client.errors.size(), 1u);
    EXPECT_TRUE(client.hellos.empty());
  }
  {  // Wrong magic: same clean rejection.
    RouterClient client(router.data_port());
    std::string bytes;
    HelloInfo bad;
    bad.magic = 0xDEADBEEF;
    AppendHelloFrame(&bytes, bad);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();
    EXPECT_FALSE(client.corrupt);
    ASSERT_EQ(client.errors.size(), 1u);
  }
  {  // Hello after another frame is a protocol error.
    RouterClient client(router.data_port());
    std::string bytes;
    AppendWatermarkFrame(&bytes, 1);
    HelloInfo hello;
    AppendHelloFrame(&bytes, hello);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();
    EXPECT_FALSE(client.corrupt);
    ASSERT_EQ(client.errors.size(), 1u);
  }
  EXPECT_GE(router.CountersSnapshot().hellos_rejected, 3u);

  {  // A well-formed hello still negotiates: the plane is not wedged.
    RouterClient client(router.data_port());
    std::string bytes;
    HelloInfo hello;
    AppendHelloFrame(&bytes, hello);
    AppendControlFrame(&bytes, FrameType::kFinish);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();
    EXPECT_FALSE(client.corrupt);
    EXPECT_TRUE(client.errors.empty())
        << "unexpected error: " << client.errors.front();
    ASSERT_EQ(client.hellos.size(), 1u);
    EXPECT_TRUE(client.hellos[0].Compatible());
  }

  router.Shutdown();
  backend.Shutdown();
}

// ------------------------------------------------------- fake backends

/// Scripted wire-protocol backend: accepts router connections, answers
/// the hello (optionally advertising kHelloDurableExact and a recovered
/// watermark), acks every watermark, and records what it receives. Lets
/// the failover/replay tests control exactly when a backend dies and
/// with what durable state it returns.
class FakeBackend {
 public:
  FakeBackend(bool durable, Timestamp recovered_wm)
      : durable_(durable), recovered_wm_(recovered_wm) {}

  ~FakeBackend() { Stop(); }

  bool Start(uint16_t port = 0) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener_ < 0) return false;
    const int one = 1;
    ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    if (::listen(listener_, 8) != 0) return false;
    thread_ = std::thread(&FakeBackend::AcceptLoop, this);
    return true;
  }

  /// Kills the listener and any live connection; the router sees an
  /// abrupt disconnect, exactly like a crashed process.
  void Stop() {
    if (listener_ < 0) return;
    stop_.store(true);
    ::shutdown(listener_, SHUT_RDWR);
    const int conn = conn_fd_.exchange(-1);
    if (conn >= 0) ::shutdown(conn, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    CloseFd(listener_);
    listener_ = -1;
  }

  uint16_t port() const { return port_; }

  std::vector<StreamEvent> Tuples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tuples_;
  }
  std::vector<Timestamp> Watermarks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return watermarks_;
  }
  size_t TupleCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tuples_.size();
  }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;
      conn_fd_.store(fd);
      Serve(fd);
      const int owned = conn_fd_.exchange(-1);
      if (owned >= 0) CloseFd(owned);
    }
  }

  void Serve(int fd) {
    WireDecoder decoder;
    char buf[16384];
    WireFrame frame;
    uint64_t tuples_seen = 0;
    while (!stop_.load()) {
      const int64_t n = RecvSome(fd, buf, sizeof(buf));
      if (n <= 0) return;
      decoder.Feed(buf, static_cast<size_t>(n));
      while (decoder.Next(&frame) == WireDecoder::Result::kFrame) {
        std::string out;
        switch (frame.type) {
          case FrameType::kHello: {
            HelloInfo reply;
            reply.flags = durable_ ? kHelloDurableExact : 0;
            reply.recovered_watermark = recovered_wm_;
            AppendHelloFrame(&out, reply);
            break;
          }
          case FrameType::kTuple: {
            std::lock_guard<std::mutex> lock(mu_);
            tuples_.push_back(frame.event);
            ++tuples_seen;
            break;
          }
          case FrameType::kWatermark: {
            {
              std::lock_guard<std::mutex> lock(mu_);
              watermarks_.push_back(frame.watermark);
            }
            AppendWatermarkAckFrame(&out, frame.watermark, tuples_seen);
            break;
          }
          case FrameType::kFinish:
            AppendTextFrame(&out, FrameType::kSummary, "fake backend run");
            break;
          default:
            break;
        }
        if (!out.empty() && !SendAll(fd, out.data(), out.size()).ok()) return;
      }
    }
  }

  const bool durable_;
  const Timestamp recovered_wm_;
  int listener_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int> conn_fd_{-1};

  mutable std::mutex mu_;
  std::vector<StreamEvent> tuples_;
  std::vector<Timestamp> watermarks_;
};

RouterConfig FakePairConfig(uint16_t port_a, uint16_t port_b) {
  RouterConfig rc;
  // Admin ports point at closed ports; the probe interval is an hour and
  // the thresholds are huge so active checking never ejects anyone —
  // these tests exercise the connection state machine, not the checker.
  rc.backends.push_back({"127.0.0.1", port_a, 1});
  rc.backends.push_back({"127.0.0.1", port_b, 1});
  rc.health.interval_ms = 3'600'000;
  rc.health.unhealthy_threshold = 1'000'000;
  rc.connect_timeout_ms = 500;
  rc.backoff_base_ms = 20;
  rc.backoff_max_ms = 100;
  rc.seed = 11;
  return rc;
}

StreamEvent Ev(Timestamp ts, uint64_t key) {
  StreamEvent ev;
  ev.stream = StreamId::kBase;
  ev.tuple.ts = ts;
  ev.tuple.key = key;
  ev.tuple.payload = static_cast<double>(ts);
  return ev;
}

// ---------------------------------------------------------- failover

/// When a non-durable backend drops, its share of the key space must
/// reroute to the ring-clockwise survivor with zero drops, and /healthz
/// must flip to 503 only once *no* backend is eligible.
TEST(RouterFailover, NonDurableBackendLossReroutesToSurvivor) {
  FakeBackend a(/*durable=*/false, kMinTimestamp);
  FakeBackend b(/*durable=*/false, kMinTimestamp);
  ASSERT_TRUE(a.Start());
  ASSERT_TRUE(b.Start());

  OijRouter router(FakePairConfig(a.port(), b.port()));
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_connects >= 2;
  }));

  const uint64_t kKeys = 200;
  RouterClient client(router.data_port());
  {
    std::string batch;
    for (uint64_t k = 0; k < kKeys; ++k) AppendTupleFrame(&batch, Ev(100, k));
    ASSERT_TRUE(client.Send(batch));
  }
  ASSERT_TRUE(
      WaitUntil([&] { return a.TupleCount() + b.TupleCount() >= kKeys; }));
  // A healthy ring splits the key space nontrivially.
  EXPECT_GT(a.TupleCount(), 0u);
  EXPECT_GT(b.TupleCount(), 0u);
  const size_t a_share = a.TupleCount();
  std::set<uint64_t> a_keys;
  for (const StreamEvent& ev : a.Tuples()) a_keys.insert(ev.tuple.key);

  // Kill backend A; the router must notice and reroute A's keys to B.
  a.Stop();
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_disconnects >= 1;
  }));
  {
    std::string batch;
    for (uint64_t k = 0; k < kKeys; ++k) AppendTupleFrame(&batch, Ev(200, k));
    ASSERT_TRUE(client.Send(batch));
  }
  ASSERT_TRUE(WaitUntil([&] { return b.TupleCount() >= kKeys + kKeys - a_share; }));

  const RouterCounters rc = router.CountersSnapshot();
  EXPECT_EQ(rc.tuples_routed, 2 * kKeys);
  EXPECT_EQ(rc.tuples_dropped, 0u);
  EXPECT_EQ(rc.tuples_failed_over, a_share)
      << "every key A owned must have failed over, and only those";
  // B received its own share twice plus A's share once; specifically
  // every key A owned in round one must appear at B in round two.
  std::set<uint64_t> b_round2;
  for (const StreamEvent& ev : b.Tuples()) {
    if (ev.tuple.ts == 200) b_round2.insert(ev.tuple.key);
  }
  for (const uint64_t k : a_keys) {
    EXPECT_TRUE(b_round2.count(k)) << "key " << k << " lost in failover";
  }

  int code = 0;
  HttpGet(router.admin_port(), "/healthz", &code);
  EXPECT_EQ(code, 200) << "one eligible backend is enough for 200";

  // Lose the survivor too: with nobody eligible the router must say so.
  b.Stop();
  ASSERT_TRUE(WaitUntil([&] {
    int c = 0;
    HttpGet(router.admin_port(), "/healthz", &c);
    return c == 503;
  }));

  router.Shutdown();
}

/// The same failover with real servers: a backend whose WAL fsyncs on
/// an interval cannot promise that an acked watermark survives a crash,
/// so it never advertises kHelloDurableExact and its keys must fail
/// over, never queue sticky, when it stops.
TEST(RouterFailover, IntervalFsyncWalBackendFailsOverNotSticky) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("oij_router_interval_wal_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ServerConfig sc;
  sc.options.num_joiners = 1;
  ServerConfig wal_sc = sc;
  wal_sc.options.durability.wal_dir = dir.string();
  wal_sc.options.durability.fsync = FsyncPolicy::kInterval;
  wal_sc.options.durability.recover_to_watermark = true;
  OijServer with_wal(wal_sc);
  OijServer plain(sc);
  ASSERT_TRUE(with_wal.Start().ok());
  ASSERT_TRUE(plain.Start().ok());

  OijRouter router(TwoBackendConfig(with_wal, plain));
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_connects >= 2;
  }));
  int code = 0;
  const std::string statz = HttpGet(router.admin_port(), "/statz", &code);
  EXPECT_EQ(code, 200);
  EXPECT_EQ(statz.find("\"durable_exact\":true"), std::string::npos) << statz;

  const uint64_t kKeys = 200;
  RouterClient client(router.data_port());
  std::string batch;
  for (uint64_t k = 0; k < kKeys; ++k) AppendTupleFrame(&batch, Ev(100, k));
  ASSERT_TRUE(client.Send(batch));
  ASSERT_TRUE(WaitUntil(
      [&] { return router.CountersSnapshot().tuples_routed >= kKeys; }));

  with_wal.Shutdown();
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_disconnects >= 1;
  }));
  batch.clear();
  for (uint64_t k = 0; k < kKeys; ++k) AppendTupleFrame(&batch, Ev(200, k));
  ASSERT_TRUE(client.Send(batch));
  ASSERT_TRUE(WaitUntil(
      [&] { return router.CountersSnapshot().tuples_routed >= 2 * kKeys; }));

  const RouterCounters rc = router.CountersSnapshot();
  EXPECT_GT(rc.tuples_failed_over, 0u);
  EXPECT_EQ(rc.tuples_queued_sticky, 0u);
  EXPECT_EQ(rc.tuples_dropped, 0u);
  ExpectValidExposition(HttpGet(router.admin_port(), "/metrics", &code));
  EXPECT_EQ(code, 200);

  router.Shutdown();
  plain.Shutdown();
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ sticky replay

/// A durable-exact backend's keys never fail over: they queue in its
/// replay buffer while it is down, and when it returns advertising its
/// recovered watermark the router resends exactly the un-acked suffix —
/// nothing at or before the cut, everything after it, watermark
/// punctuation included.
TEST(RouterStickyReplay, ResendsExactlyTheUnackedSuffixPastTheCut) {
  FakeBackend first(/*durable=*/true, kMinTimestamp);
  ASSERT_TRUE(first.Start());
  const uint16_t backend_port = first.port();

  RouterConfig rc;
  rc.backends.push_back({"127.0.0.1", backend_port, 1});
  rc.health.interval_ms = 3'600'000;
  rc.health.unhealthy_threshold = 1'000'000;
  rc.connect_timeout_ms = 500;
  rc.backoff_base_ms = 20;
  rc.backoff_max_ms = 100;
  rc.seed = 13;
  OijRouter router(rc);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_connects >= 1;
  }));

  RouterClient client(router.data_port());

  // Two acked segments: tuples ts 1..10 under watermark 10, ts 11..20
  // under watermark 20.
  {
    std::string batch;
    for (Timestamp ts = 1; ts <= 10; ++ts) AppendTupleFrame(&batch, Ev(ts, 1));
    AppendWatermarkFrame(&batch, 10);
    for (Timestamp ts = 11; ts <= 20; ++ts) {
      AppendTupleFrame(&batch, Ev(ts, 1));
    }
    AppendWatermarkFrame(&batch, 20);
    ASSERT_TRUE(client.Send(batch));
  }
  ASSERT_TRUE(WaitUntil([&] {
    const RouterCounters c = router.CountersSnapshot();
    return c.acks_received >= 2 && c.cluster_watermark == 20;
  }));
  EXPECT_EQ(router.CountersSnapshot().min_backend_acked, 20);

  // Backend dies. Its keys must STICK: tuples queue, nothing drops.
  first.Stop();
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().backend_disconnects >= 1;
  }));
  {
    std::string batch;
    for (Timestamp ts = 21; ts <= 30; ++ts) {
      AppendTupleFrame(&batch, Ev(ts, 1));
    }
    AppendWatermarkFrame(&batch, 30);  // sealed into the pending buffer
    for (Timestamp ts = 31; ts <= 40; ++ts) {
      AppendTupleFrame(&batch, Ev(ts, 1));
    }
    ASSERT_TRUE(client.Send(batch));
  }
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().tuples_queued_sticky >= 20;
  }));
  {
    const RouterCounters c = router.CountersSnapshot();
    EXPECT_EQ(c.tuples_failed_over, 0u) << "durable keys must not fail over";
    EXPECT_EQ(c.tuples_dropped, 0u);
    // The cluster watermark must stall, not advance past the dead
    // backend's last ack.
    EXPECT_EQ(c.cluster_watermark, 20);
  }

  // The backend returns on the same address, durable through watermark
  // 20. The router must resend exactly ts 21..40 plus the sealed
  // watermark 30 — and nothing from the acked prefix.
  FakeBackend second(/*durable=*/true, /*recovered_wm=*/20);
  ASSERT_TRUE(second.Start(backend_port));
  ASSERT_TRUE(WaitUntil([&] {
    return router.CountersSnapshot().replayed_tuples >= 20;
  }));
  ASSERT_TRUE(WaitUntil([&] { return second.TupleCount() >= 20; }));

  const std::vector<StreamEvent> replayed = second.Tuples();
  ASSERT_EQ(replayed.size(), 20u);
  std::set<Timestamp> seen;
  for (const StreamEvent& ev : replayed) {
    EXPECT_GT(ev.tuple.ts, 20) << "acked tuple replayed (duplicate)";
    seen.insert(ev.tuple.ts);
  }
  for (Timestamp ts = 21; ts <= 40; ++ts) {
    EXPECT_TRUE(seen.count(ts)) << "queued tuple ts=" << ts << " lost";
  }
  // The sealed punctuation travels with the replay, and the ack it
  // triggers lifts the cluster watermark off the stall.
  ASSERT_TRUE(WaitUntil(
      [&] { return router.CountersSnapshot().cluster_watermark >= 30; }));
  const std::vector<Timestamp> wms = second.Watermarks();
  ASSERT_FALSE(wms.empty());
  EXPECT_EQ(wms.front(), 30);
  EXPECT_EQ(router.CountersSnapshot().replay_dropped_tuples, 0u);

  router.Shutdown();
  second.Stop();
}

}  // namespace
}  // namespace oij
