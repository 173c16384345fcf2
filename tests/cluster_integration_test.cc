// Cluster-tier crash integration tests: a real oij_router binary in
// front of two real oij_server binaries (located via OIJ_ROUTER_BIN /
// OIJ_SERVER_BIN, set by CMake), with one backend SIGKILLed mid-run.
// The headline property is the ISSUE's acceptance bar:
//
//   * backends on --fsync per_batch --recover-to-watermark: kill -9 one
//     backend mid-run, keep sending through the router (its keys stick
//     and queue), restart it over the same --wal-dir, finish — the
//     union of everything the single client received must equal the
//     policy-aware reference oracle EXACTLY, and the router must never
//     go down (its /healthz stays 200 and the client connection
//     survives the whole ordeal);
//   * non-durable backends: the dead backend's keys fail over to the
//     survivor and the result stream stays within the documented loss
//     bound — a subset of the oracle, never a fabricated result.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "admin_http.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "net/socket.h"
#include "net/wire_codec.h"
#include "stream/generator.h"
#include "stream/presets.h"

namespace oij {
namespace {

const char* ServerBinary() { return std::getenv("OIJ_SERVER_BIN"); }
const char* RouterBinary() { return std::getenv("OIJ_ROUTER_BIN"); }
const char* LoadgenBinary() { return std::getenv("OIJ_LOADGEN_BIN"); }

std::vector<StreamEvent> Generate(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

bool WaitUntil(const std::function<bool()>& pred, int64_t timeout_ms = 30000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Scratch WAL directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/oij_cluster_test_XXXXXX";
    char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    if (d != nullptr) path_ = d;
  }
  ~TempDir() {
    if (!path_.empty()) {
      const std::string cmd = "rm -rf '" + path_ + "'";
      if (std::system(cmd.c_str()) != 0) {
        std::fprintf(stderr, "warning: failed to remove %s\n", path_.c_str());
      }
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A forked oij_server or oij_router. Both print the same
/// "data port:"/"admin port:" banner, parsed to learn ephemeral ports.
class Proc {
 public:
  ~Proc() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      WaitExit();
    }
    if (drain_.joinable()) drain_.join();
    if (out_fd_ >= 0) close(out_fd_);
  }

  bool Spawn(const char* bin, const std::vector<std::string>& extra_args) {
    if (bin == nullptr) return false;
    int fds[2];
    if (pipe(fds) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<std::string> args;
      args.push_back(bin);
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(bin, argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    if (!ParsePorts()) return false;
    drain_ = std::thread([this] {
      char buf[4096];
      while (read(out_fd_, buf, sizeof(buf)) > 0) {
      }
    });
    return true;
  }

  void Kill(int sig) {
    ASSERT_GT(pid_, 0);
    ASSERT_EQ(kill(pid_, sig), 0) << strerror(errno);
  }

  int WaitExit() {
    if (pid_ <= 0) return -1;
    int status = -1;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

  uint16_t data_port() const { return data_port_; }
  uint16_t admin_port() const { return admin_port_; }

 private:
  bool ParsePorts() {
    std::string text;
    char buf[512];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      text.append(buf, static_cast<size_t>(n));
      unsigned dp = 0, ap = 0;
      const char* d = std::strstr(text.c_str(), "data port:");
      const char* a = std::strstr(text.c_str(), "admin port:");
      if (d != nullptr && a != nullptr &&
          std::sscanf(d, "data port: %u", &dp) == 1 &&
          std::sscanf(a, "admin port: %u", &ap) == 1) {
        data_port_ = static_cast<uint16_t>(dp);
        admin_port_ = static_cast<uint16_t>(ap);
        return true;
      }
    }
    return false;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::thread drain_;
  uint16_t data_port_ = 0;
  uint16_t admin_port_ = 0;
};

/// A forked oij_loadgen whose stdout is captured in full; unlike Proc
/// it prints no port banner, so the pipe is drained only at exit.
struct LoadgenRun {
  pid_t pid = -1;
  int out_fd = -1;
};

bool StartLoadgen(const std::vector<std::string>& extra_args,
                  LoadgenRun* run) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<std::string> args;
    args.push_back(LoadgenBinary());
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(LoadgenBinary(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  run->pid = pid;
  run->out_fd = fds[0];
  return true;
}

/// Drains stdout to EOF, reaps the child, returns its wait status.
int FinishLoadgen(LoadgenRun* run, std::string* output) {
  char buf[4096];
  ssize_t n;
  while ((n = read(run->out_fd, buf, sizeof(buf))) > 0) {
    output->append(buf, static_cast<size_t>(n));
  }
  close(run->out_fd);
  run->out_fd = -1;
  int status = -1;
  waitpid(run->pid, &status, 0);
  run->pid = -1;
  return status;
}

/// Pulls `field=<n>` out of the report line starting with `line_prefix`.
bool ReportNumber(const std::string& text, const std::string& line_prefix,
                  const std::string& field, uint64_t* out) {
  const size_t line = text.find(line_prefix);
  if (line == std::string::npos) return false;
  const size_t eol = text.find('\n', line);
  const std::string hay = text.substr(
      line, eol == std::string::npos ? std::string::npos : eol - line);
  const std::string needle = field + "=";
  const size_t pos = hay.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtoull(hay.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

/// Data-plane client with an observable received-result count; the one
/// client in these tests lives across the backend kill, because "zero
/// router downtime" means exactly that its connection never drops.
class LiveClient {
 public:
  explicit LiveClient(uint16_t port) {
    const Status s = ConnectTcp("127.0.0.1", port, &fd_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (fd_ >= 0) reader_ = std::thread(&LiveClient::ReadLoop, this);
  }

  ~LiveClient() {
    if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
    JoinReader();
    CloseFd(fd_);
  }

  bool Send(const std::string& bytes) {
    return SendAll(fd_, bytes.data(), bytes.size()).ok();
  }

  void JoinReader() {
    if (reader_.joinable()) reader_.join();
  }

  size_t ResultCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return results_.size();
  }

  /// The reader exits when the peer closes; still false after kFinish
  /// means the router kept the connection alive.
  bool ReaderExited() const { return reader_exited_.load(); }

  /// Valid only after JoinReader().
  const std::vector<JoinResult>& results() const { return results_; }
  const std::vector<Timestamp>& watermarks() const { return watermarks_; }
  const std::string& summary() const { return summary_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void ReadLoop() {
    WireDecoder decoder;
    char buf[16384];
    WireFrame frame;
    while (true) {
      const int64_t n = RecvSome(fd_, buf, sizeof(buf));
      if (n <= 0) break;
      decoder.Feed(buf, static_cast<size_t>(n));
      while (true) {
        const WireDecoder::Result r = decoder.Next(&frame);
        if (r == WireDecoder::Result::kNeedMore) break;
        if (r == WireDecoder::Result::kCorrupt) {
          reader_exited_.store(true);
          return;
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (frame.type == FrameType::kResult) {
          results_.push_back(frame.result);
        } else if (frame.type == FrameType::kWatermark) {
          watermarks_.push_back(frame.watermark);
        } else if (frame.type == FrameType::kSummary) {
          summary_ = frame.text;
        } else if (frame.type == FrameType::kError) {
          errors_.push_back(frame.text);
        }
      }
    }
    reader_exited_.store(true);
  }

  int fd_ = -1;
  std::thread reader_;
  std::atomic<bool> reader_exited_{false};
  mutable std::mutex mu_;
  std::vector<JoinResult> results_;
  std::vector<Timestamp> watermarks_;
  std::string summary_;
  std::vector<std::string> errors_;
};

size_t CountOccurrences(const std::string& body, const std::string& needle) {
  size_t count = 0, pos = 0;
  while ((pos = body.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

/// Both backends active AND readmitted by the health checker — finish
/// only broadcasts to eligible backends, so the tests wait for this
/// before sending kFinish.
bool AllBackendsEligible(uint16_t router_admin, size_t n) {
  int code = 0;
  const std::string body = HttpGet(router_admin, "/statz", &code);
  return code == 200 &&
         CountOccurrences(body, "\"state\":\"active\"") == n &&
         CountOccurrences(body, "\"healthy\":true") == n;
}

bool SendRange(LiveClient* client, const std::vector<StreamEvent>& events,
               size_t begin, size_t end, WatermarkTracker* tracker,
               uint64_t wm_every, std::string* batch) {
  for (size_t i = begin; i < end; ++i) {
    tracker->Observe(events[i].tuple.ts);
    AppendTupleFrame(batch, events[i]);
    if ((i + 1) % wm_every == 0) {
      AppendWatermarkFrame(batch, tracker->watermark());
    }
    if (batch->size() >= 32 * 1024) {
      if (!client->Send(*batch)) return false;
      batch->clear();
    }
  }
  if (!batch->empty()) {
    if (!client->Send(*batch)) return false;
    batch->clear();
  }
  return true;
}

using BaseKey = std::tuple<Timestamp, Key, double>;

BaseKey KeyOf(const Tuple& base) {
  return BaseKey(base.ts, base.key, base.payload);
}

struct Observed {
  uint64_t match_count = 0;
  double aggregate = 0.0;
};

/// Union-dedupes the client's result stream. A recovered backend
/// re-emits already-finalized bases (at-least-once delivery); in the
/// exact regime the re-emission must agree byte-for-byte.
void Accumulate(const std::vector<JoinResult>& results, bool dups_must_agree,
                std::map<BaseKey, Observed>* acc) {
  for (const JoinResult& r : results) {
    const BaseKey k = KeyOf(r.base);
    auto it = acc->find(k);
    if (it == acc->end()) {
      (*acc)[k] = Observed{r.match_count, r.aggregate};
    } else if (dups_must_agree) {
      EXPECT_EQ(it->second.match_count, r.match_count)
          << "re-emitted base ts=" << r.base.ts << " key=" << r.base.key
          << " changed its match count across the crash";
      EXPECT_NEAR(it->second.aggregate, r.aggregate, 1e-6);
    } else if (r.match_count > it->second.match_count) {
      it->second = Observed{r.match_count, r.aggregate};
    }
  }
}

std::map<BaseKey, Observed> OracleIndex(
    const std::vector<ReferenceResult>& expected) {
  std::map<BaseKey, Observed> idx;
  for (const ReferenceResult& r : expected) {
    idx[KeyOf(r.base)] = Observed{r.match_count, r.aggregate};
  }
  return idx;
}

struct ClusterWorkload {
  WorkloadSpec workload;
  QuerySpec query;
  std::vector<StreamEvent> events;
  std::vector<ReferenceResult> expected;
  size_t crash_at = 0;
};

ClusterWorkload BuildWorkload(uint64_t tuples, uint64_t wm_every,
                              bool crash_on_boundary) {
  ClusterWorkload out;
  EXPECT_TRUE(FindPreset("default", &out.workload));
  out.workload.total_tuples = tuples;
  out.query.window = out.workload.window;
  out.query.lateness_us = out.workload.lateness_us;
  out.query.emit_mode = EmitMode::kWatermark;
  out.events = Generate(out.workload);
  out.expected = ReferenceJoinWithPolicy(out.events, out.query, wm_every);
  out.crash_at = out.events.size() / 2;
  if (crash_on_boundary) {
    out.crash_at = (out.crash_at / wm_every) * wm_every;
  } else {
    out.crash_at += 17;
  }
  return out;
}

std::string BackendsFlag(const Proc& a, const Proc& b) {
  return "127.0.0.1:" + std::to_string(a.data_port()) + ":" +
         std::to_string(a.admin_port()) + ",127.0.0.1:" +
         std::to_string(b.data_port()) + ":" +
         std::to_string(b.admin_port());
}

// ------------------------------------------ per_batch: crash-exact

/// The acceptance-bar test: two durable-exact backends behind the
/// router, one SIGKILLed on a watermark boundary mid-run, traffic
/// continuing through the outage (the dead backend's keys queue in its
/// replay buffer; the cluster watermark stalls at its last ack), the
/// backend restarted over the same WAL directory, the run finished.
/// One client, one connection, the whole time. The union of everything
/// it received must equal the reference oracle exactly.
TEST(ClusterIntegrationTest, PerBatchBackendKillNineThroughRouterIsExact) {
  if (ServerBinary() == nullptr || RouterBinary() == nullptr) {
    GTEST_SKIP() << "OIJ_SERVER_BIN / OIJ_ROUTER_BIN not set";
  }
  constexpr uint64_t kWmEvery = 64;
  const ClusterWorkload w =
      BuildWorkload(6'000, kWmEvery, /*crash_on_boundary=*/true);
  TempDir dir_a;
  TempDir dir_b;

  const auto backend_args = [](const std::string& wal_dir) {
    return std::vector<std::string>{
        "--workload", "default",   "--engine",         "scale-oij",
        "--joiners",  "2",         "--wal-dir",        wal_dir,
        "--fsync",    "per_batch", "--snapshot-every", "2048",
        "--recover-to-watermark"};
  };

  Proc backend_a;
  Proc backend_b;
  ASSERT_TRUE(backend_a.Spawn(ServerBinary(), backend_args(dir_a.path())));
  ASSERT_TRUE(backend_b.Spawn(ServerBinary(), backend_args(dir_b.path())));

  Proc router;
  ASSERT_TRUE(router.Spawn(
      RouterBinary(),
      {"--backends", BackendsFlag(backend_a, backend_b),
       "--backoff-base-ms", "20", "--backoff-max-ms", "200",
       "--health-interval-ms", "100", "--healthy-threshold", "2"}))
      << "oij_router failed to start";
  ASSERT_TRUE(WaitUntil([&] {
    return StatzNumberOr(router.admin_port(), "backend_connects", 0) >= 2;
  })) << "backends never activated";

  std::map<BaseKey, Observed> got;
  LiveClient client(router.data_port());
  std::string batch;
  AppendControlFrame(&batch, FrameType::kSubscribe);
  WatermarkTracker tracker(w.query.lateness_us);
  ASSERT_TRUE(SendRange(&client, w.events, 0, w.crash_at, &tracker, kWmEvery,
                        &batch));

  // Quiesce before the kill: every sent tuple routed, every broadcast
  // watermark acked by both backends (per_batch syncs the WAL before
  // acking, so everything the router has trimmed is durable), both
  // backends' WALs fully synced, and every fanned result delivered.
  const auto quiesced = [&] {
    int code = 0;
    const std::string body = HttpGet(router.admin_port(), "/statz", &code);
    double tuples_in = -1, fanned = -1, cluster_wm = -1, min_acked = -2;
    if (code != 200 || !StatzNumber(body, "tuples_in", &tuples_in) ||
        !StatzNumber(body, "results_fanned", &fanned) ||
        !StatzNumber(body, "cluster_watermark", &cluster_wm) ||
        !StatzNumber(body, "min_backend_acked", &min_acked)) {
      return false;
    }
    for (const Proc* backend : {&backend_a, &backend_b}) {
      const double appended =
          StatzNumberOr(backend->admin_port(), "appended_records", -1);
      const double synced =
          StatzNumberOr(backend->admin_port(), "synced_records", -2);
      if (appended <= 0 || appended != synced) return false;
    }
    return tuples_in == static_cast<double>(w.crash_at) &&
           cluster_wm == min_acked &&
           static_cast<double>(client.ResultCount()) == fanned;
  };
  ASSERT_TRUE(WaitUntil([&] {
    if (!quiesced()) return false;
    const size_t before = client.ResultCount();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return quiesced() && client.ResultCount() == before;
  })) << "cluster never quiesced before the kill";

  const double stall_wm =
      StatzNumberOr(router.admin_port(), "cluster_watermark", -1);
  const uint16_t a_data_port = backend_a.data_port();
  const uint16_t a_admin_port = backend_a.admin_port();

  // kill -9 one backend; the router must stay up and the client's
  // connection must survive.
  backend_a.Kill(SIGKILL);
  backend_a.WaitExit();
  ASSERT_TRUE(WaitUntil([&] {
    return StatzNumberOr(router.admin_port(), "backend_disconnects", 0) >= 1;
  }));

  // Keep sending through the outage: the dead backend's keys stick.
  ASSERT_TRUE(SendRange(&client, w.events, w.crash_at, w.events.size(),
                        &tracker, kWmEvery, &batch));
  ASSERT_TRUE(WaitUntil([&] {
    return StatzNumberOr(router.admin_port(), "tuples_in", 0) ==
           static_cast<double>(w.events.size());
  }));
  {
    int code = 0;
    HttpGet(router.admin_port(), "/healthz", &code);
    EXPECT_EQ(code, 200) << "router went unhealthy during a backend outage";
    EXPECT_FALSE(client.ReaderExited()) << "client connection dropped";
    EXPECT_GT(StatzNumberOr(router.admin_port(), "tuples_queued_sticky", 0),
              0.0)
        << "dead durable backend's keys did not stick";
    EXPECT_EQ(StatzNumberOr(router.admin_port(), "tuples_failed_over", -1),
              0.0);
    EXPECT_EQ(StatzNumberOr(router.admin_port(), "tuples_dropped", -1), 0.0);
    // The cluster watermark stalls at the dead backend's last ack — it
    // must neither advance past it nor regress.
    EXPECT_EQ(StatzNumberOr(router.admin_port(), "cluster_watermark", -1),
              stall_wm);
  }

  // Restart the backend over the same WAL directory and the same ports
  // the router was configured with. Recovery truncates to the watermark
  // cut and advertises it; the router replays the un-acked suffix.
  auto restart_args = backend_args(dir_a.path());
  restart_args.push_back("--port");
  restart_args.push_back(std::to_string(a_data_port));
  restart_args.push_back("--admin-port");
  restart_args.push_back(std::to_string(a_admin_port));
  Proc backend_a2;
  ASSERT_TRUE(backend_a2.Spawn(ServerBinary(), restart_args))
      << "backend restart failed";
  ASSERT_TRUE(WaitUntil([&] {
    return StatzNumberOr(router.admin_port(), "replayed_tuples", 0) > 0;
  })) << "router never replayed the queued suffix";
  ASSERT_TRUE(WaitUntil([&] {
    return StatzNumberOr(router.admin_port(), "cluster_watermark", -1) >
           stall_wm;
  })) << "cluster watermark never advanced past the stall";
  EXPECT_EQ(StatzNumberOr(router.admin_port(), "replay_dropped_tuples", -1),
            0.0);

  // Finish only once the checker has readmitted both backends (finish
  // broadcasts to eligible backends only).
  ASSERT_TRUE(WaitUntil(
      [&] { return AllBackendsEligible(router.admin_port(), 2); }));
  AppendControlFrame(&batch, FrameType::kFinish);
  ASSERT_TRUE(client.Send(batch));
  client.JoinReader();
  ASSERT_TRUE(client.errors().empty())
      << "router error: " << client.errors().front();
  ASSERT_FALSE(client.summary().empty()) << "no cluster summary";
  EXPECT_NE(client.summary().find("cluster run: 2 backend(s)"),
            std::string::npos)
      << client.summary();
  EXPECT_EQ(client.summary().find("unreachable"), std::string::npos)
      << client.summary();

  // The punctuation the client saw must be strictly increasing across
  // the whole eject/replay/readmit cycle.
  for (size_t i = 1; i < client.watermarks().size(); ++i) {
    EXPECT_GT(client.watermarks()[i], client.watermarks()[i - 1])
        << "cluster watermark regressed at punctuation " << i;
  }

  // Exactness across the crash: same bases, same counts, same
  // aggregates as the uninterrupted single-node oracle.
  Accumulate(client.results(), /*dups_must_agree=*/true, &got);
  const auto oracle = OracleIndex(w.expected);
  ASSERT_GT(got.size(), 0u);
  ASSERT_EQ(got.size(), oracle.size())
      << "cluster run finalized a different set of bases";
  for (const auto& [key, want] : oracle) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end())
        << "oracle base ts=" << std::get<0>(key) << " key=" << std::get<1>(key)
        << " never emitted";
    EXPECT_EQ(it->second.match_count, want.match_count)
        << "base ts=" << std::get<0>(key) << " key=" << std::get<1>(key);
    EXPECT_NEAR(it->second.aggregate, want.aggregate, 1e-6);
  }
}

// ------------------------------------- non-durable: bounded failover

/// Without durable-exact backends the router fails a dead backend's
/// keys over to the ring survivor. Loss is allowed — the survivor never
/// saw the dead partition's earlier tuples — but the stream must stay
/// within the bound: every emitted base exists in the oracle with a
/// match count no larger than the oracle's, and nothing is fabricated.
TEST(ClusterIntegrationTest, NonDurableBackendLossFailsOverWithinBound) {
  if (ServerBinary() == nullptr || RouterBinary() == nullptr) {
    GTEST_SKIP() << "OIJ_SERVER_BIN / OIJ_ROUTER_BIN not set";
  }
  constexpr uint64_t kWmEvery = 64;
  const ClusterWorkload w =
      BuildWorkload(4'000, kWmEvery, /*crash_on_boundary=*/false);

  const std::vector<std::string> backend_args = {
      "--workload", "default", "--engine", "scale-oij", "--joiners", "2"};
  Proc backend_a;
  Proc backend_b;
  ASSERT_TRUE(backend_a.Spawn(ServerBinary(), backend_args));
  ASSERT_TRUE(backend_b.Spawn(ServerBinary(), backend_args));

  Proc router;
  ASSERT_TRUE(router.Spawn(
      RouterBinary(),
      {"--backends", BackendsFlag(backend_a, backend_b),
       "--backoff-base-ms", "20", "--backoff-max-ms", "200",
       "--health-interval-ms", "100", "--finish-timeout-ms", "2000"}));
  ASSERT_TRUE(WaitUntil([&] {
    return StatzNumberOr(router.admin_port(), "backend_connects", 0) >= 2;
  }));

  LiveClient client(router.data_port());
  std::string batch;
  AppendControlFrame(&batch, FrameType::kSubscribe);
  WatermarkTracker tracker(w.query.lateness_us);
  ASSERT_TRUE(SendRange(&client, w.events, 0, w.crash_at, &tracker, kWmEvery,
                        &batch));
  ASSERT_TRUE(WaitUntil([&] {
    return StatzNumberOr(router.admin_port(), "tuples_in", 0) ==
           static_cast<double>(w.crash_at);
  }));

  backend_a.Kill(SIGKILL);
  backend_a.WaitExit();
  ASSERT_TRUE(WaitUntil([&] {
    return StatzNumberOr(router.admin_port(), "backend_disconnects", 0) >= 1;
  }));

  ASSERT_TRUE(SendRange(&client, w.events, w.crash_at, w.events.size(),
                        &tracker, kWmEvery, &batch));
  ASSERT_TRUE(WaitUntil([&] {
    return StatzNumberOr(router.admin_port(), "tuples_in", 0) ==
           static_cast<double>(w.events.size());
  }));
  {
    int code = 0;
    HttpGet(router.admin_port(), "/healthz", &code);
    EXPECT_EQ(code, 200) << "one survivor should keep the router healthy";
    EXPECT_FALSE(client.ReaderExited()) << "client connection dropped";
    EXPECT_GT(StatzNumberOr(router.admin_port(), "tuples_failed_over", 0),
              0.0)
        << "dead non-durable backend's keys did not fail over";
    EXPECT_EQ(StatzNumberOr(router.admin_port(), "tuples_dropped", -1), 0.0);
  }

  // Finish with the dead backend still gone: the barrier times out and
  // the summary marks it unreachable.
  AppendControlFrame(&batch, FrameType::kFinish);
  ASSERT_TRUE(client.Send(batch));
  client.JoinReader();
  ASSERT_TRUE(client.errors().empty())
      << "router error: " << client.errors().front();
  ASSERT_FALSE(client.summary().empty());
  EXPECT_NE(client.summary().find("unreachable"), std::string::npos)
      << client.summary();

  // Bounded loss: a (deduped) subset of the oracle, never a fabricated
  // base, never an inflated match count — and not the empty stream.
  std::map<BaseKey, Observed> got;
  Accumulate(client.results(), /*dups_must_agree=*/false, &got);
  const auto oracle = OracleIndex(w.expected);
  EXPECT_GT(got.size(), 0u) << "failover produced no results at all";
  EXPECT_LE(got.size(), oracle.size());
  for (const auto& [key, seen] : got) {
    const auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end())
        << "fabricated result: base ts=" << std::get<0>(key)
        << " key=" << std::get<1>(key) << " is not in the oracle";
    EXPECT_LE(seen.match_count, it->second.match_count)
        << "base ts=" << std::get<0>(key) << " key=" << std::get<1>(key)
        << " overcounted after failover";
  }
}

// --------------------------------- loadgen reconnect accounting

/// Regression for the --targets reconnect double-count: a batch whose
/// send fails midway used to fold into `lost` even though the kernel
/// may have delivered a prefix the server then processed — reconciling
/// the merged client report against server receipts counted those
/// tuples twice. Now every target partitions its share exactly into
/// sent + lost + in_doubt, the merged report prints the identity, and
/// the never-killed target reconciles against its server's tuples_in
/// to the tuple.
TEST(ClusterIntegrationTest, LoadgenMultiTargetReconnectAccountingIsExact) {
  if (ServerBinary() == nullptr || LoadgenBinary() == nullptr) {
    GTEST_SKIP() << "OIJ_SERVER_BIN / OIJ_LOADGEN_BIN not set";
  }
  const std::vector<std::string> backend_args = {
      "--workload", "default", "--engine", "scale-oij", "--joiners", "2"};
  Proc backend_a;
  Proc backend_b;
  ASSERT_TRUE(backend_a.Spawn(ServerBinary(), backend_args));
  ASSERT_TRUE(backend_b.Spawn(ServerBinary(), backend_args));
  const uint16_t a_data_port = backend_a.data_port();
  const uint16_t b_data_port = backend_b.data_port();
  const uint16_t b_admin_port = backend_b.admin_port();

  // ~6 s paced run: each slot drives 18k tuples at 3k/s, one 256-tuple
  // batch every ~85 ms, so a 500 ms outage fails several batches.
  constexpr uint64_t kTuples = 36'000;
  const std::string targets = "127.0.0.1:" + std::to_string(a_data_port) +
                              ",127.0.0.1:" + std::to_string(b_data_port);
  LoadgenRun loadgen;
  ASSERT_TRUE(StartLoadgen({"--targets", targets, "--tuples", "36000",
                            "--rate", "6000", "--wm-every", "256"},
                           &loadgen));

  // kill -9 one target mid-run, hold it down long enough that slot-b
  // sends fail, then restart it on the same ports so the reconnect and
  // the finish handshake both succeed.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  backend_b.Kill(SIGKILL);
  backend_b.WaitExit();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  auto restart_args = backend_args;
  restart_args.push_back("--port");
  restart_args.push_back(std::to_string(b_data_port));
  restart_args.push_back("--admin-port");
  restart_args.push_back(std::to_string(b_admin_port));
  Proc backend_b2;
  ASSERT_TRUE(backend_b2.Spawn(ServerBinary(), restart_args))
      << "backend restart failed";

  std::string out;
  const int status = FinishLoadgen(&loadgen, &out);
  ASSERT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << out;

  // Merged totals partition the workload exactly: no tuple double-
  // counted, none unaccounted, across the reconnect.
  uint64_t generated = 0, sent = 0, lost = 0, in_doubt = 0;
  ASSERT_TRUE(ReportNumber(out, "totals:", "generated", &generated)) << out;
  ASSERT_TRUE(ReportNumber(out, "totals:", "sent", &sent)) << out;
  ASSERT_TRUE(ReportNumber(out, "totals:", "lost", &lost)) << out;
  ASSERT_TRUE(ReportNumber(out, "totals:", "in_doubt", &in_doubt)) << out;
  EXPECT_EQ(generated, kTuples) << out;
  EXPECT_EQ(generated, sent + lost + in_doubt) << out;

  // The never-killed target took a clean stream: nothing lost, nothing
  // in doubt, and its server received exactly what the client counted
  // as sent (the pre-fix code could not make this reconciliation).
  const std::string a_prefix =
      "target 127.0.0.1:" + std::to_string(a_data_port) + ":";
  uint64_t a_generated = 0, a_sent = 0, a_lost = 0, a_in_doubt = 0;
  ASSERT_TRUE(ReportNumber(out, a_prefix, "generated", &a_generated)) << out;
  ASSERT_TRUE(ReportNumber(out, a_prefix, "sent", &a_sent)) << out;
  ASSERT_TRUE(ReportNumber(out, a_prefix, "lost", &a_lost)) << out;
  ASSERT_TRUE(ReportNumber(out, a_prefix, "in_doubt", &a_in_doubt)) << out;
  EXPECT_EQ(a_lost, 0u) << out;
  EXPECT_EQ(a_in_doubt, 0u) << out;
  EXPECT_EQ(a_sent, a_generated) << out;
  EXPECT_EQ(StatzNumberOr(backend_a.admin_port(), "tuples_in", -1),
            static_cast<double>(a_sent))
      << "server receipts disagree with the client's sent count";

  // The killed target actually exercised the reconnect path and still
  // balances its own share.
  const std::string b_prefix =
      "target 127.0.0.1:" + std::to_string(b_data_port) + ":";
  uint64_t b_generated = 0, b_sent = 0, b_lost = 0, b_in_doubt = 0;
  uint64_t b_reconnects = 0;
  ASSERT_TRUE(ReportNumber(out, b_prefix, "generated", &b_generated)) << out;
  ASSERT_TRUE(ReportNumber(out, b_prefix, "sent", &b_sent)) << out;
  ASSERT_TRUE(ReportNumber(out, b_prefix, "lost", &b_lost)) << out;
  ASSERT_TRUE(ReportNumber(out, b_prefix, "in_doubt", &b_in_doubt)) << out;
  ASSERT_TRUE(ReportNumber(out, b_prefix, "reconnects", &b_reconnects))
      << out;
  EXPECT_GT(b_lost + b_in_doubt, 0u)
      << "the outage window never failed a batch: " << out;
  EXPECT_GE(b_reconnects, 1u) << out;
  EXPECT_EQ(b_generated, b_sent + b_lost + b_in_doubt) << out;
}

}  // namespace
}  // namespace oij
