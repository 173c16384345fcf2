// Loopback integration tests for the network serving layer: a real
// OijServer behind real sockets, driven by a blocking client speaking
// the wire protocol. The headline property is end-to-end exactness —
// results streamed over TCP match the policy-aware reference oracle for
// multiple presets and engines — plus the admin plane (/metrics,
// /healthz, /statz) during and after a run, health degradation under an
// injected watermark freeze, and malformed-frame rejection.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "admin_http.h"
#include "common/fault_injector.h"
#include "core/engine_factory.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "net/socket.h"
#include "net/wire_codec.h"
#include "server/server.h"
#include "stream/generator.h"
#include "stream/presets.h"
#include "wal/wal_reader.h"

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

/// Blocking data-plane client with a background reader thread (results
/// stream back while the test is still sending, so reads must be
/// concurrent or the TCP windows deadlock). The collected fields are
/// valid only after JoinReader() returns.
class DataClient {
 public:
  explicit DataClient(uint16_t port) {
    const Status s = ConnectTcp("127.0.0.1", port, &fd_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (fd_ >= 0) reader_ = std::thread(&DataClient::ReadLoop, this);
  }

  ~DataClient() {
    JoinReader();
    CloseFd(fd_);
  }

  bool Send(const std::string& bytes) {
    return SendAll(fd_, bytes.data(), bytes.size()).ok();
  }

  /// Blocks until the server closes the connection (it does after
  /// answering kFinish, after an error, and on Shutdown).
  void JoinReader() {
    if (reader_.joinable()) reader_.join();
  }

  std::vector<JoinResult> results;
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
        if (frame.type == FrameType::kResult) {
          results.push_back(frame.result);
        } else if (frame.type == FrameType::kSummary) {
          summary = frame.text;
        } else if (frame.type == FrameType::kError) {
          errors.push_back(frame.text);
        }
      }
    }
  }

  int fd_ = -1;
  std::thread reader_;
};

/// Replays `events` through a server over loopback with the same
/// observe-then-punctuate watermark cadence the in-process harness and
/// the reference oracle use, and returns the subscribed-to results.
struct NetworkRun {
  std::vector<ReferenceResult> results;
  std::string summary;
  RunResult final_run;
};

NetworkRun RunOverNetwork(EngineKind kind,
                          const std::vector<StreamEvent>& events,
                          const QuerySpec& spec, EngineOptions options,
                          uint64_t wm_every = 256) {
  NetworkRun out;
  ServerConfig config;
  config.engine = kind;
  config.query = spec;
  config.options = options;
  OijServer server(config);
  const Status s = server.Start();
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return out;

  {
    DataClient client(server.data_port());
    std::string batch;
    AppendControlFrame(&batch, FrameType::kSubscribe);
    WatermarkTracker tracker(spec.lateness_us);
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
    EXPECT_TRUE(io_ok) << "tuple send failed";
    AppendControlFrame(&batch, FrameType::kFinish);
    EXPECT_TRUE(client.Send(batch));
    client.JoinReader();

    EXPECT_FALSE(client.corrupt) << "server sent a malformed frame";
    EXPECT_TRUE(client.errors.empty())
        << "server error: " << client.errors.front();
    EXPECT_FALSE(client.summary.empty()) << "no summary frame";
    out.summary = client.summary;
    out.results.reserve(client.results.size());
    for (const JoinResult& r : client.results) {
      out.results.push_back({r.base, r.aggregate, r.match_count});
      // Sanity on the wall-clock stamps the wire carries.
      EXPECT_GE(r.emit_us, r.arrival_us);
    }
  }
  server.Shutdown();
  out.final_run = server.FinalRun();
  SortResults(&out.results);
  return out;
}

void ExpectResultsEqual(const std::vector<ReferenceResult>& got,
                        const std::vector<ReferenceResult>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label << ": result cardinality";
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].base != want[i].base ||
        got[i].match_count != want[i].match_count ||
        (!std::isnan(want[i].aggregate) &&
         std::abs(got[i].aggregate - want[i].aggregate) > 1e-6)) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << label << ": result " << i << " differs: base ts="
                      << got[i].base.ts << " key=" << got[i].base.key
                      << " got(count=" << got[i].match_count
                      << ", agg=" << got[i].aggregate << ") want(count="
                      << want[i].match_count << ", agg="
                      << want[i].aggregate << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

// ------------------------------------------------- end-to-end exactness

/// Results served over TCP must equal the policy-aware reference oracle:
/// (preset, engine) sweep with the workload shrunk to loopback scale.
class LoopbackExactnessTest
    : public ::testing::TestWithParam<std::tuple<const char*, EngineKind>> {};

TEST_P(LoopbackExactnessTest, NetworkRunMatchesReferenceOracle) {
  const auto [preset, kind] = GetParam();
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset(preset, &workload));
  workload.total_tuples = 12'000;

  QuerySpec query;
  query.window = workload.window;
  query.lateness_us = workload.lateness_us;
  query.emit_mode = EmitMode::kWatermark;

  const auto events = Generate(workload);
  constexpr uint64_t kWmEvery = 256;
  auto expected = ReferenceJoinWithPolicy(events, query, kWmEvery);
  SortResults(&expected);

  EngineOptions options;
  options.num_joiners = 3;
  const NetworkRun run =
      RunOverNetwork(kind, events, query, options, kWmEvery);

  const std::string label =
      std::string(preset) + "/" + std::string(EngineKindName(kind));
  ExpectResultsEqual(run.results, expected, label);
  EXPECT_EQ(run.final_run.stats.input_tuples, events.size()) << label;
  EXPECT_EQ(run.final_run.stats.results, expected.size()) << label;
}

INSTANTIATE_TEST_SUITE_P(
    PresetsTimesEngines, LoopbackExactnessTest,
    ::testing::Combine(::testing::Values("default", "A", "D"),
                       ::testing::Values(EngineKind::kScaleOij,
                                         EngineKind::kKeyOij)),
    [](const auto& info) {
      std::string name = std::string(std::get<0>(info.param)) + "_" +
                         std::string(EngineKindName(std::get<1>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ------------------------------------------------------- admin endpoints

TEST(ServerAdminTest, MetricsHealthzStatzDuringAndAfterRun) {
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset("default", &workload));
  workload.total_tuples = 4'000;

  ServerConfig config;
  config.engine = EngineKind::kScaleOij;
  config.query.window = workload.window;
  config.query.lateness_us = workload.lateness_us;
  config.query.emit_mode = EmitMode::kWatermark;
  config.options.num_joiners = 2;
  config.workload_name = "default";
  OijServer server(config);
  ASSERT_TRUE(server.Start().ok());

  int code = 0;
  // Before any traffic: serving, healthy, not finished.
  std::string body = HttpGet(server.admin_port(), "/healthz", &code);
  EXPECT_EQ(code, 200);
  EXPECT_EQ(body, "ok\n");
  body = HttpGet(server.admin_port(), "/statz", &code);
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("\"state\":\"serving\""), std::string::npos) << body;
  body = HttpGet(server.admin_port(), "/", &code);
  EXPECT_EQ(code, 200);
  body = HttpGet(server.admin_port(), "/nope", &code);
  EXPECT_EQ(code, 404);
  body = HttpGet(server.admin_port(), "/metrics", &code, "POST");
  EXPECT_EQ(code, 405);

  const auto events = Generate(workload);
  DataClient client(server.data_port());
  std::string batch;
  WatermarkTracker tracker(config.query.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    AppendTupleFrame(&batch, ev);
    if (++n % 256 == 0) AppendWatermarkFrame(&batch, tracker.watermark());
  }
  ASSERT_TRUE(client.Send(batch));
  ASSERT_TRUE(WaitUntil([&] {
    return server.CountersSnapshot().tuples_in == events.size();
  })) << "server never ingested the batch";

  // Mid-run: counters live, run not finished, still healthy.
  body = HttpGet(server.admin_port(), "/metrics", &code);
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("oij_up{"), std::string::npos);
  EXPECT_NE(body.find("oij_healthy 1"), std::string::npos);
  EXPECT_NE(body.find("oij_run_finished 0"), std::string::npos);
  EXPECT_NE(body.find("oij_ingest_tuples_total " +
                      std::to_string(events.size())),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("oij_engine_accepted_tuples_total"), std::string::npos);
  EXPECT_NE(body.find("oij_joiner_queue_depth{joiner=\"0\"}"),
            std::string::npos);
  body = HttpGet(server.admin_port(), "/healthz", &code);
  EXPECT_EQ(code, 200);

  std::string finish;
  AppendControlFrame(&finish, FrameType::kFinish);
  ASSERT_TRUE(client.Send(finish));
  client.JoinReader();
  EXPECT_FALSE(client.summary.empty());
  ASSERT_TRUE(WaitUntil([&] { return server.run_finished(); }));

  // Post-run: finished flag flips, the run block appears, histogram and
  // quantile gauges render, healthz stays green.
  body = HttpGet(server.admin_port(), "/metrics", &code);
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("oij_run_finished 1"), std::string::npos);
  EXPECT_NE(body.find("oij_run_input_tuples_total " +
                      std::to_string(events.size())),
            std::string::npos);
  EXPECT_NE(body.find("oij_result_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(body.find("oij_result_latency_quantile_us{quantile=\"0.99\"}"),
            std::string::npos);
  body = HttpGet(server.admin_port(), "/healthz", &code);
  EXPECT_EQ(code, 200);
  body = HttpGet(server.admin_port(), "/statz", &code);
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("\"state\":\"finished\""), std::string::npos);

  server.Shutdown();
}

TEST(ServerAdminTest, MalformedHttpRequestGets400) {
  ServerConfig config;
  config.options.num_joiners = 1;
  OijServer server(config);
  ASSERT_TRUE(server.Start().ok());

  int fd = -1;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server.admin_port(), &fd).ok());
  const std::string junk = "NOT-HTTP\r\n\r\n";
  ASSERT_TRUE(SendAll(fd, junk.data(), junk.size()).ok());
  std::string response;
  char buf[4096];
  int64_t n;
  while ((n = RecvSome(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  CloseFd(fd);
  EXPECT_NE(response.find(" 400 "), std::string::npos) << response;
  server.Shutdown();
}

// ------------------------------------------------ query catalog endpoint

/// The standing-query admin surface: POST /queries adds, GET /queries
/// lists, DELETE /queries/<id> removes — and every malformed, duplicate,
/// or otherwise invalid spec is refused with a structured JSON error
/// body and the right status code, leaving the catalog untouched.
TEST(ServerAdminTest, QueryEndpointAddsListsRejectsAndRemoves) {
  ServerConfig config;
  config.engine = EngineKind::kScaleOij;
  config.query.window = IntervalWindow{400, 0};
  config.query.lateness_us = 50;
  config.query.emit_mode = EmitMode::kWatermark;
  config.options.num_joiners = 2;
  OijServer server(config);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.admin_port();
  int code = 0;

  // Happy path, then the listing shows primary + the new query.
  std::string body = HttpSend(
      port, "POST", "/queries",
      "{\"id\":\"q1\",\"pre\":200,\"fol\":0,\"agg\":\"count\"}", &code);
  EXPECT_EQ(code, 200) << body;
  EXPECT_NE(body.find("\"added\":\"q1\""), std::string::npos) << body;
  body = HttpGet(port, "/queries", &code);
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("\"id\":\"main\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"id\":\"q1\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"agg\":\"count\""), std::string::npos) << body;

  // Every rejection carries {"error":{"code":...,"message":...}}.
  const auto expect_error = [&](const std::string& reply, int got_code,
                                int want_code, const std::string& want_text) {
    EXPECT_EQ(got_code, want_code) << reply;
    EXPECT_NE(reply.find("\"error\":{\"code\":\""), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("\"message\":\""), std::string::npos) << reply;
    EXPECT_NE(reply.find(want_text), std::string::npos) << reply;
  };

  body = HttpSend(port, "POST", "/queries",
                  "{\"id\":\"q1\",\"pre\":100}", &code);
  expect_error(body, code, 400, "already exists");
  body = HttpSend(port, "POST", "/queries", "{\"id\":\"x\"", &code);
  expect_error(body, code, 400, "malformed");
  body = HttpSend(port, "POST", "/queries", "not json at all", &code);
  expect_error(body, code, 400, "JSON object");
  body = HttpSend(port, "POST", "/queries", "{\"pre\":100}", &code);
  expect_error(body, code, 400, "missing required field 'id'");
  body = HttpSend(port, "POST", "/queries",
                  "{\"id\":\"x\",\"weird\":1}", &code);
  expect_error(body, code, 400, "unknown field 'weird'");
  body = HttpSend(port, "POST", "/queries",
                  "{\"id\":\"x\",\"id\":\"y\"}", &code);
  expect_error(body, code, 400, "duplicate field 'id'");
  body = HttpSend(port, "POST", "/queries",
                  "{\"id\":\"x\",\"pre\":-5}", &code);
  expect_error(body, code, 400, "non-negative");
  body = HttpSend(port, "POST", "/queries",
                  "{\"id\":\"x\",\"agg\":\"median\"}", &code);
  expect_error(body, code, 400, "unknown aggregate");
  // The shared index pins lateness and emit mode to the primary's.
  body = HttpSend(port, "POST", "/queries",
                  "{\"id\":\"x\",\"lateness\":999}", &code);
  expect_error(body, code, 400, "must match the primary");
  body = HttpSend(port, "POST", "/queries",
                  "{\"id\":\"x\",\"emit\":\"eager\"}", &code);
  expect_error(body, code, 400, "must match the primary");

  // None of the rejects touched the catalog.
  body = HttpGet(port, "/queries", &code);
  EXPECT_EQ(code, 200);
  EXPECT_EQ(body.find("\"id\":\"x\""), std::string::npos) << body;

  // Removal: unknown id is 404, the primary is pinned, a real remove
  // flips the row inactive but keeps it listed.
  body = HttpSend(port, "DELETE", "/queries/ghost", "", &code);
  expect_error(body, code, 404, "NotFound");
  body = HttpSend(port, "DELETE", "/queries/main", "", &code);
  expect_error(body, code, 400, "primary");
  body = HttpSend(port, "DELETE", "/queries/q1", "", &code);
  EXPECT_EQ(code, 200) << body;
  EXPECT_NE(body.find("\"removed\":\"q1\""), std::string::npos) << body;
  body = HttpSend(port, "DELETE", "/queries/q1", "", &code);
  EXPECT_NE(code, 0) << "admin port unreachable";
  EXPECT_NE(code, 200) << "second remove of the same id must fail";
  body = HttpGet(port, "/queries", &code);
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("\"active\":false"), std::string::npos) << body;

  server.Shutdown();
}

TEST(ServerAdminTest, QuerySpecIntegersMustFitInt64) {
  const QuerySpec defaults;
  std::string id;
  QuerySpec spec;
  ASSERT_TRUE(ParseQuerySpecJson(
                  "{\"id\":\"q\",\"pre\":-5,\"fol\":9223372036854775807}",
                  defaults, &id, &spec)
                  .ok());
  EXPECT_EQ(spec.window.pre, -5);
  EXPECT_EQ(spec.window.fol, INT64_MAX);
  for (const char* pre : {"9223372036854775808", "-", "+5", "x1"}) {
    const Status s = ParseQuerySpecJson(
        std::string("{\"id\":\"q\",\"pre\":") + pre + "}", defaults, &id,
        &spec);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << pre;
    EXPECT_NE(s.message().find("'pre' must be an integer"), std::string::npos)
        << pre << ": " << s.ToString();
  }
}

TEST(ServerAdminTest, CatalogRefusedWhileRecoveringIs503) {
  const std::string reply = BuildQueryErrorResponse(
      Status::Unavailable("engine recovering; retry later"));
  EXPECT_EQ(reply.rfind("HTTP/1.0 503 ", 0), 0u) << reply;
  EXPECT_NE(reply.find("\r\n\r\n{\"error\":{\"code\":\"Unavailable\","
                       "\"message\":\"engine recovering; retry later\"}}\n"),
            std::string::npos)
      << reply;
}

// ------------------------------------------------- health under injection

/// A frozen watermark (fault-injected) must surface on /healthz as 503
/// once the watchdog escalates — the network-visible version of the
/// fault_injection_test abort path.
TEST(ServerHealthTest, HealthzFlips503UnderWatermarkFreeze) {
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset("default", &workload));
  workload.total_tuples = 2'000;

  FaultInjector faults;
  faults.freeze_watermarks_after = 2;

  ServerConfig config;
  config.engine = EngineKind::kScaleOij;
  config.query.window = workload.window;
  config.query.lateness_us = workload.lateness_us;
  config.query.emit_mode = EmitMode::kWatermark;
  config.options.num_joiners = 2;
  config.options.fault_injector = &faults;
  config.options.watchdog.interval_ms = 10;
  config.options.watchdog.watermark_freeze_intervals = 3;
  config.options.watchdog.abort_on_watermark_freeze = true;
  OijServer server(config);
  ASSERT_TRUE(server.Start().ok());

  int code = 0;
  HttpGet(server.admin_port(), "/healthz", &code);
  EXPECT_EQ(code, 200) << "healthy before the freeze engages";

  const auto events = Generate(workload);
  DataClient client(server.data_port());
  std::string batch;
  WatermarkTracker tracker(config.query.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    AppendTupleFrame(&batch, ev);
    if (++n % 64 == 0) AppendWatermarkFrame(&batch, tracker.watermark());
  }
  ASSERT_TRUE(client.Send(batch));

  // Freeze detection needs input advancing while punctuation stays
  // frozen, so keep both tuples and (swallowed) watermarks coming while
  // the watchdog samples.
  Timestamp filler_ts = tracker.watermark();
  const bool flipped = WaitUntil([&] {
    std::string more;
    StreamEvent filler;
    filler.stream = StreamId::kProbe;
    filler.tuple.ts = ++filler_ts;
    AppendTupleFrame(&more, filler);
    AppendWatermarkFrame(&more, tracker.watermark());
    client.Send(more);
    int c = 0;
    HttpGet(server.admin_port(), "/healthz", &c);
    return c == 503;
  });
  EXPECT_TRUE(flipped) << "healthz never reported the frozen watermark";

  const std::string metrics = HttpGet(server.admin_port(), "/metrics", &code);
  EXPECT_EQ(code, 200);
  EXPECT_NE(metrics.find("oij_healthy 0"), std::string::npos);

  server.Shutdown();
  client.JoinReader();
}

// ----------------------------------------------------- protocol rejection

TEST(ServerProtocolTest, GarbageFrameGetsErrorAndCleanCloseAndIsCounted) {
  ServerConfig config;
  config.options.num_joiners = 1;
  OijServer server(config);
  ASSERT_TRUE(server.Start().ok());

  {
    DataClient client(server.data_port());
    std::string junk;
    junk.push_back(1);
    junk.append(3, '\0');
    junk.push_back(static_cast<char>(0x7f));  // unknown frame type
    ASSERT_TRUE(client.Send(junk));
    client.JoinReader();  // server must close after the error frame
    ASSERT_EQ(client.errors.size(), 1u);
    EXPECT_NE(client.errors[0].find("unknown frame type"), std::string::npos)
        << client.errors[0];
  }
  EXPECT_EQ(server.CountersSnapshot().frames_rejected, 1u);

  {
    // An oversized length prefix dies before any payload arrives.
    DataClient client(server.data_port());
    std::string huge(4, '\0');
    huge[3] = static_cast<char>(0x7f);  // ~2 GB little-endian length
    ASSERT_TRUE(client.Send(huge));
    client.JoinReader();
    ASSERT_EQ(client.errors.size(), 1u);
  }
  EXPECT_EQ(server.CountersSnapshot().frames_rejected, 2u);

  int code = 0;
  const std::string body = HttpGet(server.admin_port(), "/metrics", &code);
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("oij_frames_rejected_total 2"), std::string::npos);
  server.Shutdown();
}

TEST(ServerProtocolTest, TupleAfterFinishIsRejected) {
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset("default", &workload));
  workload.total_tuples = 500;

  ServerConfig config;
  config.query.window = workload.window;
  config.query.lateness_us = workload.lateness_us;
  config.query.emit_mode = EmitMode::kWatermark;
  config.options.num_joiners = 1;
  OijServer server(config);
  ASSERT_TRUE(server.Start().ok());

  {
    DataClient client(server.data_port());
    std::string batch;
    for (const StreamEvent& ev : Generate(workload)) {
      AppendTupleFrame(&batch, ev);
    }
    AppendControlFrame(&batch, FrameType::kFinish);
    ASSERT_TRUE(client.Send(batch));
    client.JoinReader();
    EXPECT_FALSE(client.summary.empty());
  }
  ASSERT_TRUE(server.run_finished());

  DataClient late(server.data_port());
  std::string tuple;
  StreamEvent ev;
  ev.tuple.ts = 1;
  AppendTupleFrame(&tuple, ev);
  ASSERT_TRUE(late.Send(tuple));
  late.JoinReader();
  ASSERT_EQ(late.errors.size(), 1u);
  EXPECT_NE(late.errors[0].find("finalized"), std::string::npos);

  // A second kFinish from a latecomer still gets the stored summary.
  DataClient again(server.data_port());
  std::string fin;
  AppendControlFrame(&fin, FrameType::kFinish);
  ASSERT_TRUE(again.Send(fin));
  again.JoinReader();
  EXPECT_FALSE(again.summary.empty());

  server.Shutdown();
}

// ------------------------------------------------------ durability drain

/// Shutdown() (the SIGINT/SIGTERM path in tools/oij_server.cc) must run
/// the engine's Sync() barrier before finalizing: with the WAL on
/// --fsync none nothing else flushes the log, so every accepted record
/// being readable back from disk proves the barrier ran. Also pins the
/// admin-plane durability surfaces while the run is live.
TEST(ServerDurabilityTest, ShutdownDrainSyncsWalUnderFsyncNone) {
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset("default", &workload));
  workload.total_tuples = 2'000;

  char tmpl[] = "/tmp/oij_server_wal_XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);

  ServerConfig config;
  config.engine = EngineKind::kKeyOij;
  config.query.window = workload.window;
  config.query.lateness_us = workload.lateness_us;
  config.query.emit_mode = EmitMode::kWatermark;
  config.options.num_joiners = 2;
  config.options.durability.wal_dir = dir;
  config.options.durability.fsync = FsyncPolicy::kNone;
  OijServer server(config);
  ASSERT_TRUE(server.Start().ok());

  const auto events = Generate(workload);
  constexpr uint64_t kWmEvery = 128;
  uint64_t watermarks_sent = 0;
  {
    DataClient client(server.data_port());
    std::string batch;
    WatermarkTracker tracker(config.query.lateness_us);
    uint64_t n = 0;
    for (const StreamEvent& ev : events) {
      tracker.Observe(ev.tuple.ts);
      AppendTupleFrame(&batch, ev);
      if (++n % kWmEvery == 0) {
        AppendWatermarkFrame(&batch, tracker.watermark());
        ++watermarks_sent;
      }
    }
    ASSERT_TRUE(client.Send(batch));  // no kFinish: drain an open run
    ASSERT_TRUE(WaitUntil([&] {
      return server.CountersSnapshot().tuples_in == events.size();
    }));

    // Live admin plane carries the WAL block once durability is on.
    int code = 0;
    std::string body = HttpGet(server.admin_port(), "/metrics", &code);
    EXPECT_EQ(code, 200);
    EXPECT_NE(body.find("oij_wal_appended_bytes"), std::string::npos);
    EXPECT_NE(body.find("oij_wal_fsyncs_total"), std::string::npos);
    body = HttpGet(server.admin_port(), "/statz", &code);
    EXPECT_EQ(code, 200);
    EXPECT_NE(body.find("\"wal\":{"), std::string::npos) << body;

    server.Shutdown();
    client.JoinReader();
  }

  WalReplayPlan plan;
  const Status s = BuildReplayPlan(dir, &plan);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(plan.torn_tails, 0u);
  uint64_t tuple_records = 0, watermark_records = 0;
  for (const WalReplayRecord& r : plan.records) {
    if (r.is_watermark) {
      ++watermark_records;
    } else {
      ++tuple_records;
    }
  }
  EXPECT_EQ(tuple_records, events.size())
      << "Shutdown() dropped accepted records despite the Sync barrier";
  EXPECT_EQ(watermark_records, watermarks_sent);

  const std::string cleanup = std::string("rm -rf '") + dir + "'";
  EXPECT_EQ(std::system(cleanup.c_str()), 0);
}

// ---------------------------------------------------- hello handshake

/// DataClient plus the handshake surfaces: the kHello reply and the
/// kWatermarkAck stream a hello'd peer may request.
class HandshakeClient {
 public:
  explicit HandshakeClient(uint16_t port) {
    const Status s = ConnectTcp("127.0.0.1", port, &fd_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (fd_ >= 0) reader_ = std::thread(&HandshakeClient::ReadLoop, this);
  }

  ~HandshakeClient() {
    JoinReader();
    CloseFd(fd_);
  }

  bool Send(const std::string& bytes) {
    return SendAll(fd_, bytes.data(), bytes.size()).ok();
  }

  void JoinReader() {
    if (reader_.joinable()) reader_.join();
  }

  std::vector<HelloInfo> hellos;
  std::vector<std::pair<Timestamp, uint64_t>> acks;  // (watermark, tuples)
  std::vector<JoinResult> results;
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
          case FrameType::kHello:
            hellos.push_back(frame.hello);
            break;
          case FrameType::kWatermarkAck:
            acks.emplace_back(frame.watermark, frame.ack_tuples);
            break;
          case FrameType::kResult:
            results.push_back(frame.result);
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

constexpr EngineKind kAllEngines[] = {EngineKind::kKeyOij,
                                      EngineKind::kScaleOij,
                                      EngineKind::kSplitJoin,
                                      EngineKind::kSharedState};

/// True when `dir` holds at least one WAL segment (wal-*.log).
bool HasWalSegment(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".log")) return true;
  }
  return false;
}

/// A hello'd peer that requests acks gets exactly one kWatermarkAck per
/// applied watermark, in order, with a nondecreasing tuple count — and
/// a durable-exact server (per_batch + recover-to-watermark) advertises
/// that in its hello reply, which is what the router's sticky-replay
/// decision keys on. Every engine logs, so every engine qualifies.
TEST(ServerHandshakeTest, HelloNegotiatesAcksAndDurableExactFlag) {
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset("default", &workload));
  workload.total_tuples = 1'500;
  const auto events = Generate(workload);
  constexpr uint64_t kWmEvery = 128;

  for (EngineKind kind : kAllEngines) {
    SCOPED_TRACE(EngineKindName(kind));
    char tmpl[] = "/tmp/oij_server_hello_XXXXXX";
    char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);

    ServerConfig config;
    config.engine = kind;
    config.query.window = workload.window;
    config.query.lateness_us = workload.lateness_us;
    config.query.emit_mode = EmitMode::kWatermark;
    config.options.num_joiners = 1;
    config.options.durability.wal_dir = dir;
    config.options.durability.fsync = FsyncPolicy::kPerBatch;
    config.options.durability.recover_to_watermark = true;
    OijServer server(config);
    ASSERT_TRUE(server.Start().ok());

    std::vector<Timestamp> sent_watermarks;
    {
      HandshakeClient client(server.data_port());
      std::string batch;
      HelloInfo hello;
      hello.flags = kHelloWantAcks;
      AppendHelloFrame(&batch, hello);
      WatermarkTracker tracker(config.query.lateness_us);
      uint64_t n = 0;
      for (const StreamEvent& ev : events) {
        tracker.Observe(ev.tuple.ts);
        AppendTupleFrame(&batch, ev);
        if (++n % kWmEvery == 0) {
          AppendWatermarkFrame(&batch, tracker.watermark());
          sent_watermarks.push_back(tracker.watermark());
        }
      }
      AppendControlFrame(&batch, FrameType::kFinish);
      ASSERT_TRUE(client.Send(batch));
      client.JoinReader();

      EXPECT_FALSE(client.corrupt);
      ASSERT_TRUE(client.errors.empty())
          << "server error: " << client.errors.front();
      ASSERT_EQ(client.hellos.size(), 1u) << "no hello reply";
      EXPECT_TRUE(client.hellos[0].Compatible());
      EXPECT_NE(client.hellos[0].flags & kHelloDurableExact, 0)
          << "per_batch + recover-to-watermark server must advertise "
             "durable-exact";
      EXPECT_EQ(client.hellos[0].recovered_watermark, kMinTimestamp)
          << "fresh server advertised a recovered watermark";

      ASSERT_EQ(client.acks.size(), sent_watermarks.size())
          << "one ack per applied watermark";
      for (size_t i = 0; i < client.acks.size(); ++i) {
        EXPECT_EQ(client.acks[i].first, sent_watermarks[i]) << "ack " << i;
        if (i > 0) {
          EXPECT_GE(client.acks[i].second, client.acks[i - 1].second)
              << "acked tuple count regressed";
        }
      }
      // The last ack certifies the tuples received up to that watermark;
      // the tail past the final punctuation is unacked by design.
      EXPECT_EQ(client.acks.back().second,
                (events.size() / kWmEvery) * kWmEvery);
      EXPECT_FALSE(client.summary.empty());
    }
    EXPECT_EQ(server.CountersSnapshot().watermark_acks,
              sent_watermarks.size());

    server.Shutdown();
    EXPECT_TRUE(HasWalSegment(dir)) << "durable-exact server wrote no WAL";
    const std::string cleanup = std::string("rm -rf '") + dir + "'";
    EXPECT_EQ(std::system(cleanup.c_str()), 0);
  }
}

/// Durable-exact promises that a crash loses no acked watermark, so the
/// flag stays clear whenever that promise does not hold: interval fsync,
/// per_batch without the watermark-cut recovery, or no WAL at all.
TEST(ServerHandshakeTest, DurableExactFlagClearWithoutPerBatchWal) {
  struct Case {
    const char* label;
    bool wal;
    FsyncPolicy fsync;
    bool recover_to_watermark;
  };
  const Case cases[] = {
      {"interval", true, FsyncPolicy::kInterval, true},
      {"per_batch-no-cut", true, FsyncPolicy::kPerBatch, false},
      {"no-wal", false, FsyncPolicy::kPerBatch, true},
  };
  for (EngineKind kind : kAllEngines) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(EngineKindName(kind)) + "/" + c.label);
      char tmpl[] = "/tmp/oij_server_hello_XXXXXX";
      char* dir = mkdtemp(tmpl);
      ASSERT_NE(dir, nullptr);

      ServerConfig config;
      config.engine = kind;
      config.options.num_joiners = 1;
      if (c.wal) config.options.durability.wal_dir = dir;
      config.options.durability.fsync = c.fsync;
      config.options.durability.recover_to_watermark =
          c.recover_to_watermark;
      OijServer server(config);
      ASSERT_TRUE(server.Start().ok());
      {
        HandshakeClient client(server.data_port());
        std::string batch;
        AppendHelloFrame(&batch, HelloInfo{});
        AppendControlFrame(&batch, FrameType::kFinish);
        ASSERT_TRUE(client.Send(batch));
        client.JoinReader();
        ASSERT_EQ(client.hellos.size(), 1u) << "no hello reply";
        EXPECT_EQ(client.hellos[0].flags & kHelloDurableExact, 0);
      }
      server.Shutdown();
      EXPECT_EQ(HasWalSegment(dir), c.wal);
      const std::string cleanup = std::string("rm -rf '") + dir + "'";
      EXPECT_EQ(std::system(cleanup.c_str()), 0);
    }
  }
}

/// A hello from the wrong protocol era (or in the wrong place) must be
/// refused with a clean kError frame — never by poisoning the decoder —
/// and the next well-formed connection must work.
TEST(ServerHandshakeTest, MismatchedOrMisplacedHelloRejectedCleanly) {
  ServerConfig config;
  config.options.num_joiners = 1;
  OijServer server(config);
  ASSERT_TRUE(server.Start().ok());

  {  // Future version: syntactically valid, semantically refused.
    HandshakeClient client(server.data_port());
    std::string bytes;
    HelloInfo hello;
    hello.version = kWireVersion + 7;
    AppendHelloFrame(&bytes, hello);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();
    EXPECT_FALSE(client.corrupt) << "rejection poisoned the decoder";
    ASSERT_EQ(client.errors.size(), 1u);
    EXPECT_NE(client.errors[0].find("version"), std::string::npos)
        << client.errors[0];
    EXPECT_TRUE(client.hellos.empty());
  }
  EXPECT_EQ(server.CountersSnapshot().hellos_rejected, 1u);

  {  // Hello as the second frame is a protocol error.
    HandshakeClient client(server.data_port());
    std::string bytes;
    AppendWatermarkFrame(&bytes, 1);
    HelloInfo hello;
    AppendHelloFrame(&bytes, hello);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();
    EXPECT_FALSE(client.corrupt);
    ASSERT_EQ(client.errors.size(), 1u);
  }
  EXPECT_EQ(server.CountersSnapshot().hellos_rejected, 2u);

  {  // The data plane is not wedged for well-behaved peers.
    HandshakeClient client(server.data_port());
    std::string bytes;
    HelloInfo hello;
    AppendHelloFrame(&bytes, hello);
    AppendControlFrame(&bytes, FrameType::kFinish);
    ASSERT_TRUE(client.Send(bytes));
    client.JoinReader();
    ASSERT_EQ(client.hellos.size(), 1u);
    EXPECT_TRUE(client.errors.empty());
    EXPECT_FALSE(client.summary.empty());
  }

  server.Shutdown();
}

// ------------------------------------------- subscriber disconnection

/// Regression for the mid-run subscriber disconnect: a subscriber that
/// vanishes (EPIPE/ECONNRESET on its egress) must be evicted from the
/// fan-out set, and the run must complete exactly for everyone else.
TEST(ServerSubscriberTest, DeadSubscriberIsEvictedAndRunCompletesExactly) {
  WorkloadSpec workload;
  ASSERT_TRUE(FindPreset("default", &workload));
  workload.total_tuples = 4'000;

  QuerySpec query;
  query.window = workload.window;
  query.lateness_us = workload.lateness_us;
  query.emit_mode = EmitMode::kWatermark;

  ServerConfig config;
  config.engine = EngineKind::kScaleOij;
  config.query = query;
  config.options.num_joiners = 2;
  OijServer server(config);
  ASSERT_TRUE(server.Start().ok());

  // The doomed subscriber: subscribes, then vanishes without so much as
  // a FIN handshake dance — the server discovers it on egress.
  int doomed = -1;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server.data_port(), &doomed).ok());
  {
    std::string sub;
    AppendControlFrame(&sub, FrameType::kSubscribe);
    ASSERT_TRUE(SendAll(doomed, sub.data(), sub.size()).ok());
  }
  ASSERT_TRUE(WaitUntil([&] {
    return server.CountersSnapshot().subscribers == 1;
  }));

  const auto events = Generate(workload);
  constexpr uint64_t kWmEvery = 256;
  DataClient client(server.data_port());
  std::string batch;
  AppendControlFrame(&batch, FrameType::kSubscribe);
  WatermarkTracker tracker(query.lateness_us);
  uint64_t n = 0;
  size_t half = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    AppendTupleFrame(&batch, ev);
    if (++n % kWmEvery == 0) AppendWatermarkFrame(&batch, tracker.watermark());
    if (n == events.size() / 2) {
      // Half the stream in, kill the subscriber mid-run.
      ASSERT_TRUE(client.Send(batch));
      batch.clear();
      half = n;
      ASSERT_TRUE(WaitUntil([&] {
        return server.CountersSnapshot().tuples_in >= half;
      }));
      CloseFd(doomed);
      doomed = -1;
    }
  }
  AppendControlFrame(&batch, FrameType::kFinish);
  ASSERT_TRUE(client.Send(batch));
  client.JoinReader();

  // The run completed for the surviving subscriber, exactly.
  EXPECT_TRUE(client.errors.empty())
      << "server error: " << client.errors.front();
  ASSERT_FALSE(client.summary.empty()) << "dead subscriber wedged the run";
  std::vector<ReferenceResult> got;
  got.reserve(client.results.size());
  for (const JoinResult& r : client.results) {
    got.push_back({r.base, r.aggregate, r.match_count});
  }
  SortResults(&got);
  auto expected = ReferenceJoinWithPolicy(events, query, kWmEvery);
  SortResults(&expected);
  ExpectResultsEqual(got, expected, "surviving subscriber");

  // And the dead one is actually gone from the connection table.
  EXPECT_TRUE(WaitUntil([&] {
    return server.CountersSnapshot().connections_open == 0;
  })) << "dead subscriber connection never cleaned up";

  server.Shutdown();
}

}  // namespace
}  // namespace oij
