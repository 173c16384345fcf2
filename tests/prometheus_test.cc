#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "admin_http.h"
#include "cluster/router.h"
#include "metrics/latency_recorder.h"
#include "metrics/prometheus.h"
#include "metrics/stats_visitor.h"
#include "server/admin.h"

namespace oij {
namespace {

// ------------------------------------------------------- name/label rules

TEST(Prometheus, SanitizeMetricName) {
  EXPECT_EQ(SanitizeMetricName("oij_up"), "oij_up");
  EXPECT_EQ(SanitizeMetricName("ns:metric_total"), "ns:metric_total");
  EXPECT_EQ(SanitizeMetricName("scale-oij.latency"), "scale_oij_latency");
  EXPECT_EQ(SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(SanitizeMetricName("a b\tc"), "a_b_c");
}

TEST(Prometheus, EscapeLabelValue) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
}

TEST(Prometheus, LabelsRenderEscaped) {
  PrometheusWriter writer;
  writer.Gauge("g", "help", 1.0, {{"workload", "A\"B\\C\nD"}});
  EXPECT_NE(writer.text().find("g{workload=\"A\\\"B\\\\C\\nD\"} 1"),
            std::string::npos);
}

TEST(Prometheus, HelpTypeHeadersOncePerFamily) {
  PrometheusWriter writer;
  writer.Counter("c_total", "a counter", 1.0, {{"k", "x"}});
  writer.Counter("c_total", "a counter", 2.0, {{"k", "y"}});
  const std::string& text = writer.text();
  size_t first = text.find("# HELP c_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# HELP c_total", first + 1), std::string::npos);
  first = text.find("# TYPE c_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE c_total", first + 1), std::string::npos);
}

// ---------------------------------------------------- histogram invariants

/// Pulls every `name_bucket{le="..."} <count>` sample out of an
/// exposition document, in document order.
std::vector<std::pair<double, uint64_t>> ParseBuckets(
    const std::string& text, const std::string& name) {
  std::vector<std::pair<double, uint64_t>> out;
  const std::string needle = name + "_bucket{le=\"";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    const size_t quote = text.find('"', pos);
    const std::string le = text.substr(pos, quote - pos);
    const size_t space = text.find(' ', quote);
    const size_t eol = text.find('\n', space);
    const std::string count = text.substr(space + 1, eol - space - 1);
    out.emplace_back(le == "+Inf" ? std::numeric_limits<double>::infinity()
                                  : std::stod(le),
                     static_cast<uint64_t>(std::stoull(count)));
    pos = eol;
  }
  return out;
}

double ParseGauge(const std::string& text, const std::string& sample) {
  // Anchor at line start so HELP/TYPE comment lines mentioning the
  // family name never match.
  const std::string needle = "\n" + sample + " ";
  size_t pos = text.rfind(needle);
  if (pos != std::string::npos) {
    pos += 1;
  } else if (text.compare(0, sample.size() + 1, sample + " ") == 0) {
    pos = 0;
  }
  EXPECT_NE(pos, std::string::npos) << sample << " missing from:\n" << text;
  if (pos == std::string::npos) return 0.0;
  return std::stod(text.substr(pos + sample.size() + 1));
}

TEST(Prometheus, HistogramBucketsAreCumulativeAndMonotone) {
  LatencyRecorder recorder;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 50'000; ++i) {
    recorder.Record(static_cast<int64_t>(rng() % 2'000'000));
  }
  PrometheusWriter writer;
  writer.Histogram("lat_us", "latencies", recorder);
  const std::string text = writer.Take();

  const auto buckets = ParseBuckets(text, "lat_us");
  ASSERT_GE(buckets.size(), 2u);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i - 1].first, buckets[i].first)
        << "le edges out of order at " << i;
    EXPECT_LE(buckets[i - 1].second, buckets[i].second)
        << "cumulative counts regressed at le=" << buckets[i].first;
  }
  // The mandatory +Inf bucket closes the family and equals _count.
  EXPECT_TRUE(std::isinf(buckets.back().first));
  EXPECT_EQ(buckets.back().second, recorder.count());
  EXPECT_EQ(static_cast<uint64_t>(ParseGauge(text, "lat_us_count")),
            recorder.count());
  EXPECT_EQ(static_cast<int64_t>(ParseGauge(text, "lat_us_sum")),
            recorder.sum_us());
}

TEST(Prometheus, EmptyHistogramStillWellFormed) {
  LatencyRecorder recorder;
  PrometheusWriter writer;
  writer.Histogram("empty_us", "nothing", recorder);
  const std::string text = writer.Take();
  const auto buckets = ParseBuckets(text, "empty_us");
  ASSERT_EQ(buckets.size(), 1u);  // just +Inf
  EXPECT_TRUE(std::isinf(buckets[0].first));
  EXPECT_EQ(buckets[0].second, 0u);
  EXPECT_EQ(ParseGauge(text, "empty_us_count"), 0.0);
}

/// The Percentile <= max invariant must survive rendering: the quantile
/// gauges /metrics exposes can never exceed the rendered max gauge.
TEST(Prometheus, QuantileGaugesNeverExceedMaxThroughMetricsOutput) {
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.run_finished = true;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20'000; ++i) {
    snap.final_run.stats.latency.Record(
        static_cast<int64_t>(rng() % 5'000'000));
  }
  const std::string text = RenderPrometheusMetrics(snap);

  const double max_us = ParseGauge(text, "oij_result_latency_max_us");
  EXPECT_EQ(static_cast<int64_t>(max_us),
            snap.final_run.stats.latency.max_us());
  for (const char* q : {"0.5", "0.9", "0.99"}) {
    const double v = ParseGauge(
        text, std::string("oij_result_latency_quantile_us{quantile=\"") + q +
                  "\"}");
    EXPECT_LE(v, max_us) << "quantile " << q;
    EXPECT_GE(v, 0.0);
  }

  // The full histogram rides along and stays monotone end-to-end.
  const auto buckets = ParseBuckets(text, "oij_result_latency_us");
  ASSERT_GE(buckets.size(), 2u);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i - 1].second, buckets[i].second);
  }
  EXPECT_EQ(buckets.back().second, snap.final_run.stats.latency.count());
}

TEST(Prometheus, ArenaGaugesRenderFromProgressSample) {
  // The allocator observability chain: WatchdogSample arena fields must
  // surface as the four memory gauges on the /metrics page.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.run_finished = false;
  snap.progress.arena_bytes = 4 * 64 * 1024;
  snap.progress.arena_live_nodes = 1234;
  snap.progress.ebr_retired_backlog = 56;
  snap.progress.arena_slab_recycles = 7;
  const std::string text = RenderPrometheusMetrics(snap);

  EXPECT_EQ(ParseGauge(text, "oij_arena_bytes"), 4.0 * 64 * 1024);
  EXPECT_EQ(ParseGauge(text, "oij_arena_live_nodes"), 1234.0);
  EXPECT_EQ(ParseGauge(text, "oij_ebr_retired_backlog"), 56.0);
  EXPECT_EQ(ParseGauge(text, "oij_arena_slab_recycles_total"), 7.0);
}

TEST(Prometheus, SnapshotAgeGaugeOmittedUntilFirstSnapshot) {
  // Regression: before the first snapshot commits the engine reports the
  // -1.0 "never" sentinel, and /metrics used to export it verbatim — a
  // negative age that poisons `oij_snapshot_age_seconds > X` alert rules.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.wal.enabled = true;
  snap.snapshot_age_seconds = -1.0;
  std::string text = RenderPrometheusMetrics(snap);
  EXPECT_EQ(text.find("oij_snapshot_age_seconds"), std::string::npos)
      << "sentinel leaked as a sample:\n"
      << text;
  // The rest of the WAL family still renders without it.
  EXPECT_NE(text.find("oij_wal_appended_records_total"), std::string::npos);
  EXPECT_NE(text.find("oij_snapshots_total"), std::string::npos);

  // Zero is a real age (a snapshot committed within the last second) and
  // must render; so must any positive age.
  snap.snapshot_age_seconds = 0.0;
  text = RenderPrometheusMetrics(snap);
  EXPECT_EQ(ParseGauge(text, "oij_snapshot_age_seconds"), 0.0);
  snap.snapshot_age_seconds = 12.5;
  text = RenderPrometheusMetrics(snap);
  EXPECT_EQ(ParseGauge(text, "oij_snapshot_age_seconds"), 12.5);
}

TEST(Statz, SnapshotAgeIsNullUntilFirstSnapshot) {
  // The /statz side of the same fix: the sentinel renders as JSON null,
  // never as -1, and becomes a number once a snapshot exists.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.wal.enabled = true;
  snap.snapshot_age_seconds = -1.0;
  std::string text = RenderStatzJson(snap);
  EXPECT_NE(text.find("\"snapshot_age_seconds\":null"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("-1"), std::string::npos) << text;

  snap.snapshot_age_seconds = 3.0;
  text = RenderStatzJson(snap);
  EXPECT_NE(text.find("\"snapshot_age_seconds\":3"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("null"), std::string::npos) << text;
}

TEST(Statz, ArraysAreCommaSeparatedAndMemoryObjectRenders) {
  // Regression: JsonOut used to omit the separator between bare array
  // elements, so multi-joiner queue_depths rendered as [123] instead of
  // [1,2,3] — invalid JSON that only showed up with >1 joiner.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.run_finished = true;
  snap.progress.queue_depths = {1, 2, 3};
  snap.progress.consumed = {10, 20, 30};
  snap.progress.arena_bytes = 65536;
  snap.final_run.stats.warnings = {"w1", "w2"};
  snap.final_run.stats.mem.pooled = true;
  snap.final_run.stats.mem.arena_reserved_bytes = 131072;
  const std::string text = RenderStatzJson(snap);

  EXPECT_NE(text.find("\"queue_depths\":[1,2,3]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"consumed\":[10,20,30]"), std::string::npos);
  EXPECT_NE(text.find("\"warnings\":[\"w1\",\"w2\"]"), std::string::npos);
  EXPECT_NE(text.find("\"memory\":{\"arena_bytes\":65536"),
            std::string::npos);
  EXPECT_NE(text.find("\"memory\":{\"pooled\":true,"
                      "\"arena_reserved_bytes\":131072"),
            std::string::npos);

  // Structural sanity: brackets balance and never go negative.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced at offset " << i;
  }
  EXPECT_EQ(depth, 0);
}

TEST(Prometheus, MetricsPageIsParseable) {
  // Every non-comment line must be `name{labels} value` or `name value`,
  // and every family must have one HELP and one TYPE header and form
  // one contiguous group.
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "wl\"with\\odd\nchars";
  snap.counters.tuples_in = 123;
  snap.progress.queue_depths = {1, 2, 3};
  snap.progress.consumed = {10, 20, 30};
  snap.run_finished = false;
  const std::string text = RenderPrometheusMetrics(snap);
  ExpectValidExposition(text);

  // Live progress gauges carry per-joiner labels.
  EXPECT_NE(text.find("oij_joiner_queue_depth{joiner=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("oij_joiner_consumed_total{joiner=\"2\"} 30"),
            std::string::npos);
}

// ------------------------------------------- one walk, two formats (property)

/// Records every number a stats walk exports: its /statz path, its
/// Prometheus sample (`name{labels}`), and its rendered value.
class StatsRecorder : public StatsVisitor {
 public:
  struct Row {
    std::string path;
    std::string key;
    std::string sample;
    std::string value;
    bool flag = false;
  };

  explicit StatsRecorder(std::string prefix)
      : StatsVisitor(std::move(prefix)) {}
  void Histogram(std::string_view, std::string_view,
                 const LatencyRecorder&) override {}

  std::vector<Row> rows;

 protected:
  void OnNumber(const Sample& s) override {
    if (s.series.empty()) return;
    std::string sample = s.series;
    for (size_t i = 0; i < s.labels.size(); ++i) {
      sample += (i == 0 ? "{" : ",") + s.labels[i].first + "=\"" +
                EscapeLabelValue(s.labels[i].second) + "\"";
    }
    if (!s.labels.empty()) sample += "}";
    rows.push_back({Path(s.key), std::string(s.key), sample,
                    FormatMetricValue(s.value), s.kind == StatKind::kFlag});
  }
};

/// Flattens a JSON document into path -> raw scalar token, with paths
/// spelled like StatsVisitor's ('.'-joined keys, array indices).
class JsonFlattener {
 public:
  explicit JsonFlattener(const std::string& text) : in_(text) {}

  std::map<std::string, std::string> Run() {
    Value("");
    Ws();
    EXPECT_EQ(pos_, in_.size()) << "trailing bytes in " << in_;
    return out_;
  }

 private:
  void Ws() {
    while (pos_ < in_.size() && std::isspace(static_cast<unsigned char>(
                                    in_[pos_]))) {
      ++pos_;
    }
  }
  std::string Str() {
    std::string s;
    ++pos_;  // opening quote
    while (pos_ < in_.size() && in_[pos_] != '"') {
      if (in_[pos_] == '\\') s += in_[pos_++];
      s += in_[pos_++];
    }
    ++pos_;
    return s;
  }
  static std::string Join(const std::string& path, const std::string& key) {
    return path.empty() ? key : path + "." + key;
  }
  void Value(const std::string& path) {
    Ws();
    ASSERT_LT(pos_, in_.size());
    const char c = in_[pos_];
    if (c == '{' || c == '[') {
      ++pos_;
      Ws();
      for (size_t i = 0; in_[pos_] != (c == '{' ? '}' : ']'); ++i) {
        if (i > 0) {
          ASSERT_EQ(in_[pos_], ',') << path;
          ++pos_;
          Ws();
        }
        std::string key = std::to_string(i);
        if (c == '{') {
          key = Str();
          Ws();
          ASSERT_EQ(in_[pos_], ':') << path;
          ++pos_;
        }
        Value(Join(path, key));
        Ws();
        ASSERT_LT(pos_, in_.size()) << path;
      }
      ++pos_;
    } else if (c == '"') {
      out_[path] = "\"" + Str() + "\"";
    } else {
      const size_t end = in_.find_first_of(",]}", pos_);
      out_[path] = in_.substr(pos_, end - pos_);
      pos_ = end;
    }
  }

  const std::string& in_;
  size_t pos_ = 0;
  std::map<std::string, std::string> out_;
};

/// Every sample of an exposition document except histogram internals.
std::map<std::string, std::string> ParseSamples(const std::string& text,
                                                const std::string& histogram) {
  std::map<std::string, std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!histogram.empty() && line.rfind(histogram + "_", 0) == 0) continue;
    const size_t space = line.rfind(' ');
    EXPECT_TRUE(out.emplace(line.substr(0, space), line.substr(space + 1))
                    .second)
        << "duplicate sample " << line;
  }
  return out;
}

/// The property: every counter, gauge and flag the walk visits renders
/// the same value in /statz (at its path) and /metrics (as its sample),
/// /metrics holds nothing the walk did not visit, and StatzNumber —
/// which reads the first match — finds the right value for every key
/// that is unique in the document.
void ExpectOneWalkTwoFormats(const StatsRecorder& walk,
                             const std::string& statz,
                             const std::string& metrics,
                             const std::string& histogram) {
  ExpectValidExposition(metrics);
  const auto json = JsonFlattener(statz).Run();
  auto samples = ParseSamples(metrics, histogram);
  ASSERT_FALSE(walk.rows.empty());
  for (const StatsRecorder::Row& row : walk.rows) {
    const std::string statz_form =
        row.flag ? (row.value == "1" ? "true" : "false") : row.value;
    const auto j = json.find(row.path);
    ASSERT_NE(j, json.end()) << row.path << " missing from /statz";
    EXPECT_EQ(j->second, statz_form) << row.path;
    const auto m = samples.find(row.sample);
    ASSERT_NE(m, samples.end()) << row.sample << " missing from /metrics";
    EXPECT_EQ(m->second, row.value) << row.sample;
    samples.erase(m);
    const std::string needle = "\"" + row.key + "\":";
    if (!row.flag && !row.key.empty() &&
        statz.find(needle) == statz.rfind(needle)) {
      double v = 0.0;
      ASSERT_TRUE(StatzNumber(statz, row.key, &v)) << row.key;
      EXPECT_EQ(v, std::stod(row.value)) << row.key;
    }
  }
  for (const auto& [sample, value] : samples) {
    ADD_FAILURE() << sample << " " << value << " is not in the walk";
  }
}

TEST(StatsWalk, ServerStatzAndMetricsAgreeOnEveryValue) {
  // Every numeric input distinct and non-zero; non-integers exercise the
  // shared formatter (/statz once printed %.6g, /metrics %.17g).
  uint64_t next = 100;
  auto n = [&next] { return next += 7; };
  AdminSnapshot snap;
  snap.engine_name = "scale-oij";
  snap.workload_name = "default";
  snap.uptime_seconds = 1234.5678901234;
  snap.recovering = true;
  ServerCounters& c = snap.counters;
  for (uint64_t* f :
       {&c.connections_accepted, &c.connections_open, &c.admin_requests,
        &c.bytes_in, &c.bytes_out, &c.frames_in, &c.tuples_in,
        &c.watermarks_in, &c.frames_rejected, &c.results_streamed,
        &c.subscribers, &c.subscribers_evicted, &c.watermark_acks,
        &c.hellos_rejected}) {
    *f = n();
  }
  WatchdogSample& p = snap.progress;
  p.pushed = n();
  p.watermarks = n();
  p.queue_depths = {n(), n()};
  p.consumed = {n(), n()};
  p.arena_bytes = n();
  p.arena_live_nodes = n();
  p.ebr_retired_backlog = n();
  p.arena_slab_recycles = n();
  p.numa_active = true;
  p.numa_nodes = 2;
  p.numa_pin_cpus = {static_cast<int>(n()), static_cast<int>(n())};
  p.numa_joiner_node = {static_cast<uint32_t>(n()),
                        static_cast<uint32_t>(n())};
  p.per_node_arena_bytes = {n(), n()};
  p.per_node_arena_live_nodes = {n(), n()};
  p.numa_cross_replications = n();
  p.numa_cross_dispatches = n();
  for (const char* id : {"main", "half"}) {
    QueryStatsRow q;
    q.id = id;
    q.ord = static_cast<uint32_t>(n());
    q.spec.window = IntervalWindow{static_cast<int64_t>(n()),
                                   static_cast<int64_t>(n())};
    q.spec.lateness_us = static_cast<int64_t>(n());
    q.active = snap.queries.empty();
    q.results = n();
    q.late.tuples = n();
    q.late.joined = n();
    q.late.dropped = n();
    q.late.side_channel = n();
    snap.queries.push_back(q);
  }
  WalStats& wal = snap.wal;
  wal.enabled = true;
  for (uint64_t* f :
       {&wal.appended_records, &wal.appended_bytes, &wal.synced_records,
        &wal.fsyncs, &wal.fsync_failures, &wal.short_writes,
        &wal.snapshots_taken, &wal.snapshot_records, &wal.replay_records,
        &wal.replay_watermarks, &wal.torn_records}) {
    *f = n();
  }
  wal.recovery_duration_us = static_cast<int64_t>(n());
  snap.snapshot_age_seconds = 12.345;
  snap.run_finished = true;
  RunResult& run = snap.final_run;
  run.tuples = n();
  run.elapsed_seconds = 0.1 + static_cast<double>(n());
  run.throughput_tps = 1.0 / 3.0 + static_cast<double>(n());
  EngineStats& st = run.stats;
  st.results = n();
  for (int64_t us : {3, 50, 700, 9000, 120000}) st.latency.Record(us);
  st.late.tuples = n();
  st.late.dropped = n();
  st.late.side_channel = n();
  st.late.joined = n();
  st.overload_dropped = n();
  st.overload_shed = n();
  st.control_lost = n();
  st.mem.pooled = true;
  for (uint64_t* f :
       {&st.mem.arena_reserved_bytes, &st.mem.arena_live_nodes,
        &st.mem.arena_allocations, &st.mem.arena_slab_recycles,
        &st.mem.ebr_retired_backlog}) {
    *f = n();
  }
  st.numa_active = true;
  st.numa_nodes = 3;
  st.numa_node_arena_bytes = {n(), n()};
  st.numa_node_arena_live_nodes = {n(), n()};
  st.numa_cross_replications = n();
  st.numa_cross_dispatches = n();
  st.warnings = {"w1"};

  // Past 2^53 a double would round the counter: both formats stay exact.
  c.bytes_out = (uint64_t{1} << 60) + 1;

  StatsRecorder walk("oij_");
  VisitAdminStats(snap, walk);
  const std::string statz = RenderStatzJson(snap);
  const std::string metrics = RenderPrometheusMetrics(snap);
  EXPECT_NE(statz.find("\"bytes_out\":1152921504606846977"),
            std::string::npos)
      << statz;
  EXPECT_NE(metrics.find("oij_egress_bytes_total 1152921504606846977\n"),
            std::string::npos)
      << metrics;
  ExpectOneWalkTwoFormats(walk, statz, metrics, "oij_result_latency_us");
}

TEST(StatsWalk, RouterStatzAndMetricsAgreeOnEveryValue) {
  uint64_t next = 100;
  auto n = [&next] { return next += 7; };
  RouterCounters c;
  for (uint64_t* f :
       {&c.clients_accepted, &c.clients_open, &c.clients_stalled_evicted,
        &c.subscribers, &c.subscribers_evicted, &c.tuples_in,
        &c.tuples_routed, &c.tuples_queued_sticky, &c.tuples_failed_over,
        &c.tuples_dropped, &c.watermarks_in, &c.watermarks_broadcast,
        &c.watermarks_ignored, &c.acks_received, &c.results_fanned,
        &c.backend_connects, &c.backend_disconnects, &c.backend_retries,
        &c.replayed_tuples, &c.replay_dropped_tuples, &c.hellos_rejected,
        &c.admin_requests}) {
    *f = n();
  }
  c.cluster_watermark = static_cast<int64_t>(n());
  c.min_backend_acked = INT64_MIN;  // the "nothing acked yet" sentinel
  std::vector<RouterBackendRow> rows(2);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    RouterBackendRow& b = rows[i];
    b.id = i + 1;
    b.state = i == 0 ? "active" : "connecting";
    b.active = i == 0;
    b.healthy = i == 0;
    b.durable_exact = i == 1;
    // Backend 2 acked the end-of-stream kMaxTimestamp watermark.
    b.acked_watermark = i == 0 ? static_cast<int64_t>(n()) : INT64_MAX;
    for (uint64_t* f :
         {&b.replay_buffered_tuples, &b.replay_dropped_tuples,
          &b.tuples_sent, &b.watermarks_sent, &b.acks, &b.connects,
          &b.disconnects, &b.replays, &b.health.probes, &b.health.failures,
          &b.health.ejections, &b.health.readmissions}) {
      *f = n();
    }
  }
  StatsRecorder walk("oij_router_");
  JsonWriter json;
  PrometheusStatsWriter prom("oij_router_");
  for (StatsVisitor* v : std::initializer_list<StatsVisitor*>{
           &walk, &json, &prom}) {
    VisitRouterStats(c, true, rows, *v);
  }
  const std::string statz = json.Take();
  const std::string metrics = prom.Take();
  EXPECT_NE(statz.find("\"min_backend_acked\":-9223372036854775808"),
            std::string::npos)
      << statz;
  EXPECT_NE(statz.find("\"acked_watermark\":9223372036854775807"),
            std::string::npos)
      << statz;
  EXPECT_NE(metrics.find("oij_router_backend_acked_watermark{backend=\"2\"} "
                         "9223372036854775807\n"),
            std::string::npos)
      << metrics;
  ExpectOneWalkTwoFormats(walk, statz, metrics, "");
}

}  // namespace
}  // namespace oij
