// The repository benchmark. One run builds a workload's inputs and the
// oracle's answer from --seed, then measures two phases for --seconds in
// total: a saturating phase (pre-generated input pushed as fast as the
// system accepts it) and a fixed-rate phase (an open loop: tuple i is
// due at t0 + i/rate whether or not the system kept up), then ten
// set-up-only repetitions. Every repetition's output is checked against
// the oracle. The last line of stdout is one JSON object: end-to-end
// metrics from untraced runs with --trace 0, per-layer metrics from
// traced repetitions with --trace 1.
//
// Usage: oij_perfbench --workload skewed|served|dense|eager-rebalance --seed N
//            --seconds S --trace 0|1 [--trace-dir DIR]
//        oij_perfbench --selftest

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/clock.h"

namespace oij::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string trace_dir = ".bench_build/perfbench";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0.0);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Per-layer values of traced repetitions; each metric reports the
/// median over the repetitions that measured it.
class LayerMetrics {
 public:
  void Add(const std::string& name, double v) { values_[name].push_back(v); }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

std::map<std::string, NameTotals> SumSpans(const SpanLog& log) {
  std::map<std::string, NameTotals> out;
  for (NameTotals& t : TotalsByName(log.spans())) out[t.name] = std::move(t);
  return out;
}

double D(auto v) { return static_cast<double>(v); }

/// Per-layer metrics of one traced saturating repetition.
void AddSaturatingLayers(const Workload& w, const RepResult& rep,
                         LayerMetrics* m) {
  const EngineStats& st = rep.stats;
  const double wall_ns = rep.wall_s * 1e9;
  auto spans = SumSpans(rep.trace.spans);
  const double tuples = D(rep.tuples);
  const double results = D(st.results);

  const NameTotals& interval =
      spans[w.served ? "client.interval" : "driver.interval"];
  m->Add("driver.self_frac",
         Ratio(D(interval.self_ns), D(interval.total_ns)));
  if (!w.served) {
    const NameTotals& push = spans["join.push"];
    const NameTotals& sig = spans["join.signal_watermark"];
    m->Add("join.push_ns_per_tuple", Ratio(D(push.total_ns), tuples));
    m->Add("join.push_p99_us", D(rep.trace.push_ns.Quantile(0.99)) * 1e-3);
    m->Add("join.push_wall_frac", Ratio(D(push.total_ns), wall_ns));
    m->Add("join.signal_wm_us_per_call",
           Ratio(D(sig.total_ns) * 1e-3, D(sig.calls)));
    m->Add("join.ring_fill_mean", Ratio(rep.trace.ring_fill_sum,
                                        D(rep.trace.ring_fill_samples)));
    m->Add("join.finish_ms", D(spans["join.finish"].total_ns) * 1e-6);
  } else {
    // Finish travels as a frame: kFinish queued until the summary arrives.
    const int64_t end_ns = rep.t0_ns + static_cast<int64_t>(wall_ns);
    m->Add("join.finish_ms", D(end_ns - rep.finish_sent_ns) * 1e-6);
    m->Add("net.encode_ns_per_tuple",
           Ratio(D(spans["net.encode"].total_ns), tuples));
    m->Add("net.send_wait_frac", Ratio(D(rep.trace.send_wait_ns), wall_ns));
    m->Add("net.decode_ns_per_result",
           Ratio(D(spans["net.decode"].total_ns), results));
    m->Add("net.bytes_per_result",
           Ratio(D(rep.trace.bytes_received), results));
    m->Add("server.results_streamed", D(rep.server.results_streamed));
    m->Add("server.subscribers_evicted", D(rep.server.subscribers_evicted));
    m->Add("server.frames_rejected", D(rep.server.frames_rejected));
  }
  m->Add("join.busy_frac", Ratio(D(st.breakdown.busy_ns), w.joiners * wall_ns));
  m->Add("join.unbalancedness", st.ActualUnbalancedness());
  m->Add("join.lookup_s", D(st.breakdown.lookup_ns) * 1e-9);
  m->Add("join.match_s", D(st.breakdown.match_ns) * 1e-9);
  m->Add("index.effectiveness", Ratio(D(st.matched), D(st.visited)));
  m->Add("index.peak_buffered", D(st.peak_buffered_tuples));
  m->Add("index.evicted", D(st.evicted_tuples));
  m->Add("mem.arena_mb", D(st.mem.arena_reserved_bytes) / (1 << 20));
  m->Add("mem.allocs_per_tuple", Ratio(D(st.mem.arena_allocations), tuples));
  m->Add("mem.slab_recycles", D(st.mem.arena_slab_recycles));
  m->Add("ebr.retired_backlog", D(st.mem.ebr_retired_backlog));
  const double col_frac = Ratio(D(st.columnar_bases), results);
  m->Add("col.bases_frac", col_frac);
  m->Add("col.bases_per_group",
         Ratio(D(st.columnar_bases), D(st.columnar_groups)));
  m->Add("col.fallbacks", D(st.columnar_fallbacks));
  m->Add("window.scalar_bases_frac", 1.0 - col_frac);
  m->Add("sched.rebalances", D(st.rebalances));
  m->Add("sched.schedule_version", D(st.final_schedule_version));
}

/// Per-layer metrics of one traced fixed-rate repetition.
void AddFixedRateLayers(const Workload& w, const RepResult& rep,
                        LayerMetrics* m) {
  auto spans = SumSpans(rep.trace.spans);
  if (!w.served) {
    const NameTotals& flush = spans["join.flush_pending"];
    m->Add("join.flush_pending_us_per_call",
           Ratio(D(flush.total_ns) * 1e-3, D(flush.calls)));
  }
  m->Add("proc.cpu_cores", Ratio(rep.cpu_s, rep.wall_s));
  m->Add("proc.sys_frac", Ratio(rep.sys_s, rep.cpu_s));
  m->Add("proc.invol_csw_per_s", Ratio(D(rep.invol_csw), rep.wall_s));
}

struct LayerMetric {
  const char* name;
  const char* unit;
};

const LayerMetric kLayerMetrics[] = {
    {"driver.gen_lag_p50_ms", "ms"},
    {"driver.gen_lag_p99_ms", "ms"},
    {"driver.self_frac", "ratio"},
    {"join.push_ns_per_tuple", "ns"},
    {"join.push_p99_us", "us"},
    {"join.push_wall_frac", "ratio"},
    {"join.signal_wm_us_per_call", "us"},
    {"join.flush_pending_us_per_call", "us"},
    {"join.ring_fill_mean", "ratio"},
    {"join.busy_frac", "ratio"},
    {"join.unbalancedness", "ratio"},
    {"join.finish_ms", "ms"},
    {"join.lookup_s", "s"},
    {"join.match_s", "s"},
    {"index.effectiveness", "ratio"},
    {"index.peak_buffered", "count"},
    {"index.evicted", "count"},
    {"mem.arena_mb", "MiB"},
    {"mem.allocs_per_tuple", "ratio"},
    {"mem.slab_recycles", "count"},
    {"ebr.retired_backlog", "count"},
    {"col.bases_frac", "ratio"},
    {"col.bases_per_group", "ratio"},
    {"col.fallbacks", "count"},
    {"window.scalar_bases_frac", "ratio"},
    {"sched.rebalances", "count"},
    {"sched.schedule_version", "count"},
    {"net.encode_ns_per_tuple", "ns"},
    {"net.send_wait_frac", "ratio"},
    {"net.decode_ns_per_result", "ns"},
    {"net.bytes_per_result", "bytes"},
    {"server.results_streamed", "count"},
    {"server.subscribers_evicted", "count"},
    {"server.frames_rejected", "count"},
    {"proc.cpu_cores", "ratio"},
    {"proc.sys_frac", "ratio"},
    {"proc.invol_csw_per_s", "1/s"},
    {"trace.overhead_frac", "ratio"},
};

int Run(const Args& args) {
  Workload w;
  if (!FindWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr,
                 "unknown workload '%s' (skewed, served, dense, eager-rebalance)\n",
                 args.workload.c_str());
    return 2;
  }
  const int64_t build_start = MonotonicNowNs();
  Inputs in;
  std::string error;
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  if (!BuildInputs(w, threads, &in, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[perfbench] %s seed=%llu: %zu tuples, %zu expected results, "
               "inputs+oracle %.2f s\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               in.events.size(), in.expected.size(),
               static_cast<double>(MonotonicNowNs() - build_start) * 1e-9);

  const auto run_rep = [&](Phase phase, bool traced) {
    return w.served ? RunServed(w, in, phase, traced)
                    : RunInProcess(w, in, phase, traced);
  };

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  // Checks a repetition's output against the oracle and the system's own
  // counters; every result not delivered exactly counts as failed.
  const auto check = [&](RepResult& rep, Phase phase) {
    if (!rep.failure.empty()) problems.push_back(rep.failure);
    if (phase == Phase::kSetupOnly) return;
    const uint64_t expected = in.expected.size();
    attempted += expected;
    const ErrorCounts e = CompareWithOracle(&rep.results, in.expected, in.digest);
    failed += e.total();
    if (e.total() != 0) {
      problems.push_back("results differ from the oracle: missing=" +
                         std::to_string(e.missing) + " duplicated=" +
                         std::to_string(e.duplicated) + " differing=" +
                         std::to_string(e.differing));
    }
    if (rep.failure.empty() && rep.stats.results != expected) {
      problems.push_back("EngineStats.results=" + std::to_string(rep.stats.results) +
                         " but the oracle has " + std::to_string(expected));
    }
    if (rep.stats.late.tuples != 0) problems.push_back("engine saw late tuples");
    if (w.served && rep.failure.empty() && rep.server.results_streamed != expected) {
      problems.push_back("server.results_streamed=" +
                         std::to_string(rep.server.results_streamed) +
                         " but the oracle has " + std::to_string(expected));
    }
  };

  std::vector<double> setups, sat_tps, traced_tps, rss;
  LayerMetrics layers;
  RepResult last_sat_traced, last_fixed_traced;

  // A third of the time goes to the saturating phase, whose repetitions
  // are short, and two thirds to the fixed-rate phase, whose latency
  // level varies most from one repetition to the next.
  const double saturating_budget_ns = args.seconds * 1e9 / 3;
  const double fixed_rate_budget_ns = args.seconds * 2e9 / 3;

  // Saturating phase; a traced run alternates untraced and traced
  // repetitions so the tracing overhead is measured on the same inputs.
  int64_t phase_start = MonotonicNowNs();
  for (int k = 0; k < (args.trace ? 4 : 3) ||
                  MonotonicNowNs() - phase_start < saturating_budget_ns;
       ++k) {
    const bool traced = args.trace && k % 2 == 1;
    RepResult rep = run_rep(Phase::kSaturating, traced);
    check(rep, Phase::kSaturating);
    setups.push_back(rep.setup_s);
    const double tps = Ratio(static_cast<double>(rep.tuples), rep.wall_s);
    if (traced) {
      traced_tps.push_back(tps);
      AddSaturatingLayers(w, rep, &layers);
      last_sat_traced = std::move(rep);
    } else {
      sat_tps.push_back(tps);
    }
  }

  std::fprintf(stderr, "[perfbench] saturating tuples/s per rep:");
  for (double t : sat_tps) std::fprintf(stderr, " %.0f", t);
  std::fprintf(stderr, "\n");

  // Fixed-rate phase. Latency percentiles are taken per 10 ms window of
  // the time results became computable, and the medians over all windows
  // are reported: a multi-millisecond host stall then moves the windows
  // it hits, not a whole run's p99.
  constexpr int64_t kLatencyWindowNs = 10'000'000;
  std::vector<double> window_p50s, window_p99s;
  size_t samples = 0;
  size_t windows_skipped = 0;
  uint64_t flushed_only = 0;
  // Results of bases from the first window + lateness of event time are
  // warm-up: the index and the pending bases have not reached their
  // steady size yet, and on dense their latency ramps up over that span.
  const Timestamp warm_until = in.events.front().tuple.ts +
                               w.query.window.length() + w.query.lateness_us;
  uint64_t warm_up = 0;
  std::string rep_percentiles;
  phase_start = MonotonicNowNs();
  for (int k = 0; k < 1 || MonotonicNowNs() - phase_start < fixed_rate_budget_ns;
       ++k) {
    RepResult rep = run_rep(Phase::kFixedRate, args.trace);
    setups.push_back(rep.setup_s);
    std::vector<LatencySample> latency;
    std::vector<int64_t> whole_rep;
    latency.reserve(rep.results.size());
    whole_rep.reserve(rep.results.size());
    for (const ResultRec& r : rep.results) {
      int64_t computable = 0;
      uint64_t interval = 0;
      if (r.ts < warm_until) {
        ++warm_up;
      } else if (Attribute(w, in, rep, r.ts, r.key, r.payload, &computable,
                           &interval)) {
        latency.push_back({computable - rep.t0_ns, r.recv_ns - computable});
        whole_rep.push_back(r.recv_ns - computable);
      } else {
        ++flushed_only;
      }
    }
    std::vector<int64_t> lag_ns(rep.send_ns.size());
    for (size_t i = 0; i < rep.send_ns.size(); ++i) {
      lag_ns[i] = rep.send_ns[i] - rep.t0_ns -
                  static_cast<int64_t>(static_cast<double>(i) * rep.period_ns);
    }
    samples += latency.size();
    AddWindowPercentiles(&latency, kLatencyWindowNs, &window_p50s,
                         &window_p99s, &windows_skipped);
    int64_t p99 = 0, lag50 = 0, lag99 = 0;
    if (!Percentile(&whole_rep, 0.99, &p99, &error) ||
        !Percentile(&lag_ns, 0.50, &lag50, &error) ||
        !Percentile(&lag_ns, 0.99, &lag99, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    rep_percentiles += " " + std::to_string(static_cast<double>(p99) * 1e-6);
    if (!args.trace) rss.push_back(rep.rss_growth_mb);
    check(rep, Phase::kFixedRate);
    if (args.trace) {
      layers.Add("driver.gen_lag_p50_ms", static_cast<double>(lag50) * 1e-6);
      layers.Add("driver.gen_lag_p99_ms", static_cast<double>(lag99) * 1e-6);
      AddFixedRateLayers(w, rep, &layers);
      last_fixed_traced = std::move(rep);
    }
  }
  std::fprintf(stderr, "[perfbench] whole-repetition p99 ms:%s\n",
               rep_percentiles.c_str());
  if (window_p99s.size() < 10) {
    std::fprintf(stderr, "refusing latency percentiles: only %zu usable windows\n",
                 window_p99s.size());
    return 1;
  }

  // Set-up alone, repeated so its median is steady.
  for (int k = 0; k < 10; ++k) {
    RepResult rep = run_rep(Phase::kSetupOnly, false);
    check(rep, Phase::kSetupOnly);
    setups.push_back(rep.setup_s);
  }

  for (const std::string& p : problems) {
    std::fprintf(stderr, "[perfbench] FAILED CHECK: %s\n", p.c_str());
  }
  const bool correct = problems.empty() && failed == 0;
  const double error_frac = Ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted));

  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"throughput_tps", Median(sat_tps), "tuples/s"},
        {"lat_p50_ms", Median(window_p50s), "ms"},
        {"lat_p99_ms", Median(window_p99s), "ms"},
        // 1 - error_frac: a ratio that is never 0 on a working system.
        {"exact_frac", 1.0 - error_frac, "ratio"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", Median(rss), "MiB"},
    };
    std::printf("%-8s throughput_tps %14.1f tuples/s (median of %zu saturating reps)\n",
                w.name.c_str(), Median(sat_tps), sat_tps.size());
    std::printf("%-8s lat_p50_ms     %14.4f ms  (median of %zu 10-ms windows, %zu "
                "skipped; %zu samples; %llu warm-up and %llu flush-only "
                "results left out)\n",
                w.name.c_str(), Median(window_p50s), window_p50s.size(),
                windows_skipped, samples, static_cast<unsigned long long>(warm_up),
                static_cast<unsigned long long>(flushed_only));
    std::printf("%-8s lat_p99_ms     %14.4f ms  (median of %zu 10-ms windows)\n",
                w.name.c_str(), Median(window_p99s), window_p99s.size());
    std::printf("%-8s error_frac     %14.6g ratio (%llu of %llu results)\n",
                w.name.c_str(), error_frac, static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("%-8s setup_s        %14.6f s   (median of %zu set-ups)\n",
                w.name.c_str(), Median(setups), setups.size());
    std::printf("%-8s peak_rss_mb    %14.2f MiB (median of %zu reps)\n",
                w.name.c_str(), Median(rss), rss.size());
  } else {
    layers.Add("trace.overhead_frac", 1.0 - Ratio(Median(traced_tps), Median(sat_tps)));
    for (const LayerMetric& m : kLayerMetrics) {
      metrics.push_back({m.name, layers.Get(m.name), m.unit});
      std::printf("%-8s %-32s %16.6g %s\n", w.name.c_str(), m.name,
                  layers.Get(m.name), m.unit);
    }
    for (const RepResult* rep : {&last_sat_traced, &last_fixed_traced}) {
      const bool sat = rep == &last_sat_traced;
      const std::string path = args.trace_dir + "/trace-" + w.name + "-seed" +
                               std::to_string(args.seed) +
                               (sat ? "-saturating" : "-fixed_rate") + ".jsonl";
      if (!WriteSpans(path, rep->trace.spans.spans())) {
        std::fprintf(stderr, "[perfbench] could not write %s\n", path.c_str());
      }
      std::fprintf(stderr, "[perfbench] %s spans (%s): name calls total_ms self_ms\n",
                   sat ? "saturating" : "fixed-rate", path.c_str());
      for (const NameTotals& t : TotalsByName(rep->trace.spans.spans())) {
        std::fprintf(stderr, "  %-24s %10llu %12.3f %12.3f\n", t.name.c_str(),
                     static_cast<unsigned long long>(t.calls),
                     static_cast<double>(t.total_ns) * 1e-6,
                     static_cast<double>(t.self_ns) * 1e-6);
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace oij::perfbench

int main(int argc, char** argv) {
  using namespace oij::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: oij_perfbench --workload skewed|served|dense|eager-rebalance "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR] | --selftest\n");
    return 2;
  }
  // Freeze glibc's mmap and trim thresholds at their default 128 KiB.
  // Left dynamic, they rise after the first large free, and later
  // repetitions then reuse pages earlier ones left resident, so the
  // peak-RSS growth of a repetition would depend on its predecessors.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  if (!RunSelfTests()) return 3;
  if (args.selftest) {
    std::printf("perfbench self-tests passed\n");
    return 0;
  }
  return Run(args);
}
