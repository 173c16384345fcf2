#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.h"
#include "join/watermark.h"
#include "stream/presets.h"

namespace oij::perfbench {
namespace {

bool BaseLess(const Inputs::BaseRef& a, const Inputs::BaseRef& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.key != b.key) return a.key < b.key;
  return a.payload < b.payload;
}

}  // namespace

bool FindWorkload(const std::string& name, uint64_t seed, Workload* out) {
  // Joiner threads poll while idle, so the driver plus two joiners leave
  // one of the four vCPUs this benchmark was sized on to the OS; with a
  // third joiner every vCPU spins and p99 latency measures the host's
  // scheduler rather than the engine. Threads are pinned (see
  // RunInProcess/RunServed) so every repetition gets the same placement.
  Workload w;
  w.name = name;
  if (name == "dense") {
    // Read- and aggregate-heavy: 5 keys, ~4000 matches per 1 s window,
    // 100 ms disorder inside a 1 s lateness bound; exact in kWatermark.
    // Not a listed workload: its latency follows the host's memory
    // contention (see DESIGN.md), too unsteady to gate a change.
    // 900K tuples are 7.5 s of event time (3.75 s at the fixed rate):
    // 2 s of warm-up, 4.5 s measured, 1 s released only by the flush.
    w.gen = WorkloadA();
    w.gen.total_tuples = 900'000;
    w.query.emit_mode = EmitMode::kWatermark;
    w.joiners = 2;
    w.fixed_rate = 240'000;
  } else if (name == "skewed") {
    // Write-heavy: 10K keys with a rotating 16-key hot set, 1 ms window,
    // half probes; the only workload that makes the scheduler rebalance.
    w.gen = SkewedRotating();
    w.gen.total_tuples = 1'500'000;
    w.query.emit_mode = EmitMode::kWatermark;
    w.joiners = 2;
    w.fixed_rate = 600'000;
  } else if (name == "served" || name == "eager-rebalance") {
    // The dense shape in order, so join-on-arrival (kEager) is exact;
    // puts wire decode, egress encode and socket I/O on the path. The
    // server's loop thread and the client take two vCPUs, so one joiner.
    w.gen = WorkloadA();
    w.gen.disorder_bound_us = 0;
    w.gen.total_tuples = 600'000;
    w.query.emit_mode = EmitMode::kEager;
    w.joiners = 1;
    w.fixed_rate = 300'000;
    w.served = name == "served";
    // Not a listed workload: the same input in process with two joiners.
    // Scale-OIJ in kEager mode misses probes of bases routed around a
    // rebalance of its dynamic schedule, so this run fails its oracle
    // check on some seeds until that is fixed.
    if (!w.served) w.joiners = 2;
  } else {
    return false;
  }
  w.gen.pace_rate_per_sec = 0;
  w.gen.seed = seed;
  w.query.window = w.gen.window;
  w.query.lateness_us = w.gen.lateness_us;
  w.query.agg = AggKind::kSum;
  w.query.late_policy = LatePolicy::kBestEffortJoin;
  *out = w;
  return true;
}

bool BuildInputs(const Workload& w, unsigned threads, Inputs* out,
                 std::string* error) {
  WorkloadGenerator gen(w.gen);
  out->events.reserve(w.gen.total_tuples);
  StreamEvent ev;
  while (gen.Next(&ev)) out->events.push_back(ev);

  // A result depends only on its base and the probes of its key, so the
  // oracle may run on shards that each hold every probe and a slice of
  // the bases -- provided the lateness gate never acts, which holds when
  // no tuple is older than the watermark of everything before it.
  WatermarkTracker tracker(w.query.lateness_us);
  for (const StreamEvent& e : out->events) {
    if (tracker.watermark() != kMinTimestamp &&
        e.tuple.ts < tracker.watermark()) {
      *error = "generated input has a tuple behind the watermark";
      return false;
    }
    tracker.Observe(e.tuple.ts);
  }

  std::vector<std::vector<ReferenceResult>> parts(threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<StreamEvent> shard;
      uint64_t base = 0;
      for (const StreamEvent& e : out->events) {
        if (e.stream == StreamId::kProbe || base++ % threads == t) {
          shard.push_back(e);
        }
      }
      parts[t] = ReferenceJoinWithPolicy(shard, w.query, kPunctEvery);
    });
  }
  for (std::thread& t : workers) t.join();
  for (auto& part : parts) {
    out->expected.insert(out->expected.end(), part.begin(), part.end());
  }
  SortResults(&out->expected);
  out->digest = DigestOf(out->expected);

  if (w.query.emit_mode == EmitMode::kEager) {
    for (uint64_t i = 0; i < out->events.size(); ++i) {
      const StreamEvent& e = out->events[i];
      if (e.stream != StreamId::kBase) continue;
      out->bases.push_back({e.tuple.ts, e.tuple.key, e.tuple.payload, i});
    }
    std::sort(out->bases.begin(), out->bases.end(), BaseLess);
  }
  return true;
}

bool Attribute(const Workload& w, const Inputs& in, const RepResult& rep,
               Timestamp ts, Key key, double payload, int64_t* computable_ns,
               uint64_t* interval) {
  if (w.query.emit_mode == EmitMode::kWatermark) {
    const size_t p = ReleasePunct(rep.puncts, w.query.window.end_for(ts));
    if (p == rep.puncts.size()) return false;
    *computable_ns = rep.puncts[p].due_ns;
    *interval = p;
    return true;
  }
  const Inputs::BaseRef probe{ts, key, payload, 0};
  const auto it =
      std::lower_bound(in.bases.begin(), in.bases.end(), probe, BaseLess);
  if (it == in.bases.end() || BaseLess(probe, *it)) return false;
  *computable_ns = rep.t0_ns + static_cast<int64_t>(
                                   static_cast<double>(it->index) *
                                   rep.period_ns);
  const auto closing = std::upper_bound(
      rep.puncts.begin(), rep.puncts.end(), it->index,
      [](uint64_t i, const Punct& p) { return i < p.sent; });
  *interval = static_cast<uint64_t>(closing - rep.puncts.begin());
  return true;
}

namespace {

double ReadStatusMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

double ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  return ReadStatusMb("VmRSS");
}

double PeakRssMb() { return ReadStatusMb("VmHWM"); }

}  // namespace oij::perfbench
