// One repetition of a phase against an in-process JoinEngine, driven
// from this thread through Start/Push/SignalWatermark/FlushPending/Finish.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/clock.h"
#include "common/thread_util.h"
#include "core/engine_factory.h"
#include "join/watermark.h"

namespace oij::perfbench {
namespace {

/// A result sampled for a sink span; linked to its releasing interval
/// after the run.
struct SinkSample {
  int64_t start_ns;
  int64_t end_ns;
  Timestamp ts;
  Key key;
  double payload;
};

/// Records every result into a pre-allocated, pre-touched array so that
/// the sink neither allocates nor grows resident memory during a run.
/// Joiner threads claim chunks of it with one atomic add per kChunk
/// results; unfilled slots keep ts == kMinTimestamp and are dropped by
/// Take(). Traced runs sample one call in 64 into per-thread buffers.
class RecordingSink : public ResultSink {
 public:
  RecordingSink(size_t capacity, bool traced)
      : slots_(capacity + kChunk * kMaxThreads),
        id_(next_id_.fetch_add(1) + 1),
        traced_(traced) {}

  void OnResult(const JoinResult& r) override {
    thread_local Local local;
    if (local.owner != id_) local = Local{id_, 0, 0, nullptr, 0};
    const int64_t start = traced_ && (++local.calls & 63) == 0
                              ? MonotonicNowNs()
                              : 0;
    if (local.pos == local.end) {
      const size_t chunk = next_.fetch_add(kChunk, std::memory_order_relaxed);
      if (chunk >= slots_.size()) {
        overflow_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      local.pos = chunk;
      local.end = std::min(chunk + kChunk, slots_.size());
    }
    ResultRec& rec = slots_[local.pos++];
    rec.ts = r.base.ts;
    rec.key = r.base.key;
    rec.payload = r.base.payload;
    rec.aggregate = r.aggregate;
    rec.match_count = r.match_count;
    rec.recv_ns = MonotonicNowNs();
    if (start != 0) {
      if (local.samples == nullptr) local.samples = NewSampleBuffer();
      local.samples->push_back(
          {start, MonotonicNowNs(), r.base.ts, r.base.key, r.base.payload});
    }
  }

  uint64_t overflow() const { return overflow_.load(); }

  std::vector<ResultRec> Take() {
    std::erase_if(slots_,
                  [](const ResultRec& r) { return r.ts == kMinTimestamp; });
    return std::move(slots_);
  }

  std::vector<SinkSample> TakeSamples() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SinkSample> out;
    for (const auto& buf : sample_bufs_) {
      out.insert(out.end(), buf.begin(), buf.end());
    }
    return out;
  }

 private:
  static constexpr size_t kChunk = 1024;
  static constexpr size_t kMaxThreads = 16;

  struct Local {
    uint64_t owner = 0;
    size_t pos = 0;
    size_t end = 0;
    std::vector<SinkSample>* samples = nullptr;
    uint64_t calls = 0;
  };

  std::vector<SinkSample>* NewSampleBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    return &sample_bufs_.emplace_back();
  }

  static inline std::atomic<uint64_t> next_id_{0};

  std::vector<ResultRec> slots_;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> overflow_{0};
  const uint64_t id_;
  const bool traced_;
  std::mutex mu_;
  std::deque<std::vector<SinkSample>> sample_bufs_;  // guarded by mu_
};

double RingFill(const JoinEngine& engine, uint32_t capacity) {
  const WatchdogSample s = engine.SampleProgress();
  if (s.queue_depths.empty()) return 0.0;
  double sum = 0.0;
  for (size_t d : s.queue_depths) sum += static_cast<double>(d);
  return sum / static_cast<double>(s.queue_depths.size() * capacity);
}

struct Usage {
  double cpu_s, sys_s;
  long invol_csw;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), secs(ru.ru_stime),
          ru.ru_nivcsw};
}

void SleepUntilNs(int64_t t) {
  const int64_t now = MonotonicNowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

}  // namespace

RepResult RunInProcess(const Workload& w, const Inputs& in, Phase phase,
                       bool traced) {
  RepResult rep;
  const bool fixed = phase == Phase::kFixedRate;
  const size_t n = phase == Phase::kSetupOnly ? 0 : in.events.size();
  RecordingSink sink(phase == Phase::kSetupOnly ? 0 : in.expected.size(),
                     traced);
  rep.puncts.reserve(n / 64 + 16);
  if (fixed) rep.send_ns.assign(n, 0);
  EngineOptions options;
  options.num_joiners = w.joiners;
  options.pin_threads = true;  // joiner j on CPU j; the driver on the last

  const bool measure_rss = fixed && !traced;
  const double rss_base = measure_rss ? ResetPeakRss() : 0.0;
  const Usage usage0 = ReadUsage();

  const int64_t setup_start = MonotonicNowNs();
  std::unique_ptr<JoinEngine> engine =
      CreateEngine(EngineKind::kScaleOij, w.query, options, &sink);
  const Status started = engine->Start();
  const int64_t setup_end = MonotonicNowNs();
  rep.setup_s = static_cast<double>(setup_end - setup_start) * 1e-9;
  if (!started.ok()) {
    rep.failure = "engine start: " + started.ToString();
    return rep;
  }
  TryPinCurrentThreadTo(NumCpus() - 1);

  TraceData& tr = rep.trace;
  const char* phase_name = fixed ? "run.fixed_rate" : "run.saturating";
  uint32_t root = kNoParent;
  uint32_t interval_span = kNoParent;
  uint64_t interval = 0;
  CallAgg pushes, flushes;

  WatermarkTracker tracker(w.query.lateness_us);
  rep.period_ns = fixed ? 1e9 / static_cast<double>(w.fixed_rate) : 0.0;
  rep.t0_ns = MonotonicNowNs();
  if (traced) {
    root = tr.spans.Open(phase_name, kNoParent, 0, rep.t0_ns);
    interval_span = tr.spans.Open("driver.interval", root, 0, rep.t0_ns);
  }
  int64_t last_punct_ns = rep.t0_ns;
  int64_t now = rep.t0_ns;
  uint64_t since_punct = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t due = 0;
    if (fixed) {
      due = rep.t0_ns + static_cast<int64_t>(static_cast<double>(i) * rep.period_ns);
      now = MonotonicNowNs();
      if (due - now > kSleepAheadNs) {
        const int64_t f0 = traced ? MonotonicNowNs() : 0;
        engine->FlushPending();
        if (traced) flushes.Add(f0, MonotonicNowNs());
        SleepUntilNs(due);
        now = MonotonicNowNs();
      }
      while (now < due) now = MonotonicNowNs();
      rep.send_ns[i] = now;
    } else {
      now = MonotonicNowNs();
    }
    if (traced) {
      engine->Push(in.events[i], now / 1000);
      const int64_t after = MonotonicNowNs();
      pushes.Add(now, after);
      tr.push_ns.Add(after - now);
      if (i % kRingSampleEvery == 0) {
        tr.ring_fill_sum += RingFill(*engine, options.queue_capacity);
        ++tr.ring_fill_samples;
      }
    } else {
      engine->Push(in.events[i], now / 1000);
    }
    tracker.Observe(in.events[i].tuple.ts);
    if (++since_punct >= kPunctEvery || now - last_punct_ns >= kPunctAfterNs) {
      const int64_t s0 = traced ? MonotonicNowNs() : 0;
      engine->SignalWatermark(tracker.watermark());
      last_punct_ns = MonotonicNowNs();
      rep.puncts.push_back({tracker.watermark(), fixed ? due : now, i + 1});
      since_punct = 0;
      if (traced) {
        tr.spans.AddAggregate("join.push", interval_span, interval, &pushes);
        tr.spans.AddAggregate("join.flush_pending", interval_span, interval,
                              &flushes);
        tr.spans.Add("join.signal_watermark", interval_span, interval, s0,
                     last_punct_ns);
        tr.spans.Close(interval_span, last_punct_ns);
        interval_span =
            tr.spans.Open("driver.interval", root, interval + 1, last_punct_ns);
      }
      ++interval;
    }
  }
  const int64_t finish_start = MonotonicNowNs();
  if (traced) {
    tr.spans.AddAggregate("join.push", interval_span, interval, &pushes);
    tr.spans.AddAggregate("join.flush_pending", interval_span, interval,
                          &flushes);
    tr.spans.Close(interval_span, finish_start);
  }
  rep.stats = engine->Finish();
  const int64_t end = MonotonicNowNs();
  if (measure_rss) rep.rss_growth_mb = PeakRssMb() - rss_base;
  const Usage usage1 = ReadUsage();
  rep.cpu_s = usage1.cpu_s - usage0.cpu_s;
  rep.sys_s = usage1.sys_s - usage0.sys_s;
  rep.invol_csw = static_cast<uint64_t>(usage1.invol_csw - usage0.invol_csw);
  if (traced) {
    tr.spans.Add("join.finish", root, interval, finish_start, end);
    tr.spans.Close(root, end);
  }
  rep.wall_s = static_cast<double>(end - rep.t0_ns) * 1e-9;
  rep.tuples = n;
  engine.reset();

  if (!rep.stats.health.ok()) {
    rep.failure = "engine unhealthy: " + rep.stats.health.ToString();
  }
  if (sink.overflow() != 0) rep.failure = "more results than expected";
  rep.results = sink.Take();
  if (traced) {
    for (const SinkSample& s : sink.TakeSamples()) {
      int64_t computable = 0;
      uint64_t released_by = interval;
      Attribute(w, in, rep, s.ts, s.key, s.payload, &computable,
                &released_by);
      tr.spans.Add("sink.on_result", kNoParent, released_by, s.start_ns,
                   s.end_ns);
    }
  }
  return rep;
}

}  // namespace oij::perfbench
