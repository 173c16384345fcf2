#ifndef OIJ_PERFBENCH_BENCH_H_
#define OIJ_PERFBENCH_BENCH_H_

// Workloads, inputs and one repetition of a benchmark phase, in process
// (JoinEngine) or served (OijServer + a loopback client).

#include <cstdint>
#include <string>
#include <vector>

#include "check.h"
#include "core/query_spec.h"
#include "join/engine.h"
#include "join/reference_join.h"
#include "server/admin.h"
#include "stream/generator.h"
#include "stream/workload.h"
#include "trace.h"

namespace oij::perfbench {

struct Workload {
  std::string name;
  WorkloadSpec gen;  ///< generator knobs; the seed comes from --seed
  QuerySpec query;
  uint32_t joiners = 3;
  uint64_t fixed_rate = 0;  ///< tuples/s of the fixed-rate phase
  bool served = false;      ///< through OijServer and a loopback client
};

/// The workload called `name`, seeded with `seed`; false if unknown.
bool FindWorkload(const std::string& name, uint64_t seed, Workload* out);

/// Pre-generated arrivals and the oracle's answer for them, built once
/// per run and shared by every repetition of both phases.
struct Inputs {
  std::vector<StreamEvent> events;
  std::vector<ReferenceResult> expected;  ///< SortResults order
  Digest digest;
  /// kEager only: every base tuple with its arrival index, in
  /// SortResults order, to find a result's due time.
  struct BaseRef {
    Timestamp ts;
    Key key;
    double payload;
    uint64_t index;
  };
  std::vector<BaseRef> bases;
};

/// Builds the inputs; the oracle is ReferenceJoinWithPolicy, evaluated
/// on `threads` shards of the bases in parallel. Returns false (with
/// *error set) if the generated input could make the engine's lateness
/// gate act, which would break the shards' independence.
bool BuildInputs(const Workload& w, unsigned threads, Inputs* out,
                 std::string* error);

enum class Phase { kSaturating, kFixedRate, kSetupOnly };

/// Punctuation cadence of the driver: every kPunctEvery tuples, or once
/// kPunctAfterNs of wall clock passed since the previous punctuation.
inline constexpr uint64_t kPunctEvery = 1024;
inline constexpr int64_t kPunctAfterNs = 1'000'000;
/// A fixed-rate driver further ahead of schedule than this sleeps.
inline constexpr int64_t kSleepAheadNs = 200'000;
/// Traced runs sample joiner ring occupancy every this many tuples.
inline constexpr uint64_t kRingSampleEvery = 4096;

/// Layer timings of a traced repetition.
struct TraceData {
  SpanLog spans;
  LogHistogram push_ns;  ///< per-Push latency
  double ring_fill_sum = 0.0;
  uint64_t ring_fill_samples = 0;
  // served client
  int64_t send_wait_ns = 0;  ///< blocked in poll on a full socket
  uint64_t bytes_received = 0;
};

/// Everything one repetition produced.
struct RepResult {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< first Push/send until Finish or summary
  uint64_t tuples = 0;
  int64_t t0_ns = 0;           ///< schedule origin (fixed-rate)
  double period_ns = 0.0;      ///< schedule spacing (fixed-rate)
  std::vector<int64_t> send_ns;  ///< per tuple (fixed-rate)
  std::vector<Punct> puncts;
  std::vector<ResultRec> results;
  EngineStats stats;
  ServerCounters server;  ///< served only
  double rss_growth_mb = 0.0;  ///< fixed-rate, untraced only
  double cpu_s = 0.0, sys_s = 0.0;
  uint64_t invol_csw = 0;
  int64_t finish_sent_ns = 0;  ///< served: kFinish queued
  std::string failure;  ///< non-empty: reset, eviction, abort, timeout
  TraceData trace;
};

/// When result (ts, key, payload) of `rep` became computable -- its
/// base's due time in kEager mode, the due time of the first punctuation
/// whose watermark passes its window end in kWatermark mode -- and the
/// punctuation interval that released it. False for a result released
/// only by the end-of-stream flush.
bool Attribute(const Workload& w, const Inputs& in, const RepResult& rep,
               Timestamp ts, Key key, double payload, int64_t* computable_ns,
               uint64_t* interval);

RepResult RunInProcess(const Workload& w, const Inputs& in, Phase phase,
                       bool traced);
RepResult RunServed(const Workload& w, const Inputs& in, Phase phase,
                    bool traced);

/// Resets the kernel's peak-RSS mark (VmHWM) after returning free heap
/// pages; returns the resident set in MiB right after the reset.
double ResetPeakRss();
/// VmHWM in MiB.
double PeakRssMb();

/// Runs the benchmark's self-tests; prints failures to stderr.
bool RunSelfTests();

}  // namespace oij::perfbench

#endif  // OIJ_PERFBENCH_BENCH_H_
