#ifndef OIJ_PERFBENCH_CHECK_H_
#define OIJ_PERFBENCH_CHECK_H_

// Output checking and latency arithmetic for the benchmark: the
// order-independent result digest, the exact comparison against the
// oracle, release-punctuation attribution and the percentile reporter.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "join/reference_join.h"

namespace oij::perfbench {

/// One result as the benchmark's sink or client received it.
struct ResultRec {
  Timestamp ts = kMinTimestamp;  ///< base tuple; kMinTimestamp = empty slot
  Key key = 0;
  double payload = 0.0;
  double aggregate = 0.0;
  uint64_t match_count = 0;
  int64_t recv_ns = 0;  ///< monotonic time the sink/client received it
};

/// Order-independent digest of a result multiset: a sum of per-result
/// hashes (so any permutation gives the same value) plus the count.
/// Aggregates enter quantized to 2^-20 relative precision, because the
/// engines sum in a different order than the oracle.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(Timestamp ts, Key key, double payload, double aggregate,
           uint64_t match_count);
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const std::vector<ResultRec>& results);
Digest DigestOf(const std::vector<ReferenceResult>& results);

/// Errors found by comparing a result set with the oracle's.
struct ErrorCounts {
  uint64_t missing = 0;     ///< expected, never received
  uint64_t duplicated = 0;  ///< received more than once
  uint64_t differing = 0;   ///< received with another aggregate or count,
                            ///< or received without being expected
  uint64_t total() const { return missing + duplicated + differing; }
};

/// Sorts `got` into canonical (ts, key, payload) order and counts every
/// missing, duplicated and differing result against `want`, which must
/// already be sorted with SortResults. A matching digest short-cuts the
/// per-result merge.
ErrorCounts CompareWithOracle(std::vector<ResultRec>* got,
                              const std::vector<ReferenceResult>& want,
                              const Digest& want_digest);

/// One watermark punctuation the driver sent. The k-th punctuation
/// closes punctuation interval k.
struct Punct {
  Timestamp watermark = kMinTimestamp;
  int64_t due_ns = 0;  ///< due time of the last tuple sent before it
  uint64_t sent = 0;   ///< tuples sent before it
};

/// Index of the first punctuation whose watermark is strictly greater
/// than `window_end` (the engines release a kWatermark-mode base exactly
/// then), or puncts.size() when none does: that result is released only
/// by the end-of-stream flush. `puncts` is in the order sent, so its
/// watermarks are non-decreasing.
size_t ReleasePunct(const std::vector<Punct>& puncts, Timestamp window_end);

/// The q-quantile (0 < q < 1) of `samples` by nearest rank. Refuses, by
/// returning false and leaving *out untouched, when fewer than 10 samples
/// lie beyond the quantile's rank. Reorders `samples`.
bool Percentile(std::vector<int64_t>* samples, double q, int64_t* out,
                std::string* error);

/// One latency sample: when its result became computable and its latency.
struct LatencySample {
  int64_t computable_ns;
  int64_t latency_ns;
};

/// Groups `samples` into consecutive windows of `window_ns` by when the
/// results became computable and appends each window's p50 and p99 (in
/// ms) to the outputs. Windows too small for a p99 with 10 samples
/// beyond it are skipped and counted in *skipped. Reorders `samples`.
void AddWindowPercentiles(std::vector<LatencySample>* samples,
                          int64_t window_ns, std::vector<double>* p50_ms,
                          std::vector<double>* p99_ms, size_t* skipped);

}  // namespace oij::perfbench

#endif  // OIJ_PERFBENCH_CHECK_H_
