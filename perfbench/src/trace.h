#ifndef OIJ_PERFBENCH_TRACE_H_
#define OIJ_PERFBENCH_TRACE_H_

// In-memory spans recorded by the benchmark around its calls into the
// engine, the server and the socket layer, written out when a run ends.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace oij::perfbench {

inline constexpr uint32_t kNoParent = UINT32_MAX;

/// One timed region. A plain span covers [start_ns, end_ns]. An
/// aggregated span stands for `calls` back-to-back calls of one kind
/// inside its parent (e.g. every Push of a punctuation interval): it
/// spans the first call's start to the last call's end, and `busy_ns`
/// is the time spent inside the calls themselves.
struct Span {
  const char* name = "";
  uint32_t parent = kNoParent;
  uint64_t interval = 0;  ///< punctuation interval the span belongs to
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool aggregated = false;
  uint64_t calls = 1;
  int64_t busy_ns = 0;
  int64_t max_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Accumulates the calls of one aggregated span.
struct CallAgg {
  uint64_t calls = 0;
  int64_t busy_ns = 0;
  int64_t max_ns = 0;
  int64_t first_ns = 0;
  int64_t last_ns = 0;

  void Add(int64_t start_ns, int64_t end_ns) {
    if (calls++ == 0) first_ns = start_ns;
    last_ns = end_ns;
    busy_ns += end_ns - start_ns;
    if (end_ns - start_ns > max_ns) max_ns = end_ns - start_ns;
  }
};

class SpanLog {
 public:
  /// Opens a plain span and returns its index (close it with Close).
  uint32_t Open(const char* name, uint32_t parent, uint64_t interval,
                int64_t start_ns);
  void Close(uint32_t span, int64_t end_ns) { spans_[span].end_ns = end_ns; }
  /// Records a closed plain span.
  uint32_t Add(const char* name, uint32_t parent, uint64_t interval,
               int64_t start_ns, int64_t end_ns);
  /// Records `agg` as an aggregated child of `parent`; no-op when empty.
  void AddAggregate(const char* name, uint32_t parent, uint64_t interval,
                    CallAgg* agg);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of it that its
/// children cover. Plain children count as the union of their intervals
/// clipped to the parent; aggregated children count as their busy time
/// (their calls run on the parent's thread, between its plain children).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Sums self time and calls per span name, in first-seen order.
struct NameTotals {
  std::string name;
  uint64_t spans = 0;
  uint64_t calls = 0;
  int64_t total_ns = 0;  ///< duration (busy time for aggregated spans)
  int64_t self_ns = 0;
};
std::vector<NameTotals> TotalsByName(const std::vector<Span>& spans);

/// Writes one JSON object per span, with its self time, to `path`.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Log-linear histogram of non-negative nanosecond durations with 32
/// sub-buckets per power of two (quantiles accurate to ~3%).
class LogHistogram {
 public:
  void Add(int64_t ns);
  /// Lower bound of the bucket holding the q-quantile; 0 when empty.
  int64_t Quantile(double q) const;

 private:
  static constexpr int kSub = 32;
  static constexpr int kBuckets = 64 + (63 - 6) * kSub;
  static int BucketOf(int64_t ns);
  static int64_t LowerBound(int bucket);

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

}  // namespace oij::perfbench

#endif  // OIJ_PERFBENCH_TRACE_H_
