#ifndef OIJ_METRICS_PROMETHEUS_H_
#define OIJ_METRICS_PROMETHEUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "metrics/latency_recorder.h"

namespace oij {

/// Prometheus text-exposition (version 0.0.4) rendering for the admin
/// endpoint's /metrics page. Only the subset the serving layer needs:
/// counters, gauges, and histograms derived from LatencyRecorder.

/// One exported number. Integers keep their exact value whatever their
/// width (a double rounds past 2^53: nanosecond watermarks, INT64
/// sentinels, large byte counters).
struct MetricValue {
  using Rep = std::variant<int64_t, uint64_t, double>;
  template <typename T, std::enable_if_t<std::is_arithmetic_v<T>, int> = 0>
  MetricValue(T v)  // NOLINT: implicit by design
      : value(std::is_floating_point_v<T> ? Rep(static_cast<double>(v))
              : std::is_signed_v<T>       ? Rep(static_cast<int64_t>(v))
                                          : Rep(static_cast<uint64_t>(v))) {}
  Rep value;
};

/// The one number formatter of every admin format (/metrics and /statz):
/// integers exactly, integral doubles up to 2^63 without a fractional
/// part, everything else as the shortest string that round-trips;
/// NaN/+Inf/-Inf spelled the Prometheus way (JSON renders non-finite
/// values as null instead).
std::string FormatMetricValue(MetricValue v);

/// Replaces every character outside [a-zA-Z0-9_:] with '_' (and prefixes
/// '_' when the first character is a digit) so arbitrary labels from
/// presets/engine names can never produce an unparseable metric name.
std::string SanitizeMetricName(std::string_view name);

/// Escapes backslash, double-quote, and newline per the exposition
/// format's label-value rules.
std::string EscapeLabelValue(std::string_view value);

/// One ("name", "value") label pair; values are escaped at render time.
using PrometheusLabels = std::vector<std::pair<std::string, std::string>>;

/// Accumulates one exposition document. Samples are buffered per family
/// and families come out in first-use order, each as one contiguous
/// group under a single HELP/TYPE header pair, whatever order the
/// samples were added in.
class PrometheusWriter {
 public:
  void Counter(std::string_view name, std::string_view help,
               MetricValue value, const PrometheusLabels& labels = {});
  void Gauge(std::string_view name, std::string_view help, MetricValue value,
             const PrometheusLabels& labels = {});

  /// Renders `recorder` as a native histogram family: cumulative
  /// `_bucket{le="..."}` samples (exact integer counts, monotone by
  /// construction), the mandatory `le="+Inf"` bucket, `_sum`, and
  /// `_count`.
  void Histogram(std::string_view name, std::string_view help,
                 const LatencyRecorder& recorder,
                 const PrometheusLabels& labels = {});

  std::string text() const;
  std::string Take();

 private:
  /// The buffer of family `name`, created with its headers on first use.
  std::string* Family(const std::string& name, std::string_view help,
                      std::string_view type);
  static void Sample(std::string* text, const std::string& name,
                     const PrometheusLabels& labels, MetricValue value);

  /// (name, HELP + TYPE + samples), in first-use order.
  std::vector<std::pair<std::string, std::string>> families_;
};

}  // namespace oij

#endif  // OIJ_METRICS_PROMETHEUS_H_
