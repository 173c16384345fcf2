#ifndef OIJ_METRICS_STATS_VISITOR_H_
#define OIJ_METRICS_STATS_VISITOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "metrics/latency_recorder.h"
#include "metrics/prometheus.h"

namespace oij {

/// How an exported number renders.
enum class StatKind : uint8_t {
  kCounter,  ///< monotone; a derived Prometheus name ends in `_total`
  kGauge,
  kFlag,     ///< /statz true/false, Prometheus gauge 1/0
};

/// One walk over a process's stats feeds every admin format (after
/// Envoy's `foreachStat`): each component writes a single Visit*Stats
/// function against this interface, and JsonWriter (/statz) and
/// PrometheusStatsWriter (/metrics) render what it visits.
///
/// The walk mirrors the /statz document: Object/Array/Element open JSON
/// containers, End closes the innermost. Every Counter/Gauge/Flag is
/// also a Prometheus sample unless ExportToPrometheus(false) is in
/// effect. Its family is derived as the visitor's prefix, the /statz
/// path of non-element keys joined by '_', and `_total` for counters;
/// `prom` overrides that only for names older than the rule. Elements of an array carry the
/// array's label: `label=<index>` for bare numbers, `label=<value>` for
/// objects opened with Element(value).
class StatsVisitor {
 public:
  explicit StatsVisitor(std::string prefix = {}) : prefix_(std::move(prefix)) {}
  virtual ~StatsVisitor() = default;

  void Object(std::string_view key) { Open(key, false, {}, {}); }
  void Array(std::string_view key, std::string_view label = {}) {
    Open(key, true, label, {});
  }
  void Element(std::string_view label_value) {
    Open({}, false, {}, label_value);
  }
  void End();

  void Counter(std::string_view key, MetricValue value,
               std::string_view prom = {}, std::string_view help = {},
               PrometheusLabels labels = {}) {
    Visit(StatKind::kCounter, key, value, prom, help, std::move(labels), true);
  }
  void Gauge(std::string_view key, MetricValue value,
             std::string_view prom = {}, std::string_view help = {},
             PrometheusLabels labels = {}) {
    Visit(StatKind::kGauge, key, value, prom, help, std::move(labels), true);
  }
  void Flag(std::string_view key, bool value, std::string_view prom = {},
            std::string_view help = {}) {
    Visit(StatKind::kFlag, key, value, prom, help, {}, true);
  }

  /// /statz-only numbers: identity and spec fields and sentinels (a
  /// non-finite `value` renders as JSON null).
  void Field(std::string_view key, MetricValue value) {
    Visit(StatKind::kGauge, key, value, {}, {}, {}, false);
  }
  void Text(std::string_view key, std::string_view value);

  /// The latency histogram: a Prometheus histogram family, no /statz
  /// form (the walk visits its summary quantiles as gauges).
  virtual void Histogram(std::string_view prom, std::string_view help,
                         const LatencyRecorder& recorder) = 0;

  /// Keeps the numbers visited until the next call off /metrics while
  /// `on` is false (series that exist only in some states).
  void ExportToPrometheus(bool on) { export_ = on; }

 protected:
  /// One visited number, resolved for every format.
  struct Sample {
    StatKind kind = StatKind::kGauge;
    std::string_view key;  ///< /statz key; empty inside a number array
    MetricValue value;
    std::string series;    ///< Prometheus family; empty = /statz only
    std::string_view help;
    PrometheusLabels labels;
  };

  virtual void OnOpen(std::string_view /*key*/, char /*bracket*/) {}
  virtual void OnClose(char /*bracket*/) {}
  virtual void OnNumber(const Sample& sample) = 0;
  virtual void OnText(std::string_view /*key*/, std::string_view /*value*/) {}
  /// The /statz path ('.'-joined keys and array indices) of the number
  /// OnNumber is handling; built on demand, no writer needs it.
  std::string Path(std::string_view key) const;

 private:
  struct Frame {
    std::string key;     ///< /statz key, or the index of an element
    bool array = false;
    bool element = false;
    std::string label;   ///< array: label its elements carry
    std::string label_value;  ///< element: its label's value
    size_t items = 0;    ///< array: elements visited so far
  };

  void Open(std::string_view key, bool array, std::string_view label,
            std::string_view label_value);
  void Visit(StatKind kind, std::string_view key, MetricValue value,
             std::string_view prom, std::string_view help,
             PrometheusLabels labels, bool exported);

  std::string prefix_;
  std::vector<Frame> frames_;
  bool export_ = true;
};

/// Renders a walk as the /statz JSON document (`{...}\n`).
class JsonWriter : public StatsVisitor {
 public:
  JsonWriter() : out_("{") {}
  void Histogram(std::string_view, std::string_view,
                 const LatencyRecorder&) override {}
  std::string Take();

 protected:
  void OnOpen(std::string_view key, char bracket) override;
  void OnClose(char bracket) override;
  void OnNumber(const Sample& sample) override;
  void OnText(std::string_view key, std::string_view value) override;

 private:
  void Key(std::string_view key);
  void String(std::string_view s);

  std::string out_;
  bool comma_ = false;
};

/// Renders a walk as a Prometheus text-exposition document; `prefix`
/// (`oij_`, `oij_router_`) starts every derived family name.
class PrometheusStatsWriter : public StatsVisitor {
 public:
  explicit PrometheusStatsWriter(std::string prefix)
      : StatsVisitor(std::move(prefix)) {}
  void Histogram(std::string_view prom, std::string_view help,
                 const LatencyRecorder& recorder) override {
    writer_.Histogram(prom, help, recorder);
  }
  std::string Take() { return writer_.Take(); }

 protected:
  void OnNumber(const Sample& sample) override;

 private:
  PrometheusWriter writer_;
};

}  // namespace oij

#endif  // OIJ_METRICS_STATS_VISITOR_H_
