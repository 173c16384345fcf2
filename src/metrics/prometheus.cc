#include "metrics/prometheus.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace oij {

namespace {

/// Backslash-escapes backslash, newline and, when `quote`, '"' (label
/// values escape all three, HELP text leaves quotes alone).
void AppendEscaped(std::string* out, std::string_view in, bool quote) {
  for (char c : in) {
    if (c == '\n') {
      *out += "\\n";
      continue;
    }
    if (c == '\\' || (quote && c == '"')) out->push_back('\\');
    out->push_back(c);
  }
}

bool NameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

}  // namespace

std::string FormatMetricValue(MetricValue value) {
  char buf[64];
  const auto chars = [&buf](auto v) {
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  };
  const double* d = std::get_if<double>(&value.value);
  if (d == nullptr) return std::visit(chars, value.value);
  if (std::isnan(*d)) return "NaN";
  if (std::isinf(*d)) return *d > 0 ? "+Inf" : "-Inf";
  // Integral doubles print without a fractional part (2^63 bounds int64).
  if (*d == std::floor(*d) && std::abs(*d) <= 0x1p63) {
    std::snprintf(buf, sizeof(buf), "%.0f", *d);
    return buf;
  }
  return chars(*d);
}

std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') out.push_back('_');
  for (char c : name) out.push_back(NameChar(c) ? c : '_');
  if (out.empty()) out = "_";
  return out;
}

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  AppendEscaped(&out, value, /*quote=*/true);
  return out;
}

std::string* PrometheusWriter::Family(const std::string& name,
                                      std::string_view help,
                                      std::string_view type) {
  auto it = std::find_if(families_.begin(), families_.end(),
                         [&](const auto& f) { return f.first == name; });
  if (it != families_.end()) return &it->second;
  std::string& text =
      families_.emplace_back(name, "# HELP " + name + " ").second;
  AppendEscaped(&text, help, /*quote=*/false);
  text += "\n# TYPE " + name + " ";
  text += type;
  text += "\n";
  return &text;
}

void PrometheusWriter::Sample(std::string* text, const std::string& name,
                              const PrometheusLabels& labels,
                              MetricValue value) {
  *text += name;
  if (!labels.empty()) {
    *text += "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) *text += ",";
      first = false;
      *text += SanitizeMetricName(k) + "=\"" + EscapeLabelValue(v) + "\"";
    }
    *text += "}";
  }
  *text += " " + FormatMetricValue(value) + "\n";
}

void PrometheusWriter::Counter(std::string_view name, std::string_view help,
                               MetricValue value,
                               const PrometheusLabels& labels) {
  const std::string n = SanitizeMetricName(name);
  Sample(Family(n, help, "counter"), n, labels, value);
}

void PrometheusWriter::Gauge(std::string_view name, std::string_view help,
                             MetricValue value,
                             const PrometheusLabels& labels) {
  const std::string n = SanitizeMetricName(name);
  Sample(Family(n, help, "gauge"), n, labels, value);
}

void PrometheusWriter::Histogram(std::string_view name, std::string_view help,
                                 const LatencyRecorder& recorder,
                                 const PrometheusLabels& labels) {
  const std::string n = SanitizeMetricName(name);
  std::string* text = Family(n, help, "histogram");
  for (const auto& bucket : recorder.CumulativeBuckets()) {
    PrometheusLabels with_le = labels;
    with_le.emplace_back("le", FormatMetricValue(bucket.upper_us));
    Sample(text, n + "_bucket", with_le, bucket.cumulative_count);
  }
  PrometheusLabels inf = labels;
  inf.emplace_back("le", "+Inf");
  Sample(text, n + "_bucket", inf, recorder.count());
  Sample(text, n + "_sum", labels, recorder.sum_us());
  Sample(text, n + "_count", labels, recorder.count());
}

std::string PrometheusWriter::text() const {
  std::string out;
  for (const auto& family : families_) out += family.second;
  return out;
}

std::string PrometheusWriter::Take() {
  std::string out = text();
  families_.clear();
  return out;
}

}  // namespace oij
