#include "metrics/stats_visitor.h"

#include <cmath>
#include <cstdio>

namespace oij {

void StatsVisitor::Open(std::string_view key, bool array,
                        std::string_view label, std::string_view label_value) {
  OnOpen(key, array ? '[' : '{');
  // An object opened directly inside an array is one of its elements.
  const bool element = !frames_.empty() && frames_.back().array;
  Frame f{std::string(key), array, element, std::string(label),
          std::string(label_value)};
  if (element) f.key = std::to_string(frames_.back().items++);
  frames_.push_back(std::move(f));
}

void StatsVisitor::End() {
  OnClose(frames_.back().array ? ']' : '}');
  frames_.pop_back();
}

void StatsVisitor::Text(std::string_view key, std::string_view value) {
  if (!frames_.empty() && frames_.back().array) ++frames_.back().items;
  OnText(key, value);
}

void StatsVisitor::Visit(StatKind kind, std::string_view key, MetricValue value,
                         std::string_view prom, std::string_view help,
                         PrometheusLabels labels, bool exported) {
  Sample s{kind, key, value, {}, help, {}};
  std::string derived = prefix_;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.element) {
      s.labels.emplace_back(frames_[i - 1].label, f.label_value);
    } else {
      derived += f.key + "_";
    }
  }
  if (!frames_.empty() && frames_.back().array) {
    s.labels.emplace_back(frames_.back().label,
                          std::to_string(frames_.back().items++));
  } else {
    derived += key;
  }
  if (!derived.empty() && derived.back() == '_') derived.pop_back();
  if (kind == StatKind::kCounter) derived += "_total";
  for (auto& label : labels) s.labels.push_back(std::move(label));
  if (exported && export_) s.series = prom.empty() ? derived : prom;
  OnNumber(s);
}

std::string StatsVisitor::Path(std::string_view key) const {
  std::string path;
  for (const Frame& f : frames_) path += f.key + ".";
  // Visit has already counted this number into its array.
  if (!frames_.empty() && frames_.back().array) {
    return path + std::to_string(frames_.back().items - 1);
  }
  return path.append(key);
}

std::string JsonWriter::Take() {
  out_ += "}\n";
  return std::move(out_);
}

void JsonWriter::Key(std::string_view key) {
  if (comma_) out_ += ',';
  comma_ = false;
  if (key.empty()) return;
  String(key);
  out_ += ':';
}

void JsonWriter::String(std::string_view s) {
  out_ += '"';
  for (char c : s) {
    const char* esc = c == '"'    ? "\\\""
                      : c == '\\' ? "\\\\"
                      : c == '\n'  ? "\\n"
                      : c == '\r'  ? "\\r"
                      : c == '\t'  ? "\\t"
                                   : nullptr;
    if (esc != nullptr) {
      out_ += esc;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

void JsonWriter::OnOpen(std::string_view key, char bracket) {
  Key(key);
  out_ += bracket;
}

void JsonWriter::OnClose(char bracket) {
  out_ += bracket;
  comma_ = true;
}

void JsonWriter::OnNumber(const Sample& sample) {
  Key(sample.key);
  const double* d = std::get_if<double>(&sample.value.value);
  if (sample.kind == StatKind::kFlag) {
    out_ += std::get<uint64_t>(sample.value.value) != 0 ? "true" : "false";
  } else if (d != nullptr && !std::isfinite(*d)) {
    out_ += "null";
  } else {
    out_ += FormatMetricValue(sample.value);
  }
  comma_ = true;
}

void JsonWriter::OnText(std::string_view key, std::string_view value) {
  Key(key);
  String(value);
  comma_ = true;
}

void PrometheusStatsWriter::OnNumber(const Sample& sample) {
  if (sample.series.empty()) return;
  if (sample.kind == StatKind::kCounter) {
    writer_.Counter(sample.series, sample.help, sample.value, sample.labels);
  } else {
    writer_.Gauge(sample.series, sample.help, sample.value, sample.labels);
  }
}

}  // namespace oij
