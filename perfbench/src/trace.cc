#include "trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <unordered_map>

namespace oij::perfbench {

uint32_t SpanLog::Open(const char* name, uint32_t parent, uint64_t interval,
                       int64_t start_ns) {
  return Add(name, parent, interval, start_ns, start_ns);
}

uint32_t SpanLog::Add(const char* name, uint32_t parent, uint64_t interval,
                      int64_t start_ns, int64_t end_ns) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.interval = interval;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanLog::AddAggregate(const char* name, uint32_t parent,
                           uint64_t interval, CallAgg* agg) {
  if (agg->calls == 0) return;
  const uint32_t i = Add(name, parent, interval, agg->first_ns, agg->last_ns);
  spans_[i].aggregated = true;
  spans_[i].calls = agg->calls;
  spans_[i].busy_ns = agg->busy_ns;
  spans_[i].max_ns = agg->max_ns;
  *agg = CallAgg{};
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<uint32_t>> children(spans.size());
  for (uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoParent) children[spans[i].parent].push_back(i);
  }
  std::vector<int64_t> self(spans.size());
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (uint32_t p = 0; p < spans.size(); ++p) {
    const Span& parent = spans[p];
    int64_t covered = 0;
    cover.clear();
    for (uint32_t c : children[p]) {
      const Span& child = spans[c];
      if (child.aggregated) {
        covered += child.busy_ns;
        continue;
      }
      const int64_t lo = std::max(child.start_ns, parent.start_ns);
      const int64_t hi = std::min(child.end_ns, parent.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    const int64_t own =
        parent.aggregated ? parent.busy_ns : parent.duration_ns();
    self[p] = std::max<int64_t>(0, own - covered);
  }
  return self;
}

std::vector<NameTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<NameTotals> out;
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto [it, fresh] = index.emplace(s.name, out.size());
    if (fresh) out.push_back(NameTotals{s.name});
    NameTotals& t = out[it->second];
    ++t.spans;
    t.calls += s.calls;
    t.total_ns += s.aggregated ? s.busy_ns : s.duration_ns();
    t.self_ns += self[i];
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                 "\"interval\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"calls\":%llu,\"busy_ns\":%lld,\"max_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 i, s.name,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.interval),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.calls),
                 static_cast<long long>(s.aggregated ? s.busy_ns
                                                     : s.duration_ns()),
                 static_cast<long long>(s.max_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

int LogHistogram::BucketOf(int64_t ns) {
  if (ns < 64) return ns < 0 ? 0 : static_cast<int>(ns);
  const auto v = static_cast<uint64_t>(ns);
  const int exp = std::bit_width(v) - 1;  // >= 6
  const int sub = static_cast<int>((v >> (exp - 5)) & (kSub - 1));
  return std::min(64 + (exp - 6) * kSub + sub, kBuckets - 1);
}

int64_t LogHistogram::LowerBound(int bucket) {
  if (bucket < 64) return bucket;
  const int exp = (bucket - 64) / kSub + 6;
  const int sub = (bucket - 64) % kSub;
  return (int64_t{1} << exp) + (static_cast<int64_t>(sub) << (exp - 5));
}

void LogHistogram::Add(int64_t ns) {
  ++counts_[BucketOf(ns)];
  ++count_;
}

int64_t LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const auto target = static_cast<uint64_t>(q * static_cast<double>(count_));
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen > target) return LowerBound(b);
  }
  return LowerBound(kBuckets - 1);
}

}  // namespace oij::perfbench
