#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace oij::perfbench {
namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

uint64_t QuantizeAggregate(double v) {
  if (std::isnan(v)) return 0x7ff8000000000000ull;
  int exp = 0;
  const double mantissa = std::frexp(v, &exp);
  const auto q = static_cast<int64_t>(std::llround(mantissa * (1 << 21)));
  return Mix(static_cast<uint64_t>(q)) ^ static_cast<uint64_t>(exp);
}

bool AggregatesMatch(double got, double want) {
  if (std::isnan(want)) return std::isnan(got);
  return std::abs(got - want) <= std::ldexp(std::abs(want), -19) + 1e-9;
}

// Canonical (ts, key, payload) order, as SortResults uses.
template <typename A, typename B>
int CompareBase(const A& a, const B& b) {
  if (a.ts != b.ts) return a.ts < b.ts ? -1 : 1;
  if (a.key != b.key) return a.key < b.key ? -1 : 1;
  if (a.payload != b.payload) return a.payload < b.payload ? -1 : 1;
  return 0;
}

}  // namespace

void Digest::Add(Timestamp ts, Key key, double payload, double aggregate,
                 uint64_t match_count) {
  uint64_t h = Mix(static_cast<uint64_t>(ts));
  h = Mix(h ^ key);
  h = Mix(h ^ Bits(payload));
  h = Mix(h ^ match_count);
  h = Mix(h ^ QuantizeAggregate(aggregate));
  sum += h;
  ++count;
}

Digest DigestOf(const std::vector<ResultRec>& results) {
  Digest d;
  for (const ResultRec& r : results) {
    d.Add(r.ts, r.key, r.payload, r.aggregate, r.match_count);
  }
  return d;
}

Digest DigestOf(const std::vector<ReferenceResult>& results) {
  Digest d;
  for (const ReferenceResult& r : results) {
    d.Add(r.base.ts, r.base.key, r.base.payload, r.aggregate, r.match_count);
  }
  return d;
}

ErrorCounts CompareWithOracle(std::vector<ResultRec>* got,
                              const std::vector<ReferenceResult>& want,
                              const Digest& want_digest) {
  ErrorCounts errors;
  if (DigestOf(*got) == want_digest) return errors;
  std::sort(got->begin(), got->end(), [](const ResultRec& a, const ResultRec& b) {
    return CompareBase(a, b) < 0;
  });
  struct BaseView {
    Timestamp ts;
    Key key;
    double payload;
  };
  auto want_base = [&](size_t j) {
    return BaseView{want[j].base.ts, want[j].base.key, want[j].base.payload};
  };
  const ResultRec* last_matched = nullptr;
  size_t i = 0;
  size_t j = 0;
  while (i < got->size() || j < want.size()) {
    const ResultRec* g = i < got->size() ? &(*got)[i] : nullptr;
    const int order = g == nullptr ? 1
                      : j == want.size()
                          ? -1
                          : CompareBase(*g, want_base(j));
    if (order < 0) {
      if (last_matched != nullptr && CompareBase(*g, *last_matched) == 0) {
        ++errors.duplicated;
      } else {
        ++errors.differing;
      }
      ++i;
    } else if (order > 0) {
      ++errors.missing;
      ++j;
    } else {
      if (g->match_count != want[j].match_count ||
          !AggregatesMatch(g->aggregate, want[j].aggregate)) {
        ++errors.differing;
      }
      last_matched = g;
      ++i;
      ++j;
    }
  }
  return errors;
}

size_t ReleasePunct(const std::vector<Punct>& puncts, Timestamp window_end) {
  const auto it = std::upper_bound(
      puncts.begin(), puncts.end(), window_end,
      [](Timestamp end, const Punct& p) { return end < p.watermark; });
  return static_cast<size_t>(it - puncts.begin());
}

bool Percentile(std::vector<int64_t>* samples, double q, int64_t* out,
                std::string* error) {
  const size_t n = samples->size();
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || rank == 0 || n - std::min(rank, n) < 10) {
    *error = "refusing p" + std::to_string(q * 100.0) + " of " +
             std::to_string(n) + " samples: fewer than 10 lie beyond it";
    return false;
  }
  auto nth = samples->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples->begin(), nth, samples->end());
  *out = *nth;
  return true;
}

void AddWindowPercentiles(std::vector<LatencySample>* samples,
                          int64_t window_ns, std::vector<double>* p50_ms,
                          std::vector<double>* p99_ms, size_t* skipped) {
  std::sort(samples->begin(), samples->end(),
            [](const LatencySample& a, const LatencySample& b) {
              return a.computable_ns < b.computable_ns;
            });
  std::vector<int64_t> window;
  std::string error;
  size_t i = 0;
  while (i < samples->size()) {
    const int64_t id = (*samples)[i].computable_ns / window_ns;
    window.clear();
    for (; i < samples->size() && (*samples)[i].computable_ns / window_ns == id;
         ++i) {
      window.push_back((*samples)[i].latency_ns);
    }
    int64_t p50 = 0;
    int64_t p99 = 0;
    if (!Percentile(&window, 0.99, &p99, &error) ||
        !Percentile(&window, 0.50, &p50, &error)) {
      ++*skipped;
      continue;
    }
    p50_ms->push_back(static_cast<double>(p50) * 1e-6);
    p99_ms->push_back(static_cast<double>(p99) * 1e-6);
  }
}

}  // namespace oij::perfbench
