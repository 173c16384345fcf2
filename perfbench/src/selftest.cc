// Self-tests of the benchmark's own arithmetic, run before every
// measurement so a broken checker can never report a clean result.

#include <cstdio>

#include "bench.h"

namespace oij::perfbench {
namespace {

bool Expect(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "perfbench self-test failed: %s\n", what);
  return ok;
}

bool TestDigestCatchesFlipAndDrop() {
  std::vector<ReferenceResult> want;
  std::vector<ResultRec> got;
  for (int i = 0; i < 100; ++i) {
    ReferenceResult r;
    r.base = Tuple{1000 + i, static_cast<Key>(i % 7), 0.5 * i};
    r.aggregate = 12.25 * i;
    r.match_count = static_cast<uint64_t>(i);
    want.push_back(r);
    // Received in reverse order, with summation-order rounding noise.
    got.insert(got.begin(), ResultRec{r.base.ts, r.base.key, r.base.payload,
                                      r.aggregate * (1 + 1e-12),
                                      r.match_count, 0});
  }
  SortResults(&want);
  const Digest digest = DigestOf(want);
  bool ok = Expect(DigestOf(got) == digest, "digest is order-independent");
  std::vector<ResultRec> copy = got;
  ok &= Expect(CompareWithOracle(&copy, want, digest).total() == 0,
               "an exact result set has no errors");

  std::vector<ResultRec> flipped = got;
  flipped[40].aggregate = -flipped[40].aggregate - 1.0;
  ok &= Expect(!(DigestOf(flipped) == digest), "digest catches a flipped aggregate");
  const ErrorCounts f = CompareWithOracle(&flipped, want, digest);
  ok &= Expect(f.differing == 1 && f.total() == 1, "one differing result");

  std::vector<ResultRec> dropped = got;
  dropped.erase(dropped.begin() + 17);
  ok &= Expect(!(DigestOf(dropped) == digest), "digest catches a dropped result");
  const ErrorCounts d = CompareWithOracle(&dropped, want, digest);
  ok &= Expect(d.missing == 1 && d.total() == 1, "one missing result");

  std::vector<ResultRec> doubled = got;
  doubled.push_back(doubled[3]);
  const ErrorCounts u = CompareWithOracle(&doubled, want, digest);
  ok &= Expect(u.duplicated == 1 && u.total() == 1, "one duplicated result");
  return ok;
}

bool TestReleaseAttribution() {
  const std::vector<Punct> puncts = {
      {10, 0, 0}, {20, 0, 0}, {20, 0, 0}, {30, 0, 0}};
  bool ok = Expect(ReleasePunct(puncts, 5) == 0, "window end below every watermark");
  ok &= Expect(ReleasePunct(puncts, 19) == 1, "first watermark above the end");
  ok &= Expect(ReleasePunct(puncts, 20) == 3,
               "a watermark equal to the window end does not release it");
  ok &= Expect(ReleasePunct(puncts, 30) == 4, "released only by the flush");
  return ok;
}

bool TestPercentileRefusal() {
  std::string error;
  int64_t v = -1;
  std::vector<int64_t> s(1000);
  for (int i = 0; i < 1000; ++i) s[i] = 1000 - i;
  bool ok = Expect(Percentile(&s, 0.99, &v, &error) && v == 990,
                   "p99 of 1000 samples leaves 10 beyond it");
  s.pop_back();
  v = -1;
  ok &= Expect(!Percentile(&s, 0.99, &v, &error) && v == -1,
               "p99 of 999 samples is refused");
  std::vector<int64_t> few(19, 7);
  ok &= Expect(!Percentile(&few, 0.5, &v, &error), "p50 of 19 samples is refused");
  few.push_back(7);
  ok &= Expect(Percentile(&few, 0.5, &v, &error) && v == 7, "p50 of 20 samples");
  return ok;
}

bool TestWindowPercentiles() {
  // Three full 1 ms windows, one hit by a 5 ms stall, and a sparse tail.
  std::vector<LatencySample> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      const int64_t latency = w == 1 && i >= 900 ? 5'000'000 : 100'000 + i;
      samples.push_back({w * 1'000'000 + i, latency});
    }
  }
  samples.push_back({3'500'000, 1});
  std::vector<double> p50, p99;
  size_t skipped = 0;
  AddWindowPercentiles(&samples, 1'000'000, &p50, &p99, &skipped);
  bool ok = Expect(p99.size() == 3 && skipped == 1,
                   "windows too small for a p99 are skipped");
  ok &= Expect(p99.size() == 3 && p99[0] < 0.2 && p99[1] == 5.0 && p99[2] < 0.2,
               "a stall raises only its own window's p99");
  return ok;
}

bool TestSelfTime() {
  SpanLog log;
  const uint32_t root = log.Add("root", kNoParent, 0, 0, 100);
  const uint32_t a = log.Add("a", root, 0, 10, 30);
  log.Add("b", root, 0, 20, 50);   // overlaps a: union [10, 50]
  log.Add("c", root, 0, 90, 120);  // clipped to [90, 100]
  log.Add("grandchild", a, 0, 12, 14);
  CallAgg calls;
  calls.Add(60, 65);
  calls.Add(70, 80);
  log.AddAggregate("agg", root, 0, &calls);  // busy 15
  const std::vector<int64_t> self = SelfTimes(log.spans());
  bool ok = Expect(self[root] == 100 - 40 - 10 - 15, "root self time");
  ok &= Expect(self[a] == 18, "child self time");
  ok &= Expect(self[5] == 15, "aggregated span self time is its busy time");
  return ok;
}

}  // namespace

bool RunSelfTests() {
  bool ok = TestDigestCatchesFlipAndDrop();
  ok &= TestReleaseAttribution();
  ok &= TestPercentileRefusal();
  ok &= TestWindowPercentiles();
  ok &= TestSelfTime();
  return ok;
}

}  // namespace oij::perfbench
