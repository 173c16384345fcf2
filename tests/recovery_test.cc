// Crash-recovery exactness tests (in-process): run an engine with
// durability on, crash it mid-stream with CrashForTest (the kill -9
// model: buffered WAL bytes drop, no final flush), recover a second
// engine from the same directory, feed it the rest of the stream, and
// diff the union of everything either engine emitted against the
// policy-aware reference oracle over the full input.
//
// Under fsync=per_batch every watermark broadcast is preceded by a full
// sync, so crashing right after a punctuation loses nothing and the
// diff must be *exact* — across both index engines, both lateness
// policies, with and without snapshots/truncation, and under injected
// disk faults the result may only shrink (bounded loss), never corrupt.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "core/engine_factory.h"
#include "join/reference_join.h"
#include "join/watermark.h"
#include "stream/generator.h"
#include "wal/wal_reader.h"

namespace oij {
namespace {

std::vector<StreamEvent> Generate(const WorkloadSpec& spec) {
  WorkloadGenerator gen(spec);
  std::vector<StreamEvent> events;
  StreamEvent ev;
  while (gen.Next(&ev)) events.push_back(ev);
  return events;
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/oij_recovery_test_XXXXXX";
    char* p = mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path_ = p;
  }
  ~TempDir() {
    if (path_.empty()) return;
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

WorkloadSpec RecoveryWorkload(uint64_t seed) {
  WorkloadSpec w;
  w.num_keys = 16;
  w.window = IntervalWindow{500, 0};
  w.lateness_us = 80;
  w.disorder_bound_us = 80;
  w.total_tuples = 12'000;
  w.seed = seed;
  return w;
}

QuerySpec RecoveryQuery(LatePolicy policy) {
  QuerySpec q;
  q.window = IntervalWindow{500, 0};
  q.lateness_us = 80;
  q.emit_mode = EmitMode::kWatermark;
  q.late_policy = policy;
  return q;
}

using BaseKey = std::tuple<Timestamp, Key, double>;

/// Union-dedupe by base tuple: replay re-emits results the first run
/// already externalized (at-least-once across a crash), so a map keyed
/// by base collapses them. With durable inputs (per_batch) both copies
/// must agree; in a lossy regime (interval with an unsynced tail) the
/// re-emission may have *fewer* matches — its probes died in the tail —
/// so keep the most complete copy instead of asserting agreement.
void Accumulate(std::map<BaseKey, JoinResult>* acc,
                const std::vector<JoinResult>& results,
                const std::string& label, bool lossy = false) {
  for (const JoinResult& r : results) {
    const BaseKey key{r.base.ts, r.base.key, r.base.payload};
    const auto [it, inserted] = acc->emplace(key, r);
    if (!inserted) {
      if (lossy) {
        if (r.match_count > it->second.match_count) it->second = r;
      } else {
        EXPECT_EQ(it->second.match_count, r.match_count)
            << label << ": replayed duplicate disagrees with the original";
      }
    }
  }
}

void ExpectUnionExact(const std::map<BaseKey, JoinResult>& got,
                      const std::vector<ReferenceResult>& expected,
                      const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label << ": cardinality";
  size_t mismatches = 0;
  for (const ReferenceResult& want : expected) {
    const auto it =
        got.find(BaseKey{want.base.ts, want.base.key, want.base.payload});
    if (it == got.end()) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << label << ": missing base ts=" << want.base.ts
                      << " key=" << want.base.key;
      }
      continue;
    }
    if (it->second.match_count != want.match_count ||
        std::abs(it->second.aggregate - want.aggregate) > 1e-6) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << label << ": base ts=" << want.base.ts
                      << " got(count=" << it->second.match_count
                      << ", agg=" << it->second.aggregate << ") want(count="
                      << want.match_count << ", agg=" << want.aggregate
                      << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

struct CrashRunResult {
  std::map<BaseKey, JoinResult> results;
  EngineStats recovered_stats;
  WalStats recovered_wal;
};

/// Drives `events` through two engine incarnations sharing one WAL dir:
/// the first processes `crash_at` arrivals (a multiple of `wm_every`,
/// so the punctuation cadence matches the oracle) and is then crashed;
/// the second recovers and finishes the stream.
CrashRunResult CrashAndRecover(EngineKind kind, const QuerySpec& query,
                               const EngineOptions& base_options,
                               const std::vector<StreamEvent>& events,
                               size_t crash_at, uint64_t wm_every,
                               const std::string& label,
                               bool lossy = false) {
  CrashRunResult out;
  WatermarkTracker tracker(query.lateness_us);

  CollectingSink sink1;
  auto engine1 = CreateEngine(kind, query, base_options, &sink1);
  EXPECT_TRUE(engine1->Start().ok()) << label;
  uint64_t n = 0;
  for (size_t i = 0; i < crash_at; ++i) {
    tracker.Observe(events[i].tuple.ts);
    engine1->Push(events[i], MonotonicNowUs());
    if (++n % wm_every == 0) engine1->SignalWatermark(tracker.watermark());
  }
  // Crash immediately after the last punctuation: under per_batch the
  // sync barrier ran before that watermark was broadcast, so the whole
  // prefix is durable and recovery must be exact.
  engine1->CrashForTest();
  Accumulate(&out.results, sink1.TakeResults(), label + "/pre-crash", lossy);

  CollectingSink sink2;
  auto engine2 = CreateEngine(kind, query, base_options, &sink2);
  EXPECT_TRUE(engine2->Start().ok()) << label;
  EXPECT_TRUE(engine2->Recover().ok()) << label;
  EXPECT_FALSE(engine2->Recovering()) << label;
  out.recovered_wal = engine2->SampleWal();
  for (size_t i = crash_at; i < events.size(); ++i) {
    tracker.Observe(events[i].tuple.ts);
    engine2->Push(events[i], MonotonicNowUs());
    if (++n % wm_every == 0) engine2->SignalWatermark(tracker.watermark());
  }
  out.recovered_stats = engine2->Finish();
  Accumulate(&out.results, sink2.TakeResults(), label + "/recovered", lossy);
  return out;
}

// -------------------------------------------- exactness grid (per_batch)

class RecoveryExactnessTest
    : public ::testing::TestWithParam<std::tuple<EngineKind, LatePolicy>> {};

TEST_P(RecoveryExactnessTest, CrashAfterBarrierRecoversExactly) {
  const auto [kind, policy] = GetParam();
  WorkloadSpec w = RecoveryWorkload(901);
  if (policy == LatePolicy::kDropAndCount) {
    // Give the gate something to drop so the policies actually diverge;
    // replay must reproduce every drop decision.
    w.late_flood_fraction = 0.10;
    w.late_flood_extra_us = 60;
  }
  const auto events = Generate(w);
  const QuerySpec query = RecoveryQuery(policy);
  constexpr uint64_t kWmEvery = 64;
  const size_t crash_at = (events.size() / 2 / kWmEvery) * kWmEvery;

  auto expected = ReferenceJoinWithPolicy(events, query, kWmEvery);

  TempDir dir;
  EngineOptions options;
  options.num_joiners = 3;
  options.durability.wal_dir = dir.path();
  options.durability.fsync = FsyncPolicy::kPerBatch;
  options.durability.snapshot_interval_records = 3'000;

  const std::string label = std::string(EngineKindName(kind)) + "/" +
                            std::string(LatePolicyName(policy));
  const CrashRunResult run = CrashAndRecover(kind, query, options, events,
                                             crash_at, kWmEvery, label);

  EXPECT_GT(run.recovered_wal.replay_records, 0u) << label;
  EXPECT_GT(run.recovered_wal.replay_watermarks, 0u) << label;
  EXPECT_GE(run.recovered_wal.recovery_duration_us, 0) << label;
  ExpectUnionExact(run.results, expected, label);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesTimesPolicies, RecoveryExactnessTest,
    ::testing::Combine(::testing::Values(EngineKind::kKeyOij,
                                         EngineKind::kScaleOij),
                       ::testing::Values(LatePolicy::kBestEffortJoin,
                                         LatePolicy::kDropAndCount)),
    [](const auto& info) {
      std::string name =
          std::string(EngineKindName(std::get<0>(info.param))) + "_" +
          std::string(LatePolicyName(std::get<1>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ------------------------------------------------------- snapshot paths

/// Aggressive snapshot cadence: several epochs commit and truncate the
/// log before the crash, so recovery exercises snapshot + suffix rather
/// than a full-log replay (asserted via the stats).
TEST(RecoverySnapshotTest, RecoversFromSnapshotPlusSuffix) {
  const auto events = Generate(RecoveryWorkload(902));
  const QuerySpec query = RecoveryQuery(LatePolicy::kBestEffortJoin);
  constexpr uint64_t kWmEvery = 64;
  const size_t crash_at = (events.size() * 3 / 4 / kWmEvery) * kWmEvery;
  auto expected = ReferenceJoinWithPolicy(events, query, kWmEvery);

  TempDir dir;
  EngineOptions options;
  options.num_joiners = 2;
  options.durability.wal_dir = dir.path();
  options.durability.fsync = FsyncPolicy::kPerBatch;
  options.durability.snapshot_interval_records = 1'000;

  const CrashRunResult run =
      CrashAndRecover(EngineKind::kScaleOij, query, options, events,
                      crash_at, kWmEvery, "snapshot-suffix");
  ExpectUnionExact(run.results, expected, "snapshot-suffix");
  // Snapshots committed before the crash; the replayed record count must
  // be well below the full prefix (truncation actually happened).
  EXPECT_GT(run.recovered_wal.replay_records, 0u);
  EXPECT_LT(run.recovered_wal.replay_records, crash_at)
      << "recovery replayed the whole log; snapshots never truncated it";
}

/// Snapshots off: recovery replays the entire logged prefix.
TEST(RecoverySnapshotTest, LogOnlyRecoveryReplaysWholePrefix) {
  const auto events = Generate(RecoveryWorkload(903));
  const QuerySpec query = RecoveryQuery(LatePolicy::kBestEffortJoin);
  constexpr uint64_t kWmEvery = 64;
  const size_t crash_at = (events.size() / 3 / kWmEvery) * kWmEvery;
  auto expected = ReferenceJoinWithPolicy(events, query, kWmEvery);

  TempDir dir;
  EngineOptions options;
  options.num_joiners = 2;
  options.durability.wal_dir = dir.path();
  options.durability.fsync = FsyncPolicy::kPerBatch;

  const CrashRunResult run =
      CrashAndRecover(EngineKind::kKeyOij, query, options, events, crash_at,
                      kWmEvery, "log-only");
  ExpectUnionExact(run.results, expected, "log-only");
  EXPECT_EQ(run.recovered_wal.replay_records, crash_at);
}

// ------------------------------------------------- bounded loss (interval)

/// With a lax fsync policy and an unflushed tail at the crash, results
/// may only *shrink* relative to the oracle: every recovered result must
/// match a reference base with at most its matches (probes lost from the
/// tail remove matches, never invent them), and the documented loss
/// bound (appended - synced at crash) caps the damage.
TEST(RecoveryLossBoundTest, IntervalPolicyLosesAtMostTheUnsyncedTail) {
  const auto events = Generate(RecoveryWorkload(904));
  const QuerySpec query = RecoveryQuery(LatePolicy::kBestEffortJoin);
  constexpr uint64_t kWmEvery = 64;
  // Crash NOT on a punctuation boundary: a partial batch is in flight.
  const size_t crash_at = events.size() / 2 + 17;
  auto expected = ReferenceJoinWithPolicy(events, query, kWmEvery);
  std::map<BaseKey, ReferenceResult> index;
  for (const ReferenceResult& r : expected) {
    index.emplace(BaseKey{r.base.ts, r.base.key, r.base.payload}, r);
  }

  TempDir dir;
  EngineOptions options;
  options.num_joiners = 2;
  options.durability.wal_dir = dir.path();
  options.durability.fsync = FsyncPolicy::kInterval;
  options.durability.fsync_interval_us = 1'000'000'000;  // never on time

  const CrashRunResult run =
      CrashAndRecover(EngineKind::kScaleOij, query, options, events,
                      crash_at, kWmEvery, "loss-bound", /*lossy=*/true);

  EXPECT_LE(run.results.size(), expected.size());
  for (const auto& [key, r] : run.results) {
    const auto it = index.find(key);
    ASSERT_NE(it, index.end()) << "recovered run invented a base tuple";
    EXPECT_LE(r.match_count, it->second.match_count);
    EXPECT_LE(r.aggregate, it->second.aggregate + 1e-6);
  }
}

// ------------------------------------------------------------ edge cases

TEST(RecoveryEdgeTest, EmptyDirectoryRecoversToCleanStart) {
  const auto events = Generate(RecoveryWorkload(905));
  const QuerySpec query = RecoveryQuery(LatePolicy::kBestEffortJoin);
  constexpr uint64_t kWmEvery = 64;
  auto expected = ReferenceJoinWithPolicy(events, query, kWmEvery);

  TempDir dir;
  EngineOptions options;
  options.num_joiners = 2;
  options.durability.wal_dir = dir.path();
  options.durability.fsync = FsyncPolicy::kPerBatch;

  CollectingSink sink;
  auto engine = CreateEngine(EngineKind::kScaleOij, query, options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  ASSERT_TRUE(engine->Recover().ok()) << "empty dir must be a no-op";
  EXPECT_EQ(engine->SampleWal().replay_records, 0u);

  WatermarkTracker tracker(query.lateness_us);
  uint64_t n = 0;
  for (const StreamEvent& ev : events) {
    tracker.Observe(ev.tuple.ts);
    engine->Push(ev, MonotonicNowUs());
    if (++n % kWmEvery == 0) engine->SignalWatermark(tracker.watermark());
  }
  const EngineStats stats = engine->Finish();
  EXPECT_EQ(stats.results, expected.size());
  EXPECT_TRUE(stats.wal.enabled);
  EXPECT_GT(stats.wal.appended_records, 0u);

  std::map<BaseKey, JoinResult> got;
  Accumulate(&got, sink.TakeResults(), "empty-dir");
  ExpectUnionExact(got, expected, "empty-dir");
}

TEST(RecoveryEdgeTest, RecoveryAfterIngestIsRejected) {
  TempDir dir;
  EngineOptions options;
  options.num_joiners = 1;
  options.durability.wal_dir = dir.path();
  const QuerySpec query = RecoveryQuery(LatePolicy::kBestEffortJoin);
  NullSink sink;
  auto engine = CreateEngine(EngineKind::kKeyOij, query, options, &sink);
  ASSERT_TRUE(engine->Start().ok());
  StreamEvent ev;
  ev.stream = StreamId::kProbe;
  ev.tuple.ts = 1;
  engine->Push(ev, MonotonicNowUs());
  EXPECT_FALSE(engine->Recover().ok())
      << "recovery must precede the first Push";
  engine->Finish();
}

/// Fresh-start semantics: starting to ingest without recovering discards
/// the stale on-disk state (with a warning) instead of mixing runs.
TEST(RecoveryEdgeTest, IngestWithoutRecoveryDiscardsStaleState) {
  TempDir dir;
  EngineOptions options;
  options.num_joiners = 1;
  options.durability.wal_dir = dir.path();
  options.durability.fsync = FsyncPolicy::kPerBatch;
  const QuerySpec query = RecoveryQuery(LatePolicy::kBestEffortJoin);
  const auto events = Generate(RecoveryWorkload(906));

  auto drive = [&](size_t count) {
    NullSink sink;
    auto engine = CreateEngine(EngineKind::kKeyOij, query, options, &sink);
    EXPECT_TRUE(engine->Start().ok());
    for (size_t i = 0; i < count; ++i) {
      engine->Push(events[i], MonotonicNowUs());
    }
    engine->SignalWatermark(events[count - 1].tuple.ts);
    return engine->Finish();
  };
  drive(500);
  const EngineStats second = drive(200);
  bool warned = false;
  for (const std::string& w : second.warnings) {
    if (w.find("discard") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned) << "stale-state discard must be surfaced";

  // The directory now holds only the second run.
  WalReplayPlan plan;
  ASSERT_TRUE(BuildReplayPlan(dir.path(), &plan).ok());
  uint64_t tuples = 0;
  for (const auto& r : plan.records) {
    if (!r.is_watermark) ++tuples;
  }
  EXPECT_EQ(tuples, 200u);
}

}  // namespace
}  // namespace oij
