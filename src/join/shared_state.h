#ifndef OIJ_JOIN_SHARED_STATE_H_
#define OIJ_JOIN_SHARED_STATE_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "join/engine.h"

namespace oij {

/// The OpenMLDB-style baseline of Figs 22/23 (Section V-E).
///
/// Models the online engine's relevant properties (Section II-A): all
/// worker threads share one global ordered table; the structure is
/// read-optimized, so lookups take a shared lock and use ordered range
/// retrieval, but *insertions serialize* behind an exclusive lock — the
/// blocking-insert bottleneck the paper blames for its poor behaviour at
/// high arrival rates. There is no disorder handling: base tuples join
/// eagerly against whatever is present ("we remove the accuracy checking
/// in OpenMLDB, thus eliminating the effect of lateness intentionally"),
/// so results are approximate under disorder or multi-worker races.
class SharedStateEngine : public JoinEngine {
 public:
  SharedStateEngine(const QuerySpec& spec, const EngineOptions& options,
                    ResultSink* sink);
  ~SharedStateEngine() override { Finish(); }  // see ~JoinEngine

  std::string_view name() const override { return "openmldb-like"; }

 protected:
  void Route(const Event& event) override;
  void OnTuple(uint32_t joiner, const Event& event) override;
  void OnWatermark(uint32_t joiner, Timestamp watermark) override;
  void CollectStats(EngineStats* stats) override;

 private:
  struct WorkerState {
    uint64_t processed = 0;
    uint64_t visited = 0;
    uint64_t matched = 0;
    double effectiveness_sum = 0.0;
    uint64_t join_ops = 0;
    TimeBreakdown breakdown;
    LatencyRecorder latency;
    SampledCacheProbe cache_probe;
  };

  void JoinOne(WorkerState& s, const Tuple& base, int64_t arrival_us);

  // The single shared table: key -> (ts -> payload), one lock around it.
  std::shared_mutex table_mu_;
  std::unordered_map<Key, std::multimap<Timestamp, double>> table_;
  uint64_t evicted_ = 0;
  uint64_t buffered_ = 0;
  uint64_t peak_buffered_ = 0;

  uint32_t rr_ = 0;
  std::vector<std::unique_ptr<WorkerState>> states_;
};

}  // namespace oij

#endif  // OIJ_JOIN_SHARED_STATE_H_
