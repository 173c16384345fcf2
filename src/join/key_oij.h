#ifndef OIJ_JOIN_KEY_OIJ_H_
#define OIJ_JOIN_KEY_OIJ_H_

#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "col/column_batch.h"
#include "col/sweep_merge.h"
#include "join/engine.h"

namespace oij {

/// Key-OIJ — the Flink-style key-partitioned parallel OIJ baseline
/// (Section II-C), re-implemented from scratch in C++ as the paper's own
/// methodology does (Section III-D).
///
/// Every tuple is routed to the joiner statically bound to its key's hash.
/// Each joiner keeps one *unsorted* buffer per key; a join operation scans
/// that key's entire buffer and filters on the window predicate (the "full
/// data scan" the paper attributes to the Flink implementation). Tuples
/// are only evicted once the watermark proves no future window can contain
/// them, so a large lateness directly inflates every scan — the behaviour
/// Figs 4-9 dissect.
class KeyOijEngine : public JoinEngine {
 public:
  KeyOijEngine(const QuerySpec& spec, const EngineOptions& options,
               ResultSink* sink);
  ~KeyOijEngine() override { Finish(); }  // see ~JoinEngine

  std::string_view name() const override { return "key-oij"; }

 protected:
  void Route(const Event& event) override;
  void OnTuple(uint32_t joiner, const Event& event) override;
  void OnWatermark(uint32_t joiner, Timestamp watermark) override;
  bool SupportsMultiQuery() const override { return true; }
  void OnAddQuery(uint32_t joiner, QueryRuntime& query) override;
  void CollectStats(EngineStats* stats) override;
  bool CollectSnapshotState(uint32_t joiner,
                            std::vector<StreamEvent>* out) override;

 private:
  struct PendingBase {
    Tuple tuple;
    int64_t arrival_us;

    bool operator>(const PendingBase& other) const {
      return tuple.ts > other.tuple.ts;
    }
  };

  /// Per-(joiner, query) pending bases, indexed by query ordinal; every
  /// query gates finalization on its own FOL offset but scans the one
  /// shared set of per-key buffers.
  struct QuerySlot {
    std::priority_queue<PendingBase, std::vector<PendingBase>,
                        std::greater<PendingBase>>
        pending;
  };

  /// All state owned by one joiner thread; padded out to its own cache
  /// lines via unique_ptr indirection.
  struct JoinerState {
    std::unordered_map<Key, std::vector<Tuple>> buffers;
    /// Lateness-violating probes, quarantined so drop/side-channel
    /// queries keep exact windows; only best-effort queries scan these.
    /// Key-partitioned routing makes this joiner-local (no atomics).
    std::unordered_map<Key, std::vector<Tuple>> annex;
    std::vector<QuerySlot> slots{1};  ///< indexed by query ordinal
    std::vector<const Tuple*> scratch_matches;

    /// Columnar batch kernel scratch (src/col/, reused across drains):
    /// drained base runs, the transposed+sorted key buffer, and the
    /// per-base window slices of the sweep. Heap-backed — Key-OIJ has
    /// no arena; Scale-OIJ's counterpart stages on slab loans.
    col::ColumnarBatchStage stage;
    col::ProbeColumns probes;
    std::vector<col::BaseSlice> slices;
    std::vector<Timestamp> group_ts;
    uint64_t columnar_bases = 0;
    uint64_t columnar_groups = 0;
    uint64_t columnar_fallbacks = 0;

    /// Max (PRE + FOL) over every query this joiner has ever been told
    /// about — monotone, bounds eviction.
    Timestamp reach = 0;

    Timestamp max_seen = kMinTimestamp;
    Timestamp last_wm = kMinTimestamp;

    uint64_t processed = 0;
    uint64_t buffered = 0;
    uint64_t peak_buffered = 0;
    uint64_t evicted = 0;
    uint64_t visited = 0;
    uint64_t matched = 0;
    double effectiveness_sum = 0.0;
    uint64_t join_ops = 0;
    TimeBreakdown breakdown;
    LatencyRecorder latency;
    SampledCacheProbe cache_probe;
  };

  /// Event-time threshold below which base tuples may finalize.
  Timestamp FinalizeThreshold(const JoinerState& s) const;

  void DrainPending(uint32_t joiner, JoinerState& s);
  void JoinOne(JoinerState& s, QueryRuntime& query, const Tuple& base,
               int64_t arrival_us);
  /// Columnar path: joins one key-group of the staged run (positions
  /// [begin, end) of the sorted stage) against the key's buffer in a
  /// single transpose + sweep instead of one full scan per base.
  void JoinGroupColumnar(JoinerState& s, QueryRuntime& query, Key key,
                         size_t begin, size_t end);
  /// Shared result-emission tail of both join paths.
  void Emit(JoinerState& s, QueryRuntime& query, const Tuple& base,
            int64_t arrival_us, const AggState& agg);
  void Evict(JoinerState& s);

  std::vector<std::unique_ptr<JoinerState>> states_;
};

}  // namespace oij

#endif  // OIJ_JOIN_KEY_OIJ_H_
