#ifndef OIJ_JOIN_SCALE_OIJ_H_
#define OIJ_JOIN_SCALE_OIJ_H_

#include <atomic>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "col/column_batch.h"
#include "col/sweep_merge.h"
#include "ebr/epoch_manager.h"
#include "join/engine.h"
#include "mem/node_arena.h"
#include "sched/load_stats.h"
#include "sched/partition_table.h"
#include "sched/rebalancer.h"
#include "skiplist/time_travel_index.h"
#include "window/incremental_window.h"
#include "window/two_stacks.h"

namespace oij {

/// Scale-OIJ — the paper's contribution (Section V), combining:
///
///  1. *SWMR time-travel index* (per joiner): a two-layer skip-list that
///     locates window boundaries in O(log) and visits only in-window
///     tuples, making lateness irrelevant to join cost (Fig 11).
///  2. *Dynamic balanced schedule*: keys hash into partitions; each
///     partition is owned by a virtual team of joiners that grows by
///     replication whenever the greedy rebalancer (Alg. 3) finds the load
///     skewed. Tuples of a shared partition round-robin across the team;
///     every member writes its own index and reads the whole team's
///     (Figs 13/14).
///  3. *Incremental window aggregation*: per (joiner, key) running
///     aggregates slide by Subtract-on-Evict, so overlapping windows share
///     work (Fig 16).
///
/// Cross-thread protocol. Each joiner publishes `progress` — the event
/// time through which it has durably processed its queue (its last
/// watermark punctuation in kWatermark mode; max observed timestamp in
/// kEager mode). A base tuple finalizes only once min(progress) over its
/// partition's team has passed its window end; the acquire-load of a
/// teammate's progress synchronizes with that teammate's release-store,
/// so every insert the teammate performed earlier is visible to the scan.
/// Teams only grow and joiners refresh their schedule snapshot before
/// every drain once the table's published version moved, so a finalizing
/// joiner's team view always covers every member that may hold in-window
/// tuples.
///
/// Eviction. Each joiner additionally publishes a monotone `read_floor`:
/// a lower bound on every index timestamp it may still scan, derived from
/// min(last watermark, oldest pending base) minus the window reach plus
/// one extra window for incremental subtract-scans (which, by the overlap
/// precondition, reach at most one window below their next window start).
/// Owners unlink index prefixes strictly below min(read_floor) over all
/// joiners; unlinked nodes are freed via EBR once every reader epoch
/// drains, so scans already in flight stay memory-safe.
class ScaleOijEngine : public JoinEngine {
 public:
  ScaleOijEngine(const QuerySpec& spec, const EngineOptions& options,
                 ResultSink* sink);
  ~ScaleOijEngine() override { Finish(); }  // see ~JoinEngine

  std::string_view name() const override { return "scale-oij"; }

 protected:
  void Route(const Event& event) override;
  void OnTuple(uint32_t joiner, const Event& event) override;
  void OnWatermark(uint32_t joiner, Timestamp watermark) override;
  void OnIdle(uint32_t joiner) override;
  void OnFlush(uint32_t joiner) override;
  bool SupportsMultiQuery() const override { return true; }
  void OnAddQuery(uint32_t joiner, QueryRuntime& query) override;
  void CollectStats(EngineStats* stats) override;
  void SampleMem(WatchdogSample* sample) const override;
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

  /// Per-(joiner, query) runtime state, indexed by query ordinal. Every
  /// standing query keeps its own pending bases (its window end gates
  /// finalization) and its own incremental window states, but all of
  /// them read the one shared time-travel index.
  struct QuerySlot {
    std::priority_queue<PendingBase, std::vector<PendingBase>,
                        std::greater<PendingBase>>
        pending;
    /// Per-key running windows: Subtract-on-Evict for invertible
    /// aggregates, Two-Stacks for non-invertible ones (min/max).
    std::unordered_map<Key, IncrementalWindowState> inc_states;
    std::unordered_map<Key, NonInvertibleWindowState> ni_states;
  };

  struct JoinerState {
    JoinerState(EpochManager* ebr, uint32_t slot, uint64_t seed,
                NodeArena* arena)
        : ebr_slot(slot),
          index(ebr, slot, seed, arena),
          annex(ebr, slot, seed ^ 0xa22e7ULL, /*arena=*/nullptr),
          stage(arena),
          probes(arena) {
      slots.resize(1);  // ordinal 0: the primary query
    }

    uint32_t ebr_slot;
    TimeTravelIndex index;
    /// Annex index for lateness-violating probes (multi-query mode with
    /// at least one best-effort query). Only best-effort queries scan
    /// it, so drop/side-channel queries keep exact, late-free windows
    /// over the main index. Heap-allocated (no arena): the late path is
    /// rare by construction.
    TimeTravelIndex annex;
    std::vector<QuerySlot> slots;  ///< indexed by query ordinal
    std::shared_ptr<const Schedule> schedule;  // joiner-local snapshot

    /// Columnar batch kernel scratch (src/col/, reused across drains).
    /// With pooled_alloc the columns stage on slabs loaned from this
    /// joiner's own arena, so evicted index slabs recycle straight into
    /// batch staging.
    col::ColumnarBatchStage stage;
    col::ProbeColumns probes;
    std::vector<col::BaseSlice> slices;
    std::vector<Timestamp> group_ts;
    std::vector<double> prefix;
    uint64_t columnar_bases = 0;
    uint64_t columnar_groups = 0;
    uint64_t columnar_fallbacks = 0;

    /// Max window reach over every query this joiner has ever been told
    /// about (monotone — removed queries keep contributing, so already
    /// pending windows stay scannable).
    Timestamp reach = 0;

    /// Published processing progress (event time); see class comment.
    alignas(64) std::atomic<Timestamp> progress{kMinTimestamp};

    /// Published lower bound on every index timestamp this joiner may
    /// still scan: min(last watermark, oldest pending base) − PRE −
    /// (PRE+FOL) − 1 (window reach plus incremental subtract reach).
    /// Owners evict strictly below min(read_floor) over all joiners.
    alignas(64) std::atomic<Timestamp> read_floor{kMinTimestamp};

    Timestamp max_seen = kMinTimestamp;
    Timestamp last_wm = kMinTimestamp;

    uint64_t processed = 0;
    uint64_t evicted = 0;
    uint64_t peak_buffered = 0;
    uint64_t visited = 0;
    uint64_t matched = 0;
    double effectiveness_sum = 0.0;
    uint64_t join_ops = 0;
    uint64_t incremental_slides = 0;
    uint64_t recomputes = 0;
    TimeBreakdown breakdown;
    LatencyRecorder latency;
    SampledCacheProbe cache_probe;
  };

  Timestamp LocalProgress(const JoinerState& s) const;
  void PublishProgress(JoinerState& s);
  void PublishReadFloor(JoinerState& s);

  /// Smallest published progress over `team`.
  Timestamp TeamMinProgress(const std::vector<uint32_t>& team) const;
  /// Smallest published read floor over all joiners (eviction bound).
  Timestamp GlobalMinReadFloor() const;

  void DrainPending(uint32_t joiner, JoinerState& s);
  void JoinOne(uint32_t joiner, JoinerState& s, QueryRuntime& query,
               QuerySlot& slot, const Tuple& base, int64_t arrival_us);
  /// Columnar path: joins one key-group of the staged run (positions
  /// [begin, end) of the sorted stage) with one gather from the team's
  /// indexes + one sweep, instead of one index descent per base. Keeps
  /// the per-key incremental window states consistent (Reseed /
  /// Invalidate) so interleaved scalar slides stay eviction-safe.
  void JoinGroupColumnar(uint32_t joiner, JoinerState& s,
                         QueryRuntime& query, QuerySlot& slot, Key key,
                         size_t begin, size_t end);
  /// Shared result-emission tail of both join paths.
  void EmitOne(JoinerState& s, QueryRuntime& query, const Tuple& base,
               int64_t arrival_us, double value, uint64_t count,
               double out_sum, double out_min, double out_max);
  void Evict(JoinerState& s);
  bool HavePending(const JoinerState& s) const;

  /// Joiner-owned slab arenas (pooled_alloc; empty otherwise). Declared
  /// before ebr_ and states_: destruction runs states_ (frees live nodes
  /// into the arenas), then ebr_ (drains retired runs into them), then the
  /// arenas themselves — matching NodeArena's lifetime contract.
  std::vector<std::unique_ptr<NodeArena>> arenas_;
  EpochManager ebr_;
  PartitionTable table_;
  LoadStats router_stats_;
  Rebalancer rebalancer_;

  // Router-thread-local routing state.
  std::shared_ptr<const Schedule> router_schedule_;
  std::vector<uint32_t> round_robin_;
  uint64_t events_since_rebalance_ = 0;
  uint64_t rebalances_ = 0;

  /// True when placement resolved more than one node: the rebalancer
  /// runs socket-aware and the cross counters are live.
  bool numa_topo_ = false;

  /// Cross-socket scheduler activity (driver thread writes, admin
  /// threads read — single-writer relaxed atomics): partition replicas
  /// the rebalancer placed on a remote node, and round-robin dispatches
  /// that left the team leader's node.
  std::atomic<uint64_t> numa_cross_replications_{0};
  std::atomic<uint64_t> numa_cross_dispatches_{0};

  std::vector<std::unique_ptr<JoinerState>> states_;

  /// Set (never cleared) once any joiner stored a late probe in its
  /// annex. From then on best-effort queries abandon their incremental
  /// window states and full-scan main + annex — drop/side-channel
  /// queries are unaffected either way.
  std::atomic<bool> annex_dirty_{false};
};

}  // namespace oij

#endif  // OIJ_JOIN_SCALE_OIJ_H_
