#ifndef OIJ_JOIN_ENGINE_H_
#define OIJ_JOIN_ENGINE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/spsc_queue.h"
#include "common/status.h"
#include "common/types.h"
#include "common/watchdog.h"
#include "core/query_catalog.h"
#include "core/query_spec.h"
#include "join/late_gate.h"
#include "metrics/breakdown.h"
#include "metrics/cache_sim.h"
#include "metrics/cpu_util.h"
#include "metrics/latency_recorder.h"
#include "sched/rebalancer.h"
#include "stream/generator.h"
#include "topo/topology.h"
#include "wal/wal.h"

namespace oij {

struct QueryRuntime;

/// Message flowing through a router -> joiner queue.
struct Event {
  enum class Kind : uint8_t {
    kTuple = 0,
    kWatermark,  ///< punctuation carrying the current low-watermark
    kFlush,      ///< end of stream: finalize everything and exit
    kSnapshot,   ///< durability barrier: write this joiner's snapshot
                 ///< shard for the epoch carried in `watermark`
    kAddQuery,   ///< catalog barrier: activate the standing query `query`
    kRemoveQuery,  ///< catalog barrier: deactivate `query`
  };

  Kind kind = Kind::kTuple;
  StreamId stream = StreamId::kBase;
  Tuple tuple;
  Timestamp watermark = kMinTimestamp;
  int64_t arrival_us = 0;  ///< router monotonic stamp (latency origin)
  uint64_t seq = 0;        ///< router-assigned global sequence number

  /// kAddQuery/kRemoveQuery: the catalog entry this barrier activates or
  /// retires. Carried by pointer so joiners never index the driver's
  /// catalog container concurrently with its growth.
  QueryRuntime* query = nullptr;

  /// Multi-query mode only: this tuple violated the lateness bound and
  /// was admitted solely for the best-effort queries; drop/side-channel
  /// queries must not observe it.
  bool late = false;
};

/// Runtime record of one standing query sharing an engine's index.
///
/// Entries live in a std::deque owned by the driver thread: growth never
/// moves existing entries, and a joiner reaches an entry only through the
/// pointer its kAddQuery barrier carried, so every field a joiner touches
/// is either immutable after construction (ord/id/spec) or atomic.
struct QueryRuntime {
  uint32_t ord = 0;
  std::string id;
  QuerySpec spec;
  bool active = true;                ///< driver-thread view
  std::atomic<uint64_t> results{0};  ///< bumped by joiners, relaxed
  LateStats late;                    ///< driver thread only
};

/// Point-in-time view of one standing query for the admin plane.
struct QueryStatsRow {
  uint32_t ord = 0;
  std::string id;
  QuerySpec spec;
  bool active = true;
  uint64_t results = 0;
  LateStats late;
};

/// Copies a fully materialized window's statistics into a result (the
/// multi-aggregate feature-set fields; see core/feature_set.h).
inline void FillWindowStats(JoinResult* result, const AggState& agg) {
  result->sum = agg.sum;
  if (agg.count > 0) {
    result->min = agg.min;
    result->max = agg.max;
  }
}

/// Receives finalized join results. May be invoked concurrently from
/// several joiner threads; implementations must be thread-safe.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void OnResult(const JoinResult& result) = 0;
};

/// Discards results (throughput benchmarks measure engine cost only).
class NullSink : public ResultSink {
 public:
  void OnResult(const JoinResult&) override {}
};

/// Collects every result under a mutex (tests, examples).
class CollectingSink : public ResultSink {
 public:
  void OnResult(const JoinResult& result) override {
    std::lock_guard<std::mutex> lock(mu_);
    results_.push_back(result);
  }

  std::vector<JoinResult> TakeResults() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(results_);
  }

 private:
  std::mutex mu_;
  std::vector<JoinResult> results_;
};

/// Counts results and checksums aggregates (cheap validation at scale).
class CountingSink : public ResultSink {
 public:
  void OnResult(const JoinResult& result) override {
    count_.fetch_add(1, std::memory_order_relaxed);
    matches_.fetch_add(result.match_count, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t matches() const {
    return matches_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> matches_{0};
};

/// What the router does with a tuple when a joiner's ring is full.
enum class OverloadPolicy : uint8_t {
  /// Wait (stop-token aware) until the ring drains: lossless, but a slow
  /// joiner backpressures the whole input. Seed behavior.
  kBlock = 0,
  /// Wait up to EngineOptions::drop_wait_us, then drop the incoming
  /// tuple. Bounds router latency; sheds the newest data first.
  kDropNewest,
  /// Stage overflow in a router-side spill buffer and shed the *oldest*
  /// buffered tuples beyond its capacity. Keeps the freshest data (the
  /// usual preference for real-time analytics); FIFO order and control
  /// events are preserved.
  kShedOldest,
};

std::string_view OverloadPolicyName(OverloadPolicy policy);

/// Engine construction knobs shared by all parallel engines. The Scale-OIJ
/// optimizations are individually switchable so the ablation benches can
/// isolate each one (time-travel indexing is what distinguishes Scale-OIJ
/// from Key-OIJ structurally, so it is a choice of engine, not a flag).
struct EngineOptions {
  uint32_t num_joiners = 4;

  /// Capacity of each router->joiner ring (events).
  uint32_t queue_capacity = 8192;

  /// --- Micro-batched router->joiner transport (DESIGN.md §5) ---

  /// Tuple events staged per joiner before the router flushes them into
  /// the ring with a single PushBatch (one shared cache-line update per
  /// batch instead of per tuple). 1 restores the per-tuple transport.
  /// Exactness is unaffected: staging preserves per-queue FIFO order and
  /// control events (watermark/flush) always flush the stage first, so
  /// punctuations still trail every tuple they gate. Internally capped at
  /// queue_capacity.
  uint32_t batch_size = 32;

  /// Upper bound on how long a staged tuple may wait for its batch to
  /// fill (checked against the driver's arrival stamps, so it costs no
  /// extra clock reads). 0 disables the timer; punctuations and
  /// FlushPending() still flush immediately.
  int64_t batch_flush_us = 500;

  /// Scale-OIJ: number of key hash-range partitions for scheduling.
  uint32_t num_partitions = 256;

  /// Scale-OIJ: enable the dynamic balanced schedule (Section V-B).
  bool dynamic_schedule = true;

  /// Scale-OIJ: enable incremental window aggregation (Section V-C).
  bool incremental_agg = true;

  /// Back the time-travel index with a per-joiner slab arena and chunked
  /// EBR retire instead of the global heap (DESIGN.md "Memory
  /// management"). Exactness is unaffected; only Scale-OIJ (the one
  /// engine with the index) reacts — the Key-OIJ, SplitJoin and
  /// OpenMLDB-like baselines stay byte-for-byte faithful either way.
  bool pooled_alloc = true;

  /// --- Columnar batch-join kernels (src/col/, DESIGN.md §5h) ---

  /// Let the joiners finalize drained base runs through the columnar
  /// batch kernels: transpose the ready bases into SoA columns, locate
  /// each key-group's window boundary in the index once, sweep the
  /// sorted run, and aggregate contiguous payload slices with
  /// SIMD/prefetch. Exactness is unaffected (differential-tested
  /// against the scalar path and the reference oracle across policies);
  /// off = byte-for-byte legacy per-tuple path.
  bool columnar_batch = true;

  /// Minimum ready bases in one drain before the columnar path engages;
  /// smaller runs take the scalar path (the transpose/sort overhead
  /// only amortizes at batch sizes around this default).
  uint32_t columnar_min_run = 16;

  /// Minimum bases in one sorted key-group before that group is swept
  /// columnar; smaller groups replay through the scalar kernel even
  /// inside a columnar drain. A group of one or two bases has nothing
  /// to amortize the per-group gather against (a run of N keys × 1 base
  /// would otherwise pay N gathers for zero sharing), so high-key-count
  /// batches degrade gracefully to the legacy cost instead of
  /// regressing. 0 or 1 sweeps every group.
  uint32_t columnar_min_group = 4;

  /// Scale-OIJ: router events between rebalance attempts.
  uint32_t rebalance_interval_events = 32768;

  RebalanceConfig rebalance;

  /// NUMA placement (src/topo/, DESIGN.md §5i): detect the machine's
  /// node topology, assign joiners to socket-sized teams, pin them,
  /// bind their arenas node-locally, and bias partition replication
  /// toward same-socket targets. `auto` (default) engages only when
  /// more than one node is detected — single-node machines see a strict
  /// no-op — and `explicit_cpus` overrides the derived map. Exactness
  /// is unaffected either way: placement moves threads and pages, never
  /// results.
  NumaOptions numa;

  /// Pin joiner threads to CPUs round-robin (legacy flat pinning;
  /// superseded by an active `numa` placement plan).
  bool pin_threads = false;

  /// Measure per-joiner busy time (the denominator of the Fig 6 time
  /// breakdown). ~2 clock reads per processed burst.
  bool collect_breakdown = true;

  /// Record per-joiner utilization-over-time series (Fig 14).
  bool collect_cpu_util = false;
  int64_t cpu_util_interval_ns = 100'000'000;

  /// Feed sampled tuple accesses into a shared LLC model (Figs 8b/13d).
  CacheSim* cache_sim = nullptr;
  uint32_t cache_sample_period = 16;

  /// --- Overload & fault tolerance (see DESIGN.md, "Delivery &
  /// degradation semantics") ---

  OverloadPolicy overload_policy = OverloadPolicy::kBlock;

  /// kDropNewest: how long the router waits on a full ring before
  /// dropping the tuple. 0 = drop immediately.
  int64_t drop_wait_us = 0;

  /// kShedOldest: max tuples staged per joiner before the oldest staged
  /// tuples are shed. 0 defaults to queue_capacity.
  uint32_t shed_spill_capacity = 0;

  /// Receives tuples diverted by LatePolicy::kSideChannel (driver
  /// thread). Not owned.
  LateSink* late_sink = nullptr;

  /// Test-only deterministic fault hooks. Not owned; must outlive the
  /// engine. nullptr in production.
  const FaultInjector* fault_injector = nullptr;

  /// Monitor thread detecting stalled joiners / frozen watermarks.
  bool enable_watchdog = true;
  WatchdogConfig watchdog;

  /// Write-ahead logging + snapshots (src/wal/, DESIGN.md §5e). Off by
  /// default (empty wal_dir) — zero cost on the ingest path.
  DurabilityOptions durability;

  /// Upper bound on how long Finish() may block flushing and joining.
  /// On expiry the engine raises its stop token, reports
  /// DeadlineExceeded in EngineStats::health, and still returns.
  int64_t finish_timeout_us = 30'000'000;

  Status Validate() const;
};

/// Allocator observability for pooled_alloc runs (mem/node_arena.h),
/// summed across the engine's joiner arenas. All-zero with `pooled`
/// false (heap-backed run, or an engine without an index).
struct MemStats {
  bool pooled = false;
  uint64_t arena_reserved_bytes = 0;
  uint64_t arena_live_nodes = 0;
  uint64_t arena_allocations = 0;
  uint64_t arena_slab_recycles = 0;
  uint64_t arena_oversize_allocs = 0;
  /// Nodes retired to the EpochManager not yet drained at collection.
  uint64_t ebr_retired_backlog = 0;
};

/// Everything a run reports; merged across joiners at Finish().
struct EngineStats {
  uint64_t input_tuples = 0;
  uint64_t results = 0;

  /// Tuples visited while locating window data vs tuples actually inside
  /// windows. effectiveness (Eq. 1) is the mean per-join-op ratio.
  uint64_t visited = 0;
  uint64_t matched = 0;
  double effectiveness_sum = 0.0;
  uint64_t join_ops = 0;

  TimeBreakdown breakdown;
  LatencyRecorder latency;

  /// Tuples processed per joiner: actual load distribution.
  std::vector<uint64_t> per_joiner_processed;

  /// Per-joiner utilization series (only when collect_cpu_util).
  std::vector<std::vector<double>> utilization;

  uint64_t rebalances = 0;
  uint64_t final_schedule_version = 0;
  uint64_t evicted_tuples = 0;
  uint64_t peak_buffered_tuples = 0;

  /// Columnar batch kernel engagement (src/col/): base tuples finalized
  /// through the sweep path, key-groups swept, and groups that bounced
  /// back to the scalar path (non-finite payloads).
  uint64_t columnar_bases = 0;
  uint64_t columnar_groups = 0;
  uint64_t columnar_fallbacks = 0;

  /// Tuples lost to backpressure (kDropNewest + kShedOldest combined;
  /// `overload_shed` is the kShedOldest share).
  uint64_t overload_dropped = 0;
  uint64_t overload_shed = 0;
  std::vector<uint64_t> per_joiner_overload_dropped;

  /// Control events (watermark/flush punctuations) that could not be
  /// delivered to a joiner because the stop token was raised or a
  /// deadline expired. A lost watermark silently freezes downstream
  /// eviction and finalization, so any loss also surfaces a warning,
  /// marking the run non-pristine.
  uint64_t control_lost = 0;
  std::vector<uint64_t> per_joiner_control_lost;

  /// Lateness-bound violations and their disposition.
  LateStats late;

  /// Allocator observability (pooled_alloc runs).
  MemStats mem;

  /// NUMA placement observability (src/topo/, DESIGN.md §5i).
  /// `numa_active` is true when a placement plan pinned this run;
  /// the per-node arrays are indexed by node ordinal (empty for
  /// engines without arenas). The cross counters tally scheduler
  /// decisions that crossed a socket: partition replications the
  /// rebalancer accepted onto a remote node after same-node headroom
  /// ran out, and round-robin tuple dispatches that left the team
  /// leader's node.
  bool numa_active = false;
  uint32_t numa_nodes = 1;
  std::vector<int> numa_pin_cpus;          ///< per joiner; -1 = unpinned
  std::vector<uint32_t> numa_joiner_node;  ///< per joiner: node ordinal
  std::vector<uint64_t> numa_node_arena_bytes;
  std::vector<uint64_t> numa_node_arena_live_nodes;
  uint64_t numa_cross_replications = 0;
  uint64_t numa_cross_dispatches = 0;

  /// Durability counters (all-zero with durability off).
  WalStats wal;

  /// OK on a clean run; ResourceExhausted / DeadlineExceeded when the
  /// watchdog or the Finish deadline aborted it.
  Status health;
  std::vector<std::string> warnings;

  double Effectiveness() const {
    return join_ops == 0 ? 1.0
                         : effectiveness_sum / static_cast<double>(join_ops);
  }

  /// Coefficient of variation of the actual per-joiner processed counts
  /// (the measured counterpart of Eq. 2).
  double ActualUnbalancedness() const;
};

/// A parallel online interval join engine: one router (the driver
/// thread) feeding one SPSC ring per joiner thread. This class owns the
/// thread lifecycle, the micro-batched transport, punctuation broadcast,
/// the lateness gate, the standing-query catalog, the WAL and recovery,
/// the watchdog, and stats merging; each engine (Key-OIJ, Scale-OIJ,
/// SplitJoin, OpenMLDB-like) implements routing and per-event
/// processing through the protected hooks.
///
/// Protocol: Start() once; then, from a single driver thread, any number
/// of Push()/SignalWatermark() calls; then Finish() exactly once, which
/// drains, stops the joiners, and returns the merged statistics.
class JoinEngine {
 public:
  JoinEngine(const QuerySpec& spec, const EngineOptions& options,
             ResultSink* sink);

  /// Each engine's destructor calls Finish() (a no-op once finished):
  /// joiners run its hooks, so they must stop while its members live.
  virtual ~JoinEngine();

  Status Start();

  /// Feeds one arrival. `arrival_us` is the monotonic stamp used as the
  /// latency origin. Single driver thread only.
  void Push(const StreamEvent& event, int64_t arrival_us);

  /// Injects a watermark punctuation (driver thread).
  void SignalWatermark(Timestamp watermark);

  /// --- Standing-query catalog (driver thread) ---
  ///
  /// Registers one more standing query sharing this engine's index: one
  /// insert per tuple, a window read per active query. The new query must
  /// share the primary query's lateness bound and emit mode (so "late" is
  /// a global property of a tuple); window, aggregate, and late policy
  /// are free. It covers base tuples pushed after the call returns — the
  /// catalog change rides the joiner control rings like a snapshot
  /// barrier, so its first finalized window is exact. Engines without
  /// catalog hooks refuse with FailedPrecondition.
  Status AddQuery(std::string_view id, const QuerySpec& spec);

  /// Deactivates a standing query: base tuples pushed after the call no
  /// longer enter it, while windows already pending finalize normally
  /// (draining removal). The primary query cannot be removed.
  Status RemoveQuery(std::string_view id);

  /// Catalog contents + per-query counters (driver thread).
  std::vector<QueryStatsRow> QuerySnapshot() const;

  /// Flushes any router-side staged batches into the joiner rings
  /// (driver thread). The pipeline calls this before blocking on the
  /// pacer so staged tuples are never held across an idle gap.
  void FlushPending();

  EngineStats Finish();

  /// Durability barrier (driver thread): flushes staged batches and
  /// forces every appended WAL byte to disk regardless of the fsync
  /// policy. After Sync() returns, a crash loses nothing that was
  /// Push()ed before it. No-op without a WAL.
  void Sync();

  /// --- Crash recovery (driver thread, between Start() and the first
  /// Push) ---
  ///
  /// BeginRecovery() loads the latest committed snapshot + WAL suffix
  /// from EngineOptions::durability.wal_dir into a replay plan;
  /// RecoveryStep() replays up to `max_events` of it through the normal
  /// ingest path (replayed tuples are just "late" tuples — the lateness
  /// machinery makes recovery exact) and returns true while more
  /// remains, so a server can interleave replay with answering admin
  /// probes. Without durability, recovery is trivial.
  Status BeginRecovery();
  bool RecoveryStep(size_t max_events);

  /// Convenience: BeginRecovery + drive RecoveryStep to completion.
  Status Recover();

  /// True while a recovery replay is in progress (any thread; the
  /// serving layer's /healthz answers 503 from this).
  bool Recovering() const;

  /// Watermark the recovered state is complete through (driver thread,
  /// meaningful once recovery finished). kMinTimestamp unless the run
  /// recovered under DurabilityOptions::recover_to_watermark, in which
  /// case it is the watermark-consistent cut the replay stopped at —
  /// the value a server advertises in its hello reply so a router can
  /// resend exactly the un-acked suffix.
  Timestamp RecoveredWatermark() const { return recovered_watermark_; }

  /// Live durability counters (any thread); all-zero without a WAL.
  WalStats SampleWal() const;

  /// Live health probe, callable from any thread while the engine runs:
  /// OK until the watchdog (or the Finish deadline) has escalated, then
  /// the escalation status. The serving layer's /healthz renders this.
  Status Health() const;

  /// Live progress snapshot, callable from any thread: per-joiner ring
  /// occupancy and consumed counters plus router-side accepted/watermark
  /// totals. Empty before Start(). The serving layer's /metrics renders
  /// this.
  WatchdogSample SampleProgress() const;

  virtual std::string_view name() const = 0;

  /// Test hook modeling kill -9: raises the stop token and tears the
  /// engine down with *no* final flush, drain or WAL sync — buffered
  /// WAL bytes are dropped exactly as a real crash would drop them.
  /// The engine is unusable afterwards; recovery happens in a fresh
  /// instance pointed at the same wal_dir.
  void CrashForTest();

 protected:
  /// Routes a tuple event to one or more queues (subclass).
  virtual void Route(const Event& event) = 0;

  /// Per-event processing on joiner `j` (subclass). kFlush is handled by
  /// the joiner loop after calling OnFlush.
  virtual void OnTuple(uint32_t joiner, const Event& event) = 0;
  virtual void OnWatermark(uint32_t joiner, Timestamp watermark) = 0;

  /// Whether this engine implements the standing-query catalog hooks.
  /// AddQuery refuses on engines that leave this false.
  virtual bool SupportsMultiQuery() const { return false; }

  /// Catalog barrier on joiner `j`'s thread, after the joiner loop has
  /// added `query` to the joiner's catalog view: allocate per-query
  /// joiner state. (Removal needs no hook: the view's `accepting` flag
  /// flips and pending windows drain as usual.)
  virtual void OnAddQuery(uint32_t /*joiner*/, QueryRuntime& /*query*/) {}

  /// Called when the joiner's queue is momentarily empty; engines poll
  /// deferred work (pending base tuples waiting on teammates) here.
  virtual void OnIdle(uint32_t /*joiner*/) {}

  /// Final drain before the joiner thread exits.
  virtual void OnFlush(uint32_t /*joiner*/) {}

  /// Extra threads (e.g. SplitJoin's collector): started after joiners,
  /// stopped before stats collection.
  virtual void StartAuxiliary() {}
  virtual void StopAuxiliary() {}

  /// Subclass contribution to the merged stats (joiner-local counters).
  virtual void CollectStats(EngineStats* stats) = 0;

  /// Gathers joiner `j`'s live state for a snapshot epoch, called on the
  /// joiner thread when its kSnapshot control event arrives (so the
  /// state is a consistent cut: every earlier event is incorporated,
  /// none after). Emit probe-side tuples first, then unfinalized base
  /// tuples; re-Pushing them through normal ingest reconstructs the
  /// state. Return false when the engine cannot snapshot (the epoch is
  /// aborted and the log is simply never truncated — recovery still
  /// works by full replay).
  virtual bool CollectSnapshotState(uint32_t /*joiner*/,
                                    std::vector<StreamEvent>* /*out*/) {
    return false;
  }

  /// Fills the allocator gauges of a live progress sample. Called from
  /// SampleProgress() on watchdog/serving threads, so implementations
  /// must only read thread-safe counters (NodeArena::snapshot,
  /// EpochManager::PendingCountAll). Default: no arenas, leave zeros.
  virtual void SampleMem(WatchdogSample* /*sample*/) const {}

  /// Sends an event to a joiner, applying the overload policy for tuple
  /// events. Control events (watermark/flush) are never dropped.
  void EnqueueTo(uint32_t joiner, const Event& event);

  /// True once the watchdog or Finish() has raised the stop token.
  /// Subclass loops that can spin (OnFlush drains, auxiliary threads)
  /// must poll this.
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }
  const std::atomic<bool>* stop_token() const { return &stop_; }

  uint32_t num_joiners() const { return options_.num_joiners; }
  const QuerySpec& spec() const { return spec_; }
  const EngineOptions& options() const { return options_; }
  ResultSink* sink() const { return sink_; }

  /// The NUMA placement this engine resolved at construction (from
  /// Topology::Detect() and options().numa). Subclass constructors may
  /// query it — e.g. Scale-OIJ binds each joiner's arena to
  /// placement().OsNodeOfJoiner(j) — and joiner threads pin by it.
  const PlacementPlan& placement() const { return placement_; }

  /// --- Standing-query catalog plumbing for subclasses ---

  /// Joiner `j`'s current view of the catalog, indexed by ordinal; only
  /// joiner `j`'s thread may call these. Entries are never null (an
  /// ordinal becomes visible to a joiner only via its kAddQuery
  /// barrier), and `accepting` flips false at the kRemoveQuery barrier
  /// while already-pending windows keep draining.
  const std::vector<QueryRuntime*>& JoinerQueries(uint32_t joiner) const {
    return joiner_views_[joiner].queries;
  }
  bool JoinerAccepting(uint32_t joiner, uint32_t ord) const {
    return joiner_views_[joiner].accepting[ord];
  }

  /// Tags, counts, and forwards one finalized result (joiner threads).
  void EmitResult(QueryRuntime& query, JoinResult& result) {
    result.query = query.ord;
    query.results.fetch_add(1, std::memory_order_relaxed);
    sink_->OnResult(result);
  }

 private:
  void JoinerMain(uint32_t joiner);

  /// One joiner's private catalog view (only that joiner's thread
  /// touches it after Start).
  struct JoinerView {
    std::vector<QueryRuntime*> queries;  ///< indexed by ordinal
    std::vector<bool> accepting;         ///< false past a remove barrier
  };

  /// Appends a catalog entry (WAL-logging it unless a replay is feeding
  /// us) and broadcasts its kAddQuery barrier. Validation is the
  /// caller's job.
  Status ApplyCatalogAdd(std::string_view id, const QuerySpec& spec);

  /// Deactivates `query` and broadcasts its kRemoveQuery barrier.
  void ApplyCatalogRemove(QueryRuntime& query);

  /// Re-derives which late policies the active queries span (driver).
  void RecomputeLatePolicies();

  /// Catalog text for the snapshot MANIFEST (QueryCatalog format).
  std::string SerializeCatalog() const;

  /// Restores standing queries recorded in a snapshot manifest.
  void ApplyManifestCatalog(const QueryCatalog& catalog);

  /// First WAL append of a run: fresh-start semantics — stale on-disk
  /// state that no recovery consumed is discarded (with a warning) so
  /// it can never leak into a later recovery.
  void ArmWalIngest();

  /// Joiner-thread side of the snapshot barrier (kSnapshot event).
  void HandleSnapshotEvent(uint32_t joiner, uint64_t epoch);

  /// Completes the replay: resumes WAL appends past the replayed LSNs
  /// and records the recovery counters.
  void FinishRecovery();

  /// Moves one joiner's staged batch into its ring (applying the
  /// overload policy batch-wise). `deadline_ns` as in PushBounded.
  void FlushStaged(uint32_t joiner, int64_t deadline_ns);
  void FlushAllStaged(int64_t deadline_ns);

  /// Pushes `n` FIFO-ordered tuple events into a joiner's ring under the
  /// configured overload policy, using PushBatch so the shared tail is
  /// updated once per batch, not once per tuple.
  void PushTupleBatch(uint32_t joiner, const Event* events, size_t n,
                      int64_t deadline_ns);

  /// Tuple enqueue under OverloadPolicy::kShedOldest: stage in spill_,
  /// drain opportunistically, shed the oldest staged tuples past
  /// capacity.
  void EnqueueShedding(uint32_t joiner, const Event& event);

  /// Sheds the oldest staged *tuples* beyond the spill capacity
  /// (watermarks/flushes are load-bearing and always survive).
  void ShedSpillOverflow(uint32_t joiner);

  /// Moves staged spill events into the ring. `deadline_ns` as in
  /// SpscQueue::PushBounded. Returns true when the spill emptied.
  bool DrainSpill(uint32_t joiner, int64_t deadline_ns);

  /// Blocking, stop-aware enqueue for control events.
  /// Returns false only if the stop token / deadline cut the wait short.
  bool EnqueueControl(uint32_t joiner, const Event& event,
                      int64_t deadline_ns);

  /// Fault-injection hooks for joiner `j`; returns false when the joiner
  /// should exit (injected stall released by the stop token).
  bool InjectFaults(uint32_t joiner, uint64_t events_seen);

  void StartWatchdog();
  void RecordUnhealthy(const Status& status);

  QuerySpec spec_;
  EngineOptions options_;
  ResultSink* sink_;

  /// Resolved at construction so subclass constructors can read it.
  PlacementPlan placement_;

  std::vector<std::unique_ptr<SpscQueue<Event>>> queues_;
  std::vector<std::thread> threads_;
  bool started_ = false;
  bool finished_ = false;

  /// Router-assigned sequence counter. Single driver thread, so a plain
  /// increment — never an atomic — and staging keeps the numbers of one
  /// flushed batch contiguous (SplitJoin derives its storage designation
  /// from `seq`, so it must be assigned before routing/staging).
  uint64_t seq_ = 0;
  int64_t run_origin_ns_ = 0;

  std::vector<CpuUtilTracker> util_trackers_;  ///< when collect_cpu_util
  std::vector<int64_t> busy_ns_;  ///< per joiner, when collect_breakdown

  // --- micro-batched transport (driver thread only) ---
  uint32_t batch_size_ = 1;  ///< effective size (capped at ring capacity)
  std::vector<std::vector<Event>> staged_;
  size_t staged_total_ = 0;
  int64_t earliest_staged_us_ = 0;  ///< arrival stamp of oldest staged

  // --- standing-query catalog ---
  std::deque<QueryRuntime> queries_;      // driver thread; entry 0 = primary
  std::vector<JoinerView> joiner_views_;  // [j] owned by joiner j's thread
  bool multi_mode_ = false;               // driver thread
  bool any_best_effort_ = true;           // driver thread
  bool any_side_channel_ = false;         // driver thread

  // --- overload & fault tolerance ---
  LatenessGate late_gate_;                 // driver thread only
  std::vector<std::deque<Event>> spill_;   // driver thread only
  std::vector<uint64_t> dropped_per_joiner_;
  std::vector<uint64_t> control_lost_per_joiner_;
  uint64_t overload_dropped_ = 0;
  uint64_t overload_shed_ = 0;
  uint64_t watermark_attempts_ = 0;  // incl. injector-suppressed ones

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> pushed_{0};
  std::atomic<uint64_t> watermarks_signaled_{0};
  std::unique_ptr<PaddedCounter[]> consumed_;  // per joiner
  std::atomic<uint32_t> exited_{0};

  EngineWatchdog watchdog_;
  mutable std::mutex health_mu_;
  Status health_;  // guarded by health_mu_

  // --- durability (driver thread unless noted) ---
  std::unique_ptr<WalManager> wal_;  // null with durability off
  bool ingest_begun_ = false;
  bool recovery_done_ = false;
  std::atomic<bool> replaying_{false};  // read by admin threads
  std::unique_ptr<struct WalReplayPlan> replay_plan_;
  int replay_stage_ = 0;    ///< 0 snapshot, 1 watermark, 2 log, 3 done
  size_t replay_pos_ = 0;   ///< cursor within the current stage
  uint64_t replayed_tuples_ = 0;
  uint64_t replayed_watermarks_ = 0;
  Timestamp recovered_watermark_ = kMinTimestamp;
  int64_t recovery_start_us_ = 0;
  std::vector<std::string> wal_warnings_;
};

}  // namespace oij

#endif  // OIJ_JOIN_ENGINE_H_
