#include "server/admin.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>

#include "core/run_summary.h"

namespace oij {

namespace {

/// The standing-query catalog as a /statz array (shared by /statz and
/// /queries). Spec fields are /statz-only; the counters export per query.
void VisitQueryRows(const std::vector<QueryStatsRow>& queries,
                    StatsVisitor& v) {
  v.Array("queries", "query");
  for (const QueryStatsRow& q : queries) {
    v.Element(q.id);
    v.Text("id", q.id);
    v.Field("ord", q.ord);
    v.Flag("active", q.active, "oij_query_active",
           "1 while the standing query accepts new base tuples");
    v.Field("pre", q.spec.window.pre);
    v.Field("fol", q.spec.window.fol);
    v.Field("lateness", q.spec.lateness_us);
    v.Text("agg", AggKindName(q.spec.agg));
    v.Text("emit", EmitModeName(q.spec.emit_mode));
    v.Text("late_policy", LatePolicyName(q.spec.late_policy));
    v.Counter("results", q.results, "oij_query_results_total",
              "Join results emitted per standing query");
    v.Object("late");
    v.Counter("tuples", q.late.tuples, "oij_query_late_total",
              "Lateness-bound violations observed per standing query");
    v.Counter("joined", q.late.joined, {},
              "Late tuples joined best-effort per standing query");
    v.Counter("dropped", q.late.dropped, {},
              "Late tuples dropped per standing query");
    v.Counter("side_channel", q.late.side_channel, {},
              "Late tuples diverted to the side channel per standing query");
    v.End();
    v.End();
  }
  v.End();
}

/// Per-node arena gauges shared by the live and the final NUMA objects.
void VisitNodeArenas(const std::vector<uint64_t>& bytes,
                     const std::vector<uint64_t>& live_nodes,
                     std::string_view bytes_prom,
                     std::string_view live_nodes_prom, StatsVisitor& v) {
  v.Array("per_node_arena_bytes", "node");
  for (uint64_t b : bytes) {
    v.Gauge({}, b, bytes_prom,
            "Arena slab bytes reserved by joiners of each NUMA node");
  }
  v.End();
  v.Array("per_node_arena_live_nodes", "node");
  for (uint64_t n : live_nodes) {
    v.Gauge({}, n, live_nodes_prom,
            "Index nodes resident in each NUMA node's arenas");
  }
  v.End();
}

}  // namespace

void VisitAdminStats(const AdminSnapshot& snap, StatsVisitor& v) {
  v.Text("state", snap.recovering
                      ? "recovering"
                      : (snap.run_finished ? "finished" : "serving"));
  v.Text("engine", snap.engine_name);
  v.Text("workload", snap.workload_name);
  v.Gauge("up", 1.0, {}, "1 while the server is serving",
          {{"engine", snap.engine_name}, {"workload", snap.workload_name}});
  v.Gauge("uptime_seconds", snap.uptime_seconds, {},
          "Seconds since the server started");
  v.Flag("run_finished", snap.run_finished, {},
         "1 once the run has been finalized");
  v.Flag("recovering", snap.recovering, {},
         "1 while the engine is replaying its WAL");

  v.Object("health");
  v.Flag("ok", snap.health.ok(), "oij_healthy",
         "1 while the engine health probe reports OK");
  v.Text("status", snap.health.ToString());
  v.End();

  const ServerCounters& c = snap.counters;
  v.Object("server");
  v.Counter("connections_accepted", c.connections_accepted,
            "oij_connections_accepted_total",
            "Data-plane connections accepted");
  v.Gauge("connections_open", c.connections_open, "oij_connections_open",
          "Data-plane connections currently open");
  v.Counter("admin_requests", c.admin_requests, "oij_admin_requests_total",
            "Admin HTTP requests served");
  v.Counter("bytes_in", c.bytes_in, "oij_ingest_bytes_total",
            "Bytes received on the data plane");
  v.Counter("bytes_out", c.bytes_out, "oij_egress_bytes_total",
            "Bytes written on the data plane");
  v.Counter("frames_in", c.frames_in, "oij_frames_total",
            "Well-formed wire frames decoded");
  v.Counter("frames_rejected", c.frames_rejected, "oij_frames_rejected_total",
            "Malformed frames that closed their connection");
  v.Counter("tuples_in", c.tuples_in, "oij_ingest_tuples_total",
            "Tuple frames ingested");
  v.Counter("watermarks_in", c.watermarks_in, "oij_ingest_watermarks_total",
            "Watermark frames ingested");
  v.Counter("results_streamed", c.results_streamed,
            "oij_results_streamed_total",
            "Result frames queued to subscribers");
  v.Gauge("subscribers", c.subscribers, "oij_subscribers",
          "Connections subscribed to results");
  v.Counter("subscribers_evicted", c.subscribers_evicted,
            "oij_subscribers_evicted_total",
            "Subscribers dropped for exceeding the egress backlog bound");
  v.Counter("watermark_acks", c.watermark_acks, "oij_watermark_acks_total",
            "Watermark acknowledgements sent to hello'd peers");
  v.Counter("hellos_rejected", c.hellos_rejected, "oij_hellos_rejected_total",
            "Handshake frames refused (magic/version/order)");
  v.End();

  // Live engine progress: router intake and the per-joiner rings.
  const WatchdogSample& p = snap.progress;
  v.Object("engine_progress");
  v.Counter("accepted_tuples", p.pushed, "oij_engine_accepted_tuples_total",
            "Tuples the engine's router accepted");
  v.Counter("watermarks", p.watermarks, "oij_engine_watermarks_total",
            "Watermark punctuations signaled to the engine");
  v.Array("queue_depths", "joiner");
  for (size_t d : p.queue_depths) {
    v.Gauge({}, d, "oij_joiner_queue_depth",
            "Router->joiner ring occupancy (events)");
  }
  v.End();
  v.Array("consumed", "joiner");
  for (uint64_t n : p.consumed) {
    v.Counter({}, n, "oij_joiner_consumed_total",
              "Events processed per joiner");
  }
  v.End();
  // Allocator gauges (live; zero unless the engine runs pooled_alloc).
  v.Object("memory");
  v.Gauge("arena_bytes", p.arena_bytes, "oij_arena_bytes",
          "Slab bytes reserved by the joiner-owned node arenas");
  v.Gauge("arena_live_nodes", p.arena_live_nodes, "oij_arena_live_nodes",
          "Nodes resident in the node arenas");
  v.Gauge("ebr_retired_backlog", p.ebr_retired_backlog,
          "oij_ebr_retired_backlog",
          "Nodes retired to EBR and awaiting epoch drain");
  v.Counter("arena_slab_recycles", p.arena_slab_recycles,
            "oij_arena_slab_recycles_total",
            "Fully-dead slabs returned to the arena empty pool");
  v.End();
  // NUMA placement (src/topo/). The node count always exports so
  // dashboards can tell "flat machine" from "not scraping"; the
  // per-joiner and per-node series exist only under an active plan.
  v.Object("numa");
  v.Flag("active", p.numa_active, "oij_numa_active",
         "1 while joiners run pinned under a NUMA placement plan");
  v.Gauge("nodes", p.numa_nodes, "oij_numa_nodes",
          "NUMA nodes the engine's placement plan spans");
  v.ExportToPrometheus(p.numa_active);
  v.Array("pin_cpus", "joiner");
  for (int cpu : p.numa_pin_cpus) {
    v.Gauge({}, cpu, "oij_numa_joiner_cpu",
            "CPU each joiner thread is pinned to (-1 = unpinned)");
  }
  v.End();
  v.Array("joiner_node", "joiner");
  for (uint32_t n : p.numa_joiner_node) {
    v.Gauge({}, n, {}, "NUMA node ordinal each joiner runs on");
  }
  v.End();
  VisitNodeArenas(p.per_node_arena_bytes, p.per_node_arena_live_nodes,
                  "oij_numa_node_arena_bytes",
                  "oij_numa_node_arena_live_nodes", v);
  v.Counter("cross_replications", p.numa_cross_replications,
            "oij_numa_cross_replications_total",
            "Partition replicas the rebalancer placed on a remote node");
  v.Counter("cross_dispatches", p.numa_cross_dispatches,
            "oij_numa_cross_dispatches_total",
            "Tuple dispatches routed off the partition leader's node");
  v.ExportToPrometheus(true);
  v.End();
  v.End();

  // Removed queries keep exporting with active=0 so their counters do
  // not vanish mid-scrape.
  if (!snap.queries.empty()) VisitQueryRows(snap.queries, v);

  // Durability (absent entirely when the engine runs without a WAL).
  if (snap.wal.enabled) {
    const WalStats& wal = snap.wal;
    v.Object("wal");
    v.ExportToPrometheus(false);  // oij_recovering already exports it
    v.Flag("recovering", snap.recovering);
    v.ExportToPrometheus(true);
    v.Counter("appended_records", wal.appended_records, {},
              "Records appended to the write-ahead log");
    v.Counter("appended_bytes", wal.appended_bytes, {},
              "Bytes appended to the write-ahead log");
    v.Gauge("synced_records", wal.synced_records, {},
            "Appended records known durable; appended - synced bounds "
            "crash loss");
    v.Counter("fsyncs", wal.fsyncs, {}, "fsync calls issued by group commit");
    v.Counter("fsync_failures", wal.fsync_failures, {},
              "Injected fsync failures (disk-fault harness)");
    v.Counter("short_writes", wal.short_writes, {},
              "Injected short writes (disk-fault harness)");
    v.Counter("snapshots_taken", wal.snapshots_taken, "oij_snapshots_total",
              "Snapshot epochs committed");
    v.Gauge("snapshot_records", wal.snapshot_records, {},
            "Records in the latest committed snapshot");
    // Null/omitted until the first snapshot commits: a -1 "never"
    // sentinel reads as a negative age and poisons
    // `oij_snapshot_age_seconds > X` alert rules.
    if (snap.snapshot_age_seconds >= 0.0) {
      v.Gauge("snapshot_age_seconds", snap.snapshot_age_seconds,
              "oij_snapshot_age_seconds",
              "Seconds since the last committed snapshot");
    } else {
      v.Field("snapshot_age_seconds", std::nan(""));
    }
    v.Counter("replay_records", wal.replay_records, {},
              "Records replayed through ingest during recovery");
    v.Counter("replay_watermarks", wal.replay_watermarks, {},
              "Watermarks replayed during recovery");
    v.Counter("torn_records", wal.torn_records, {},
              "Torn or corrupt tail records discarded during recovery");
    v.Gauge("recovery_duration_us", wal.recovery_duration_us,
            "oij_recovery_duration_us",
            "Wall time of the last crash recovery (0 = none ran)");
    v.End();
  }

  if (snap.run_finished) {
    const RunResult& run = snap.final_run;
    const EngineStats& st = run.stats;
    v.Object("run");
    v.Counter("tuples", run.tuples, "oij_run_input_tuples_total",
              "Input tuples of the finalized run");
    v.Gauge("elapsed_seconds", run.elapsed_seconds, {},
            "Wall time of the finalized run");
    v.Gauge("throughput_tps", run.throughput_tps, {},
            "Input tuples per second of the finalized run");
    v.Counter("results", st.results, {}, "Results of the finalized run");
    v.Object("latency_us");
    v.Histogram("oij_result_latency_us",
                "Result latency (arrival to emit, microseconds)", st.latency);
    // The Percentile <= max invariant of the recorder carries through.
    for (auto [key, q, label] : {std::tuple{"p50", 0.5, "0.5"},
                                 std::tuple{"p90", 0.9, "0.9"},
                                 std::tuple{"p99", 0.99, "0.99"}}) {
      v.Gauge(key, st.latency.Percentile(q), "oij_result_latency_quantile_us",
              "Result latency summary quantiles", {{"quantile", label}});
    }
    v.Gauge("max", st.latency.max_us(), "oij_result_latency_max_us",
            "Maximum observed result latency");
    v.Gauge("mean", st.latency.mean_us(), {}, "Mean result latency");
    v.End();
    v.Object("late");
    v.Counter("tuples", st.late.tuples, {},
              "Lateness-bound violations of the finalized run");
    for (auto [key, value] : {std::pair{"dropped", st.late.dropped},
                              std::pair{"side_channel", st.late.side_channel},
                              std::pair{"joined", st.late.joined}}) {
      v.Counter(key, value, "oij_late_tuples_total",
                "Lateness-bound violations by disposition",
                {{"disposition", key}});
    }
    v.End();
    v.Object("overload");
    v.Counter("dropped", st.overload_dropped, "oij_overload_dropped_total",
              "Tuples lost to backpressure");
    v.Counter("shed", st.overload_shed, "oij_overload_shed_total",
              "Tuples shed by the kShedOldest policy");
    v.Counter("control_lost", st.control_lost, "oij_control_lost_total",
              "Watermark/flush punctuations lost to stop/deadline");
    v.End();
    v.Object("memory");
    v.Flag("pooled", st.mem.pooled, {}, "1 when the run used node arenas");
    v.Gauge("arena_reserved_bytes", st.mem.arena_reserved_bytes, {},
            "Arena slab bytes reserved at the end of the run");
    v.Gauge("arena_live_nodes", st.mem.arena_live_nodes, {},
            "Arena nodes resident at the end of the run");
    v.Counter("arena_allocations", st.mem.arena_allocations, {},
              "Arena node allocations of the run");
    v.Counter("arena_slab_recycles", st.mem.arena_slab_recycles, {},
              "Arena slabs recycled during the run");
    v.Gauge("ebr_retired_backlog", st.mem.ebr_retired_backlog, {},
            "Nodes awaiting EBR reclamation at the end of the run");
    v.End();
    v.Object("numa");
    v.Flag("active", st.numa_active, {},
           "1 when the run's joiners ran under a NUMA placement plan");
    v.Gauge("nodes", st.numa_nodes, {},
            "NUMA nodes the run's placement plan spanned");
    v.ExportToPrometheus(st.numa_active);
    VisitNodeArenas(st.numa_node_arena_bytes, st.numa_node_arena_live_nodes,
                    {}, {}, v);
    v.Counter("cross_replications", st.numa_cross_replications, {},
              "Partition replicas the run placed on a remote node");
    v.Counter("cross_dispatches", st.numa_cross_dispatches, {},
              "Tuple dispatches the run routed off the leader's node");
    v.ExportToPrometheus(true);
    v.End();
    v.Array("warnings");
    for (const std::string& w : st.warnings) v.Text({}, w);
    v.End();
    v.End();
  }
}

std::string RenderPrometheusMetrics(const AdminSnapshot& snap) {
  PrometheusStatsWriter w("oij_");
  VisitAdminStats(snap, w);
  return w.Take();
}

std::string RenderStatzJson(const AdminSnapshot& snap) {
  JsonWriter j;
  VisitAdminStats(snap, j);
  return j.Take();
}

std::string RenderQueriesJson(const std::vector<QueryStatsRow>& queries) {
  JsonWriter j;
  VisitQueryRows(queries, j);
  return j.Take();
}

namespace {

/// Cursor over the flat-JSON object POST /queries accepts. Only the
/// shapes that body can legally contain: one object of string/integer
/// values, no nesting, escape handling limited to \" \\ \/ (ids are
/// [A-Za-z0-9_.-] anyway, so anything fancier is rejected downstream).
struct JsonCursor {
  std::string_view in;
  size_t pos = 0;

  void SkipWs() {
    while (pos < in.size() &&
           (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
            in[pos] == '\r')) {
      ++pos;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos < in.size() && in[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return pos < in.size() && in[pos] == c;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos < in.size()) {
      const char c = in[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= in.size()) return false;
        const char e = in[pos++];
        if (e != '"' && e != '\\' && e != '/') return false;
        out->push_back(e);
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }
  /// An optionally negative decimal that fits int64_t.
  bool ParseInt(int64_t* out) {
    SkipWs();
    const char* end = in.data() + in.size();
    const auto [next, ec] = std::from_chars(in.data() + pos, end, *out);
    if (ec != std::errc()) return false;
    pos = static_cast<size_t>(next - in.data());
    return true;
  }
};

}  // namespace

Status ParseQuerySpecJson(std::string_view body, const QuerySpec& defaults,
                          std::string* id, QuerySpec* spec) {
  *spec = defaults;
  id->clear();
  bool saw_id = false;
  bool saw_lateness = false;
  bool saw_emit = false;
  Timestamp lateness = defaults.lateness_us;
  std::string emit_name;

  JsonCursor c{body};
  if (!c.Consume('{')) {
    return Status::InvalidArgument("body must be a JSON object");
  }
  std::vector<std::string> seen;
  if (!c.Peek('}')) {
    do {
      std::string key;
      if (!c.ParseString(&key)) {
        return Status::InvalidArgument("expected a string key");
      }
      for (const std::string& s : seen) {
        if (s == key) {
          return Status::InvalidArgument("duplicate field '" + key + "'");
        }
      }
      seen.push_back(key);
      if (!c.Consume(':')) {
        return Status::InvalidArgument("expected ':' after '" + key + "'");
      }
      if (key == "id" || key == "agg" || key == "emit" || key == "late") {
        std::string value;
        if (!c.ParseString(&value)) {
          return Status::InvalidArgument("field '" + key +
                                         "' must be a string");
        }
        if (key == "id") {
          *id = value;
          saw_id = true;
        } else if (key == "agg") {
          const Status s = AggKindFromName(value, &spec->agg);
          if (!s.ok()) return Status::InvalidArgument(s.message());
        } else if (key == "emit") {
          emit_name = value;
          saw_emit = true;
        } else {
          const Status s = LatePolicyFromName(value, &spec->late_policy);
          if (!s.ok()) return Status::InvalidArgument(s.message());
        }
      } else if (key == "pre" || key == "fol" || key == "lateness") {
        int64_t value = 0;
        if (!c.ParseInt(&value)) {
          return Status::InvalidArgument("field '" + key +
                                         "' must be an integer");
        }
        if (key == "pre") {
          spec->window.pre = value;
        } else if (key == "fol") {
          spec->window.fol = value;
        } else {
          lateness = value;
          saw_lateness = true;
        }
      } else {
        return Status::InvalidArgument("unknown field '" + key + "'");
      }
    } while (c.Consume(','));
  }
  if (!c.Consume('}')) {
    return Status::InvalidArgument("malformed JSON object");
  }
  c.SkipWs();
  if (c.pos != body.size()) {
    return Status::InvalidArgument("trailing bytes after the JSON object");
  }
  if (!saw_id) {
    return Status::InvalidArgument("missing required field 'id'");
  }
  // The shared index pins the tuple-admission properties: every standing
  // query shares the primary's lateness bound and emit mode, so a body
  // may restate them only verbatim.
  if (saw_lateness && lateness != defaults.lateness_us) {
    return Status::InvalidArgument(
        "field 'lateness' must match the primary query (" +
        std::to_string(defaults.lateness_us) + ")");
  }
  if (saw_emit) {
    EmitMode mode;
    const Status s = EmitModeFromName(emit_name, &mode);
    if (!s.ok()) return Status::InvalidArgument(s.message());
    if (mode != defaults.emit_mode) {
      return Status::InvalidArgument(
          "field 'emit' must match the primary query (" +
          std::string(EmitModeName(defaults.emit_mode)) + ")");
    }
  }
  return Status::OK();
}

int HttpStatusForStatus(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk:
      return 200;
    case Status::Code::kInvalidArgument:
    case Status::Code::kParseError:
    case Status::Code::kFailedPrecondition:
      return 400;
    case Status::Code::kNotFound:
      return 404;
    case Status::Code::kUnavailable:
      return 503;
    default:
      return 500;
  }
}

std::string BuildQueryErrorResponse(const Status& status) {
  JsonWriter j;
  j.Object("error");
  j.Text("code", CodeName(status.code()));
  j.Text("message", status.message());
  j.End();
  return BuildHttpResponse(HttpStatusForStatus(status), "application/json",
                           j.Take());
}

std::string RenderHealthz(const AdminSnapshot& snap, int* status_code) {
  if (snap.recovering) {
    // Not ready: the engine is still replaying its WAL. 503 keeps load
    // balancers away until the replayed state is live.
    *status_code = 503;
    return "recovering\n";
  }
  if (snap.health.ok()) {
    *status_code = 200;
    return "ok\n";
  }
  *status_code = 503;
  return snap.health.ToString() + "\n";
}

std::string HandleAdminRequest(const AdminSnapshot& snap,
                               const HttpRequest& request) {
  if (request.method != "GET") {
    return BuildHttpResponse(405, "text/plain; charset=utf-8",
                             "only GET is supported\n");
  }
  if (request.path == "/metrics") {
    return BuildHttpResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                             RenderPrometheusMetrics(snap));
  }
  if (request.path == "/healthz") {
    int code = 200;
    const std::string body = RenderHealthz(snap, &code);
    return BuildHttpResponse(code, "text/plain; charset=utf-8", body);
  }
  if (request.path == "/statz") {
    return BuildHttpResponse(200, "application/json", RenderStatzJson(snap));
  }
  if (request.path == "/queries") {
    return BuildHttpResponse(200, "application/json",
                             RenderQueriesJson(snap.queries));
  }
  if (request.path == "/") {
    return BuildHttpResponse(
        200, "text/plain; charset=utf-8",
        "oij_server admin endpoints: /metrics /healthz /statz /queries\n");
  }
  return BuildHttpResponse(404, "text/plain; charset=utf-8",
                           "unknown path: " + request.path + "\n");
}

}  // namespace oij
