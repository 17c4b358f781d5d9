#include "src/core/report.h"

#include <ostream>
#include <sstream>

#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace catapult {

void WriteSelectionReport(const CatapultResult& result,
                          const LabelMap& labels, std::ostream& out) {
  obs::JsonWriter w(/*indent=*/2);
  w.BeginObject();

  size_t total_graphs = 0;
  for (const auto& cluster : result.clusters) total_graphs += cluster.size();
  w.Key("database").BeginObject();
  w.Key("graphs").Value(static_cast<uint64_t>(total_graphs));
  w.Key("clusters").Value(static_cast<uint64_t>(result.clusters.size()));
  w.EndObject();

  w.Key("timings").BeginObject();
  w.Key("clustering_s").Value(result.clustering_seconds);
  w.Key("csg_s").Value(result.csg_seconds);
  w.Key("selection_s").Value(result.selection_seconds);
  w.EndObject();

  // Per-primitive counters of the run (DESIGN.md §11). Always present;
  // "enabled" is false (and every counter zero) when the run carried no
  // MetricsRegistry.
  w.Key("metrics").BeginObject();
  obs::RenderMetricsFields(result.execution.metrics, w);
  w.EndObject();

  // Sharded-execution supervision summary (DESIGN.md §12); "enabled" is
  // false — with all counts zero — for in-process runs.
  const dist::DistReport& d = result.execution.dist;
  w.Key("dist").BeginObject();
  w.Key("enabled").Value(d.enabled);
  w.Key("processes").Value(static_cast<uint64_t>(d.processes));
  w.Key("shards").Value(static_cast<uint64_t>(d.shards));
  w.Key("workers_spawned").Value(static_cast<uint64_t>(d.workers_spawned));
  w.Key("worker_deaths").Value(static_cast<uint64_t>(d.worker_deaths));
  w.Key("worker_hangs").Value(static_cast<uint64_t>(d.worker_hangs));
  w.Key("shard_retries").Value(static_cast<uint64_t>(d.shard_retries));
  w.Key("backoff_waits").Value(static_cast<uint64_t>(d.backoff_waits));
  w.Key("backoff_total_ms").Value(d.backoff_total_ms);
  w.Key("quarantined_shards").Value(
      static_cast<uint64_t>(d.quarantined_shards));
  w.Key("inprocess_fallbacks").Value(
      static_cast<uint64_t>(d.inprocess_fallbacks));
  w.Key("artifacts_reused").Value(static_cast<uint64_t>(d.artifacts_reused));
  w.Key("artifacts_rejected").Value(
      static_cast<uint64_t>(d.artifacts_rejected));
  w.Key("fallback_save_failures").Value(
      static_cast<uint64_t>(d.fallback_save_failures));
  w.Key("heartbeats").Value(static_cast<uint64_t>(d.heartbeats));
  // Fleet membership (DESIGN.md §12); all-zero/false for in-process runs,
  // and `remote`/`listen_address` stay unset for local fleets.
  w.Key("remote").Value(d.remote);
  w.Key("listen_address").Value(d.listen_address);
  w.Key("workers_joined").Value(static_cast<uint64_t>(d.workers_joined));
  w.Key("workers_rejected").Value(static_cast<uint64_t>(d.workers_rejected));
  w.Key("reconnects").Value(static_cast<uint64_t>(d.reconnects));
  w.Key("fenced_frames").Value(static_cast<uint64_t>(d.fenced_frames));
  w.Key("duplicate_clusters").Value(
      static_cast<uint64_t>(d.duplicate_clusters));
  w.Key("write_stalls").Value(static_cast<uint64_t>(d.write_stalls));
  w.Key("remote_clusters").Value(static_cast<uint64_t>(d.remote_clusters));
  w.Key("fleet_lost_fallbacks").Value(
      static_cast<uint64_t>(d.fleet_lost_fallbacks));
  w.Key("remote_fallback_only").Value(d.remote_fallback_only);
  w.EndObject();

  // One record per greedy iteration of the bound-first argmax (DESIGN.md
  // §15); -inf scores ("none") render as null.
  w.Key("iterations").BeginArray();
  for (const SelectionIteration& it : result.selection.iterations) {
    w.BeginObject();
    w.Key("candidates").Value(static_cast<uint64_t>(it.candidates));
    w.Key("exact").Value(static_cast<uint64_t>(it.exact));
    w.Key("skipped").Value(static_cast<uint64_t>(it.skipped));
    w.Key("winning_score").Value(it.winning_score);
    w.Key("best_skipped_bound").Value(it.best_skipped_bound);
    w.EndObject();
  }
  w.EndArray();

  w.Key("patterns").BeginArray();
  for (size_t i = 0; i < result.selection.patterns.size(); ++i) {
    const SelectedPattern& p = result.selection.patterns[i];
    w.BeginObject();
    w.Key("id").Value(static_cast<uint64_t>(i));
    w.Key("score").Value(p.score);
    w.Key("ccov").Value(p.ccov);
    w.Key("lcov").Value(p.lcov);
    w.Key("div").Value(p.div);
    w.Key("cog").Value(p.cog);
    w.Key("vertices").BeginArray();
    for (VertexId v = 0; v < p.graph.NumVertices(); ++v) {
      w.BeginObject();
      w.Key("id").Value(static_cast<uint64_t>(v));
      Label label = p.graph.VertexLabel(v);
      w.Key("label");
      if (label < labels.size()) {
        w.Value(labels.Name(label));
      } else {
        w.Value(static_cast<uint64_t>(label));  // numeric fallback
      }
      w.EndObject();
    }
    w.EndArray();
    w.Key("edges").BeginArray();
    for (const Edge& e : p.graph.EdgeList()) {
      w.BeginObject();
      w.Key("u").Value(static_cast<uint64_t>(e.u));
      w.Key("v").Value(static_cast<uint64_t>(e.v));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  out << w.str() << '\n';
}

std::string SelectionReportJson(const CatapultResult& result,
                                const LabelMap& labels) {
  std::ostringstream out;
  WriteSelectionReport(result, labels, out);
  return out.str();
}

}  // namespace catapult
