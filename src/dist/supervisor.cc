#include "src/dist/supervisor.h"

#include <algorithm>
#include <optional>

#include "src/core/catapult.h"
#include "src/dist/membership.h"
#include "src/dist/shard_plan.h"
#include "src/dist/worker.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/persist/checkpoint.h"

namespace catapult::dist {

ShardedPhasesResult RunShardedClusterPhases(
    const GraphDatabase& db, const std::vector<std::vector<GraphId>>& coarse,
    const std::vector<RngState>& streams, const CatapultOptions& options,
    uint64_t fingerprint, CheckpointStore* store, const RunContext& ctx,
    DistReport* report) {
  ShardedPhasesResult out;
  report->enabled = true;
  report->processes = options.processes;
  if (coarse.empty()) return out;

  ShardExecutionSpec spec;
  spec.db = &db;
  spec.coarse = &coarse;
  spec.streams = &streams;
  spec.store = store;

  obs::Span phase_span(ctx.tracer(), "dist.sharded_phases");
  // Distributed-trace context: members record spans against this id and
  // ship them back in their completion frames; the merge below stitches
  // them under this phase span.
  if (ctx.tracer() != nullptr) spec.trace_id = ctx.tracer()->trace_id();

  std::vector<size_t> sizes(coarse.size());
  for (size_t i = 0; i < coarse.size(); ++i) sizes[i] = coarse[i].size();
  ShardPlan plan = PlanShards(sizes, std::max<size_t>(options.processes, 1));
  report->shards = plan.shards.size();

  std::vector<std::optional<ShardClusterResult>> cluster_results(coarse.size());
  // Accepted per-shard member span buffers (first valid completion wins),
  // merged into the supervisor's tracer after the phase, in shard order.
  std::vector<std::vector<obs::SpanRecord>> shard_span_buffers(
      plan.shards.size());

  auto event = [&](ShardEvent::Kind kind, size_t shard,
                   std::string detail = "") {
    report->events.push_back(ShardEvent{kind, shard, std::move(detail)});
  };

  // The same compute path and pre-split streams as the members, so output
  // is identical.
  const FineClusteringOptions fine{options.clustering.max_cluster_size,
                                   options.clustering.fine_mcs};
  auto compute = [&](size_t idx) {
    return ComputeShardCluster(db, coarse[idx],
                               streams.empty() ? nullptr : &streams[idx], fine,
                               ctx);
  };

  // In-process execution of one shard's missing clusters: the fallback
  // rung. Complete results are saved like a member's, so a --resume run in
  // the same directory can reuse them; a failed save leaves the result
  // correct but not durable, and is reported.
  auto run_in_process = [&](size_t s) {
    for (size_t idx : plan.shards[s]) {
      if (cluster_results[idx].has_value()) continue;
      ShardClusterResult result = compute(idx);
      if (store != nullptr && result.Complete()) {
        const std::string err = store->SaveShard(
            idx, EncodeShardResultPayload(idx, coarse[idx], result));
        if (!err.empty()) {
          ++report->fallback_save_failures;
          event(ShardEvent::Kind::kFallbackSaveFailed, s,
                "cluster=" + std::to_string(idx) + ": " + err);
        }
      }
      cluster_results[idx] = std::move(result);
    }
  };

  report->remote = !options.dist_listen.empty() || options.dist_listen_fd >= 0;
  // Under --resume, a prior run's records load here, on the supervisor's
  // filesystem; the fleet then assigns only the missing clusters. Bound to
  // the run fingerprint and each cluster's member list, a valid record is
  // exactly what this run would compute.
  if (store != nullptr && options.resume) {
    for (size_t s = 0; s < plan.shards.size(); ++s) {
      for (size_t idx : plan.shards[s]) {
        std::string payload;
        ShardClusterResult result;
        if (!store->LoadShard(idx, &payload).empty() ||
            !DecodeShardResultPayload(payload, idx, coarse[idx], &result)
                 .empty()) {
          continue;
        }
        ++report->artifacts_reused;
        obs::Count(obs::Counter::kDistArtifactsReused);
        event(ShardEvent::Kind::kArtifactReused, s,
              "cluster=" + std::to_string(idx));
        cluster_results[idx] = std::move(result);
      }
    }
  }
  FleetOutcome fleet = RunFleet(spec, plan, options, fingerprint, ctx, report,
                                &cluster_results);
  if (fleet.shard_spans.size() == plan.shards.size()) {
    shard_span_buffers = std::move(fleet.shard_spans);
  }
  // The degradation ladder's last rung: whatever the fleet did not finish
  // — quarantine, stop, fleet loss — executes in the supervisor, keeping
  // every cluster the members already delivered.
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    bool missing = false;
    for (size_t idx : plan.shards[s]) {
      if (!cluster_results[idx].has_value()) {
        missing = true;
        break;
      }
    }
    if (!missing) continue;
    ++report->inprocess_fallbacks;
    obs::Count(obs::Counter::kDistFallbacks);
    event(ShardEvent::Kind::kInProcessFallback, s,
          fleet.fleet_lost ? "fleet lost" : "shard incomplete");
    run_in_process(s);
  }
  report->remote_fallback_only =
      report->remote && fleet.fleet_lost && report->remote_clusters == 0;

  // Stitch shipped worker spans into this process's trace, one merge pass
  // in shard order 0..N-1 regardless of completion order, so reruns of the
  // same work produce byte-identical trace documents (under fixed ticks).
  // Each shard's batch lands on its own process track (pid 2+s; the
  // supervisor is pid 1), rooted under a supervisor-side shard span that is
  // itself a child of the phase span.
  if (ctx.tracer() != nullptr && spec.trace_id != 0) {
    for (size_t s = 0; s < plan.shards.size() && s < shard_span_buffers.size();
         ++s) {
      if (shard_span_buffers[s].empty()) continue;
      const int pid = static_cast<int>(2 + s);
      ctx.tracer()->SetProcessName(
          pid, "catapult shard " + std::to_string(s));
      obs::Span shard_span(ctx.tracer(), "dist.shard-" + std::to_string(s),
                           phase_span.id());
      const size_t merged = ctx.tracer()->ImportShardSpans(
          shard_span_buffers[s], pid, shard_span.id(),
          "worker.shard-" + std::to_string(s), 0);
      obs::Count(obs::Counter::kObsSpansMerged, merged);
    }
  }

  // Merge in coarse-cluster order — the order in which the in-process
  // FineCluster call over all clusters lists their parts, which is what
  // makes a P-process run bit-identical to a 1-process run.
  for (size_t c = 0; c < coarse.size(); ++c) {
    if (!cluster_results[c].has_value()) {
      // Defensive: every cluster is planned into some shard, but a dropped
      // result must never silently break the partition invariant.
      cluster_results[c] = compute(c);
    }
    ShardClusterResult& r = *cluster_results[c];
    out.fine_complete = out.fine_complete && r.fine_complete;
    out.degraded_csgs += r.degraded_csgs;
    for (auto& fine : r.fine_clusters) {
      out.fine_clusters.push_back(std::move(fine));
    }
    for (auto& csg : r.csgs) out.csgs.push_back(std::move(csg));
  }

  return out;
}

}  // namespace catapult::dist
