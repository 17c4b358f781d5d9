#include "src/dist/supervisor.h"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "src/dist/membership.h"
#include "src/dist/shard_plan.h"
#include "src/dist/worker.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#include <stdlib.h>
#include <unistd.h>

namespace catapult::dist {

namespace {

// Removes a private shard directory on every exit path from the phase.
struct ScopedDirRemover {
  std::string path;
  ~ScopedDirRemover() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

}  // namespace

ShardedPhasesResult RunShardedClusterPhases(
    const GraphDatabase& db, const std::vector<std::vector<GraphId>>& coarse,
    const DistOptions& options, Rng& rng, const RunContext& ctx,
    DistReport* report) {
  ShardedPhasesResult out;
  report->enabled = true;
  report->processes = options.processes;

  ShardExecutionSpec spec;
  spec.db = &db;
  spec.coarse = &coarse;
  spec.fine_enabled = options.fine_enabled;
  spec.fine = options.fine;
  // Exactly the draws the in-process path makes (FineClusterPerCluster):
  // one split per coarse cluster, before any work, so the parent stream's
  // position after this phase is mode-independent.
  if (options.fine_enabled) {
    spec.streams = SplitFineStreams(rng, coarse.size());
  }
  spec.fingerprint = options.fingerprint;
  spec.worker_threads = options.worker_threads;
  spec.mem_soft_limit_bytes = options.mem_soft_limit_bytes;
  spec.mem_hard_limit_bytes = options.mem_hard_limit_bytes;
  spec.deadline = ctx.deadline();

  if (coarse.empty()) return out;

  obs::Span phase_span(ctx.tracer(), "dist.sharded_phases");
  // Distributed-trace context: members record spans against this id and
  // ship them back in their completion frames; the merge below stitches
  // them under this phase span.
  if (ctx.tracer() != nullptr) {
    spec.trace_id = ctx.tracer()->trace_id();
    spec.parent_span_id = phase_span.id();
  }

  // Shard artifacts live in the run's checkpoint namespace when there is
  // one; otherwise in a private temp directory that only serves this run's
  // retries and is removed on the way out.
  std::error_code ec;
  const bool private_dir = options.checkpoint_dir.empty();
  ScopedDirRemover private_dir_remover;
  if (private_dir) {
    std::string tmpl =
        (std::filesystem::temp_directory_path(ec) / "catapult-shards-XXXXXX")
            .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) spec.shard_dir = buf.data();
    if (spec.shard_dir.empty()) {
      // mkdtemp failing is already exceptional; the fallback name still
      // includes the pid so concurrent supervisors on one host cannot
      // share (and cross-contaminate) a shard directory.
      spec.shard_dir =
          (std::filesystem::temp_directory_path(ec) /
           ("catapult-shards-p" + std::to_string(::getpid())))
              .string();
      std::filesystem::create_directories(spec.shard_dir, ec);
    }
    // Removal is scoped, not best-effort-at-the-end: early returns and the
    // fleet's failure arms must not leak per-run temp directories.
    private_dir_remover.path = spec.shard_dir;
  } else {
    spec.shard_dir = options.checkpoint_dir + "/shards";
    std::filesystem::create_directories(spec.shard_dir, ec);
  }

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

  // Durable artifacts — a prior run's or this run's — are reused, never
  // recomputed.
  auto reuse_artifact = [&](size_t s, size_t idx) {
    ShardClusterResult result;
    if (!LoadShardArtifact(spec, idx, &result).empty()) return false;
    ++report->artifacts_reused;
    obs::Count(obs::Counter::kDistArtifactsReused);
    event(ShardEvent::Kind::kArtifactReused, s,
          "cluster=" + std::to_string(idx));
    cluster_results[idx] = std::move(result);
    return true;
  };

  // In-process execution of one shard: the fallback rung (the whole phase
  // on platforms without sockets). Same compute path and same pre-split
  // streams as the members, so output is identical.
  auto run_in_process = [&](size_t s) {
    for (size_t idx : plan.shards[s]) {
      if (cluster_results[idx].has_value() || reuse_artifact(s, idx)) continue;
      ShardClusterResult result = ComputeShardCluster(spec, idx, ctx);
      // Complete fallback results are persisted too, so a resumed run with
      // the same checkpoint directory can still reuse them.
      if (result.Complete()) SaveShardArtifact(spec, idx, result);
      cluster_results[idx] = std::move(result);
    }
  };

  report->remote = !options.listen_address.empty() || options.listen_fd >= 0;
  // Prior-run artifacts load here, on the supervisor's filesystem; the
  // fleet then assigns only the missing clusters.
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    for (size_t idx : plan.shards[s]) reuse_artifact(s, idx);
  }
  FleetOutcome fleet =
      RunFleet(spec, plan, options, ctx, report, &cluster_results);
  if (fleet.shard_spans.size() == plan.shards.size()) {
    shard_span_buffers = std::move(fleet.shard_spans);
  }
  // The degradation ladder's last rung: whatever the fleet did not finish
  // — quarantine, stop, fleet loss — executes in the supervisor, reusing
  // every durable artifact the members left behind.
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
      report->remote && fleet.fleet_lost && fleet.remote_clusters == 0;

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

  // Merge in coarse-cluster order — the exact concatenation order of the
  // in-process FineClusterPerCluster path, which is what makes a P-process
  // run bit-identical to a 1-process run.
  for (size_t c = 0; c < coarse.size(); ++c) {
    if (!cluster_results[c].has_value()) {
      // Defensive: every cluster is planned into some shard, but a dropped
      // result must never silently break the partition invariant.
      cluster_results[c] = ComputeShardCluster(spec, c, ctx);
    }
    ShardClusterResult& r = *cluster_results[c];
    out.fine_complete = out.fine_complete && r.fine_complete;
    out.degraded_csgs += r.degraded_csgs;
    for (auto& fine : r.fine_clusters) {
      out.fine_clusters.push_back(std::move(fine));
    }
    for (auto& csg : r.csgs) out.csgs.push_back(std::move(csg));
  }

  return out;  // a private shard dir is removed by private_dir_remover
}

}  // namespace catapult::dist
