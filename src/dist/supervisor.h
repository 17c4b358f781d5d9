#ifndef CATAPULT_DIST_SUPERVISOR_H_
#define CATAPULT_DIST_SUPERVISOR_H_

#include <cstdint>
#include <vector>

#include "src/csg/csg.h"
#include "src/dist/dist_report.h"
#include "src/graph/graph_database.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"

// The supervisor half of sharded multi-process execution (DESIGN.md §12).
// The supervisor plans shards over the coarse partition and hands them to
// one membership loop (src/dist/membership.h). Without a listen endpoint it
// forks min(processes, shards) local members, each speaking the member
// protocol over its end of a socketpair; with one, catapult_worker
// processes dial in. Either way liveness is in-band: a member that misses
// its heartbeat deadline, stalls a write or hangs up is fenced (a fenced
// local member is also SIGKILLed, reaped with waitpid and replaced). Failed
// shards are retried under deterministic capped exponential backoff
// (src/util/backoff.h), each retry resuming from the clusters the
// supervisor already accepted; a shard exhausting its failure budget is
// quarantined and executed in-process as the final rung of the degradation
// ladder. Accepted results stay in memory; only a run with a checkpoint
// store also writes them to it, as per-cluster shard records that a later
// --resume run in the same directory reuses. The merged result is
// bit-identical to a 1-process run: each coarse cluster's work depends only
// on its pre-split rng stream and the supervisor concatenates results in
// coarse-cluster order.

namespace catapult {
class CheckpointStore;
struct CatapultOptions;
}  // namespace catapult

namespace catapult::dist {

// The sharded fine-clustering + CSG phase's merged output, in coarse
// cluster order (identical to the in-process pipeline's output order).
struct ShardedPhasesResult {
  std::vector<std::vector<GraphId>> fine_clusters;
  std::vector<ClusterSummaryGraph> csgs;  // 1:1 with fine_clusters
  bool fine_complete = true;
  size_t degraded_csgs = 0;
};

// Runs fine clustering + CSG folding over `coarse` across member
// processes, configured by the run's `options` (its fleet, supervision and
// fine-clustering fields) and admitting only members that present the
// run's `fingerprint`. Coarse cluster i is split under streams[i]
// (SplitFineStreams, drawn by the caller exactly as for the in-process
// FineCluster call); an empty `streams` skips fine clustering and folds
// each coarse cluster whole. With a `store` (RunCatapult's, when it
// checkpoints), every complete cluster result is saved to it, and under
// `options.resume` its shard records from a prior run are reused first;
// without one (null) the phase reads and writes no file. `report`
// (required) receives supervision diagnostics. Every local member is
// reaped before this returns.
ShardedPhasesResult RunShardedClusterPhases(
    const GraphDatabase& db, const std::vector<std::vector<GraphId>>& coarse,
    const std::vector<RngState>& streams, const CatapultOptions& options,
    uint64_t fingerprint, CheckpointStore* store, const RunContext& ctx,
    DistReport* report);

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_SUPERVISOR_H_
