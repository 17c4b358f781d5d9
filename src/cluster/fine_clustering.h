#ifndef CATAPULT_CLUSTER_FINE_CLUSTERING_H_
#define CATAPULT_CLUSTER_FINE_CLUSTERING_H_

#include <vector>

#include "src/graph/graph_database.h"
#include "src/iso/mcs.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"

namespace catapult {

// Options for fine clustering (Algorithm 3): recursive 2-way splitting of
// clusters larger than `max_cluster_size`, guided by MCCS (or MCS)
// similarity to two seed graphs.
struct FineClusteringOptions {
  // Clusters at or below this size are left alone (the paper's N; default
  // from Section 6.1).
  size_t max_cluster_size = 20;

  // MCS/MCCS search configuration (connected=true gives the paper's default
  // mccs variant; set connected=false for the mcsFC/mcsH ablation).
  McsOptions mcs;
};

// Splits every cluster in `clusters` (vectors of graph ids into `db`) that
// exceeds options.max_cluster_size, per Algorithm 3: Seed1 is random, Seed2
// is the graph least similar to Seed1, every other graph joins the seed it
// is more similar to; oversized results are re-queued. Returns the final
// cluster list. Deterministic given `rng`. Polls `ctx` before each split
// (failpoint site "cluster.fine.split") and tightens the per-pair MCS node
// budget to the remaining time. On expiry the still-oversized clusters are
// returned unsplit (graceful degradation to the coarse partition) and
// `complete` (optional) is set to false. The result is always a partition
// of the input ids.
std::vector<std::vector<GraphId>> FineCluster(
    const GraphDatabase& db, std::vector<std::vector<GraphId>> clusters,
    const FineClusteringOptions& options, Rng& rng,
    const RunContext& ctx = RunContext::NoLimit(), bool* complete = nullptr);

// --- Per-cluster decomposition ---------------------------------------------
//
// The sharded executor (src/dist/) partitions the coarse clusters across
// worker processes, so each coarse cluster's fine splitting must be an
// independent unit of work: it consumes a private pre-split rng stream and
// nothing else. The in-process pipeline uses the same decomposition (one
// child stream per coarse cluster, drawn from the parent in cluster order,
// results concatenated in cluster order), which is what makes a P-process
// run bit-identical to the 1-process run — both sides compute exactly
// FineClusterOne(cluster[i], stream[i]) for every i.

// Pre-splits one child stream per coarse cluster: consumes exactly `count`
// draws from `rng`, in order. streams[i] seeds the fine splitting of
// cluster i regardless of which process or thread executes it.
std::vector<RngState> SplitFineStreams(Rng& rng, size_t count);

// Fine clustering of one coarse cluster under its pre-split stream. Returns
// a partition of `cluster` (clusters at or below max_cluster_size where the
// deadline allowed). `complete` reports whether every oversized part was
// split. Runs inline — no pool use — so callers may invoke it from inside
// their own parallel regions.
std::vector<std::vector<GraphId>> FineClusterOne(
    const GraphDatabase& db, std::vector<GraphId> cluster,
    const FineClusteringOptions& options, const RngState& stream,
    const RunContext& ctx, bool* complete = nullptr);

// Per-cluster fine clustering of a whole coarse partition: pre-splits the
// streams, runs FineClusterOne per cluster on the context's pool, and
// concatenates the results in cluster order (empty input clusters are
// dropped). `complete` is the conjunction of the per-cluster flags.
std::vector<std::vector<GraphId>> FineClusterPerCluster(
    const GraphDatabase& db, std::vector<std::vector<GraphId>> clusters,
    const FineClusteringOptions& options, Rng& rng, const RunContext& ctx,
    bool* complete = nullptr);

}  // namespace catapult

#endif  // CATAPULT_CLUSTER_FINE_CLUSTERING_H_
