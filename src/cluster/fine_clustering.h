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
  // from Section 6.1). At least 2.
  size_t max_cluster_size = 20;

  // MCS/MCCS search configuration (connected=true gives the paper's default
  // mccs variant; set connected=false for the mcsFC/mcsH ablation).
  McsOptions mcs;
};

// Pre-splits one child stream per coarse cluster: consumes exactly `count`
// draws from `rng`, in order. streams[i] seeds the fine splitting of
// cluster i regardless of which process or thread executes it.
std::vector<RngState> SplitFineStreams(Rng& rng, size_t count);

// Splits every cluster in `clusters` (vectors of graph ids into `db`) that
// exceeds options.max_cluster_size, per Algorithm 3: Seed1 is random, Seed2
// is the member least similar to Seed1, every other member joins the seed
// it is more similar to, and oversized parts are split again. Returns each
// cluster's parts in cluster order (empty input clusters are dropped).
//
// Cluster i draws only from streams[i] (one stream per cluster, see
// SplitFineStreams), so its parts do not depend on which other clusters
// share the call: the sharded executor (src/dist/) makes one-cluster calls
// and concatenates them into exactly this function's output over all
// clusters. All clusters advance in lockstep rounds, one level of their
// split trees per round. In a round the calling thread polls `ctx` and
// draws Seed1 for every oversized part, in (cluster, level) order; one
// ParallelFor over every (part, member) pair computes the similarity to
// Seed1; the calling thread picks each Seed2 (first index on ties); a
// second ParallelFor computes the similarity to Seed2; and the calling
// thread routes the parts. Output, rng draws and MCS work are therefore the
// same at any pool size.
//
// Each poll is failpoint site "cluster.fine.split"; MCS node budgets are
// tightened to the remaining time. On a stop request every part not yet
// split, in any cluster, is returned unsplit (graceful degradation towards
// the coarse partition) and `complete` (optional) is set to false. The
// result is always a partition of the input ids.
std::vector<std::vector<GraphId>> FineCluster(
    const GraphDatabase& db, std::vector<std::vector<GraphId>> clusters,
    const std::vector<RngState>& streams,
    const FineClusteringOptions& options,
    const RunContext& ctx = RunContext::NoLimit(), bool* complete = nullptr);

}  // namespace catapult

#endif  // CATAPULT_CLUSTER_FINE_CLUSTERING_H_
