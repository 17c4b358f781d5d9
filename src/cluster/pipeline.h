#ifndef CATAPULT_CLUSTER_PIPELINE_H_
#define CATAPULT_CLUSTER_PIPELINE_H_

#include <vector>

#include "src/cluster/fine_clustering.h"
#include "src/graph/graph_database.h"
#include "src/mining/subtree_miner.h"
#include "src/sample/sampling.h"
#include "src/util/rng.h"

namespace catapult {

// Which stages of small graph clustering to run. The paper's Exp 1 ablates
// all five combinations (Figure 7).
enum class ClusteringMode {
  kCoarseOnly,   // CC: frequent-subtree features + k-means only
  kFineOnly,     // mccsFC / mcsFC: MCS-similarity splitting from one cluster
  kHybrid,       // mccsH / mcsH: coarse, then fine on oversized clusters
};

// Options for the end-to-end small graph clustering phase (Section 4.1).
struct SmallGraphClusteringOptions {
  ClusteringMode mode = ClusteringMode::kHybrid;

  // Maximum cluster size N; k for k-means is max(1, |D| / N) (Section 6.1).
  size_t max_cluster_size = 20;

  SubtreeMinerOptions miner;
  McsOptions fine_mcs;  // connected=true -> mccs variants
};

// Result of small graph clustering.
struct ClusteringResult {
  // Clusters as lists of graph ids (over the id space handed in).
  std::vector<std::vector<GraphId>> clusters;
  // The representative frequent subtrees used as features (empty for
  // kFineOnly).
  std::vector<FrequentSubtree> features;

  // Anytime diagnostics: false when the deadline/cancellation cut the stage
  // short and its output is a best-effort partial result. `clusters` is a
  // partition of the input ids in every case.
  bool mining_complete = true;
  bool coarse_complete = true;
  bool fine_complete = true;
  bool Complete() const {
    return mining_complete && coarse_complete && fine_complete;
  }
};

// The stages of small graph clustering before fine splitting (Algorithm 2):
// mining + facility selection under FacilitySelectionOptions' defaults +
// k-means (kFineOnly skips both and seeds one all-graphs cluster). The
// k-means feature matrix is the transpose of the selected subtrees' support
// sets. With `eager_sampling` set, only the mining step changes (Section
// 4.3): subtrees are mined on an eager sample at a lowered threshold and
// their supports re-counted over all of `graph_ids`. Mining gets half of
// the remaining time; on expiry it keeps its completed levels and k-means
// falls back to one cluster.
// `result.clusters` holds the coarse partition; fine_complete is
// untouched. Exposed separately so the pipeline can run fine clustering
// (FineCluster) in-process or sharded across worker processes (src/dist/).
ClusteringResult CoarseClusteringStage(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SmallGraphClusteringOptions& options, Rng& rng,
    const RunContext& ctx,
    const EagerSamplingOptions* eager_sampling = nullptr);

// Structural validation of a cluster assignment over the id universe
// [0, universe): every cluster non-empty, every id in range, and no id in
// more than one cluster. Lazy sampling may drop ids, so a valid assignment
// need not cover the universe; `is_partition` (optional) reports whether it
// does. Used by the checkpoint store to reject decoded-but-nonsensical
// cluster checkpoints instead of feeding them to the pipeline.
bool ValidateClusterAssignment(
    const std::vector<std::vector<GraphId>>& clusters, size_t universe,
    bool* is_partition = nullptr);

}  // namespace catapult

#endif  // CATAPULT_CLUSTER_PIPELINE_H_
