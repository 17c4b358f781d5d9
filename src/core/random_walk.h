#ifndef CATAPULT_CORE_RANDOM_WALK_H_
#define CATAPULT_CORE_RANDOM_WALK_H_

#include <vector>

#include "src/core/weights.h"
#include "src/csg/csg.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"

namespace catapult {

// A CSG with per-edge random-walk weights (Algorithm 4, line 2):
// w_e = lcov(e, D) * lcov(e, C), the product of the global edge-label
// weight (decaying as labels get used) and the local within-cluster
// coverage of the summary edge.
struct WeightedCsg {
  const ClusterSummaryGraph* csg = nullptr;
  std::vector<double> edge_weights;  // parallel to csg->edges()
};

// (Re)computes the walk weights of `csg` under the current global
// edge-label weights. Called once per selection iteration because elw
// decays after every selected pattern.
WeightedCsg MakeWeightedCsg(const ClusterSummaryGraph& csg,
                            const EdgeLabelWeights& elw);

// A potential candidate pattern (PCP): a set of CSG edge indices forming a
// connected subgraph of the summary.
using Pcp = std::vector<size_t>;

// One weighted random walk on `wcsg` (Section 5): starts at the seed edge
// (largest weight) and repeatedly adds one candidate adjacent edge drawn
// with probability proportional to its weight, until `target_edges` edges
// are collected or no edge can be added. Drawing proportionally to weight
// is exactly the paper's LCM-integerisation scheme (see Rng::WeightedIndex).
Pcp GeneratePcp(const WeightedCsg& wcsg, size_t target_edges, Rng& rng);

// Deterministic greedy variant (DaVinci-style ablation): grows from the
// seed edge always taking the heaviest candidate adjacent edge.
Pcp GenerateGreedyPcp(const WeightedCsg& wcsg, size_t target_edges);

// Generates up to `count` PCP walks (empty walks dropped), polling `ctx`
// before each walk (failpoint site "selector.pcp_walk"); on expiry the
// library generated so far is returned — FCP assembly degrades smoothly
// with fewer walks. With an unlimited context this returns exactly the
// walks of `count` sequential GeneratePcp calls and leaves `rng` where they
// would. It finds the seed edge once, since every walk starts there, and
// runs all walks on one scratch owned by the call (edge stamps, the CAE,
// weight and PCP buffers), so concurrent calls share nothing but `wcsg`.
std::vector<Pcp> GeneratePcpLibrary(const WeightedCsg& wcsg,
                                    size_t target_edges, size_t count,
                                    Rng& rng, const RunContext& ctx);

// Assembles the final candidate pattern (FCP) from a PCP library: the most
// frequent edge across the library seeds the pattern, which then greedily
// grows by the most frequent library edge connected to the partial pattern,
// until `target_edges` edges are collected or no connected edge remains.
// Returns the FCP as CSG edge indices (possibly shorter than requested).
Pcp GenerateFcp(const ClusterSummaryGraph& csg, const std::vector<Pcp>& library,
                size_t target_edges);

// Materialises a set of CSG edges as a free-standing pattern graph
// (vertices re-indexed densely, labels copied from the summary).
Graph PatternFromCsgEdges(const ClusterSummaryGraph& csg, const Pcp& edges);

}  // namespace catapult

#endif  // CATAPULT_CORE_RANDOM_WALK_H_
