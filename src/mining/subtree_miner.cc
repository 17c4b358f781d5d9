#include "src/mining/subtree_miner.h"

#include "src/iso/flat_vf2.h"
#include "src/mining/subgraph_miner.h"
#include "src/tree/canonical.h"

namespace catapult {

std::vector<FrequentSubtree> MineFrequentSubtrees(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SubtreeMinerOptions& options, const RunContext& ctx,
    bool* complete) {
  const SubgraphMinerOptions growth{
      .min_support = options.min_support,
      .min_edges = 1,
      .max_edges = options.max_edges,
      .max_candidates_per_level = kSubtreeCandidatesPerLevel};
  std::vector<FrequentSubtree> results;
  for (FrequentSubgraph& fs :
       GrowFrequentPatterns(db, graph_ids, growth, /*close_cycles=*/false,
                            ctx, complete)) {
    std::string canonical = CanonicalTreeString(fs.graph);
    results.push_back({std::move(fs.graph), std::move(canonical),
                       std::move(fs.support), fs.frequency});
  }
  return results;
}

std::vector<FrequentSubtree> MineFrequentSubtrees(
    const GraphDatabase& db, const SubtreeMinerOptions& options) {
  return MineFrequentSubtrees(db, AllGraphIds(db), options);
}

DynamicBitset CountSupport(const Graph& tree, const FlatGraphDatabase& db) {
  FlatGraph flat_tree = FlatGraph::Build(tree);
  return ContainingGraphs(flat_tree.View(), db);
}

}  // namespace catapult
