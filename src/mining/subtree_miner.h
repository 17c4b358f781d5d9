#ifndef CATAPULT_MINING_SUBTREE_MINER_H_
#define CATAPULT_MINING_SUBTREE_MINER_H_

#include <string>
#include <vector>

#include "src/graph/flat_graph.h"
#include "src/graph/graph_database.h"
#include "src/util/bitset.h"
#include "src/util/deadline.h"

namespace catapult {

// Options for frequent free-tree mining (Section 4.1; Chi et al. style
// pattern growth with canonical-form deduplication).
struct SubtreeMinerOptions {
  // Minimum relative support (fraction of graphs containing the subtree).
  double min_support = 0.1;

  // Maximum subtree size in edges. Frequent subtrees are clustering
  // features; small trees already capture the crucial topology (paper
  // footnote 8) while keeping mining cheap.
  size_t max_edges = 3;
};

// Candidates expanded per mining level, to bound worst-case mining time
// (those with the most frequent parents are kept).
inline constexpr size_t kSubtreeCandidatesPerLevel = 5000;

// A mined frequent subtree with its support set.
struct FrequentSubtree {
  Graph tree;
  // CanonicalTreeString(tree), computed once per returned subtree for the
  // callers that key features by it (facility location, checkpoints).
  std::string canonical;
  DynamicBitset support;   // bit i set iff graph i contains the subtree
  double frequency = 0.0;  // |support| / universe size
};

// Mines frequent free subtrees of the graphs in `db` whose ids are listed in
// `graph_ids` (support is measured against graph_ids.size()): the growth
// loop GrowFrequentPatterns (src/mining/subgraph_miner.h) without cycle
// closure, so every candidate is a tree, at most kSubtreeCandidatesPerLevel
// candidates per level and with the same stop semantics on `ctx` (failpoint
// site "miner.count_support"). `complete` (optional) reports whether mining
// ran to natural completion.
std::vector<FrequentSubtree> MineFrequentSubtrees(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SubtreeMinerOptions& options,
    const RunContext& ctx = RunContext::NoLimit(), bool* complete = nullptr);

// Convenience overload over the whole database.
std::vector<FrequentSubtree> MineFrequentSubtrees(
    const GraphDatabase& db, const SubtreeMinerOptions& options);

// Recounts the support of `tree` over the full database, flattened once by
// the caller for all candidates (used after eager sampling: mine with a
// lowered threshold on the sample, then verify with the original threshold
// on D; Section 4.3).
DynamicBitset CountSupport(const Graph& tree, const FlatGraphDatabase& db);

}  // namespace catapult

#endif  // CATAPULT_MINING_SUBTREE_MINER_H_
