#ifndef CATAPULT_MINING_SUBGRAPH_MINER_H_
#define CATAPULT_MINING_SUBGRAPH_MINER_H_

#include <vector>

#include "src/graph/graph_database.h"
#include "src/util/bitset.h"
#include "src/util/deadline.h"

namespace catapult {

// Options for frequent subgraph mining. This is the Exp 9 baseline (the
// paper uses Gaston): general connected subgraphs, not just trees.
struct SubgraphMinerOptions {
  // Minimum relative support.
  double min_support = 0.08;

  // Pattern size limits in edges.
  size_t min_edges = 1;
  size_t max_edges = 12;

  // Cap on candidates expanded per level (0 = unlimited).
  size_t max_candidates_per_level = 4000;
};

// A mined frequent connected subgraph.
struct FrequentSubgraph {
  Graph graph;
  DynamicBitset support;
  double frequency = 0.0;
};

// The level-wise pattern-growth loop behind both miners: this one and the
// subtree miner of src/mining/subtree_miner.h. Level 1 holds the frequent
// labelled edges of the graphs `graph_ids` (support bit i stands for
// graph_ids[i]), in the iteration order of their EdgeLabelIndex. Each level
// extends its patterns, most frequent parents first until
// `max_candidates_per_level` candidates exist, by one edge: a new leaf of
// every frequent vertex label at every vertex and, if `close_cycles`, an
// edge between every two non-adjacent vertices. The first candidate of each
// canonical code (src/iso/canonical_code.h) is kept, and its support is
// counted by subgraph isomorphism restricted to its parent's support set
// (anti-monotonicity). Counting polls `ctx` per candidate (failpoint site
// "miner.count_support"); on a stop the levels completed so far are
// returned, an anytime result since every pattern carries its exact
// support, and `complete` (optional) is cleared. Patterns of at least
// `min_edges` edges are returned most frequent first.
std::vector<FrequentSubgraph> GrowFrequentPatterns(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SubgraphMinerOptions& options, bool close_cycles,
    const RunContext& ctx, bool* complete);

// Frequent connected subgraphs of the whole database: GrowFrequentPatterns
// with cycle closure.
std::vector<FrequentSubgraph> MineFrequentSubgraphs(
    const GraphDatabase& db, const SubgraphMinerOptions& options);

// Selects a canned-pattern set from frequent subgraphs the way Exp 9 builds
// its baseline: `total` patterns with sizes in [min_edges, max_edges], at
// most total / (max_edges - min_edges + 1) patterns per size, most frequent
// first.
std::vector<Graph> FrequentSubgraphPatternSet(
    const std::vector<FrequentSubgraph>& mined, size_t total,
    size_t min_edges, size_t max_edges);

}  // namespace catapult

#endif  // CATAPULT_MINING_SUBGRAPH_MINER_H_
