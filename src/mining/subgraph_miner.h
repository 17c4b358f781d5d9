#ifndef CATAPULT_MINING_SUBGRAPH_MINER_H_
#define CATAPULT_MINING_SUBGRAPH_MINER_H_

#include <vector>

#include "src/graph/graph_database.h"
#include "src/util/bitset.h"

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

  // Hard cap on results (most frequent kept; 0 = unlimited).
  size_t max_results = 0;
};

// A mined frequent connected subgraph.
struct FrequentSubgraph {
  Graph graph;
  DynamicBitset support;
  double frequency = 0.0;
};

// Pattern-growth miner for frequent connected subgraphs: each level extends
// patterns by one edge (either a new labelled leaf or a cycle-closing edge
// between existing vertices), keeps the first candidate of each canonical
// code (src/iso/canonical_code.h), and counts support by subgraph
// isomorphism restricted to the parent's support set.
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
