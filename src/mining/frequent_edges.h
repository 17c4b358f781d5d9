#ifndef CATAPULT_MINING_FREQUENT_EDGES_H_
#define CATAPULT_MINING_FREQUENT_EDGES_H_

#include <vector>

#include "src/graph/graph_database.h"

namespace catapult {

// A labelled edge ranked by the number of data graphs containing it.
struct RankedEdge {
  EdgeLabelKey key = 0;
  size_t support = 0;  // |L(e, D)|
};

// The labelled edges of `index` (a database's labelled-edge index, whose
// posting-list sizes are the supports) in decreasing support order, ties
// broken by key for determinism.
std::vector<RankedEdge> RankEdgesBySupport(const EdgeLabelIndex& index);

// Materialises the top-`k` labelled edges of `db` as 1-edge pattern graphs.
// Exp 5 compares Catapult's pattern set against them.
std::vector<Graph> TopFrequentEdgePatterns(const GraphDatabase& db, size_t k);

// Top-m basic patterns for the GUI (Section 3.2 remark): single labelled
// edges and labelled 2-paths ranked by support. Sizes 1-2 are below eta_min
// and are exposed separately from canned patterns.
std::vector<Graph> TopBasicPatterns(const GraphDatabase& db, size_t m);

// Degradation fallback for deadline-cut selection: up to `count` distinct
// path patterns of exactly `num_edges` edges assembled from the frequent
// labelled edges of `index` (the selection corpus's labelled-edge index, so
// the fallback re-indexes nothing). Pattern i is seeded with the i-th ranked
// edge and grown
// one edge at a time from an endpoint, always picking the most frequent
// edge key compatible with that endpoint's label. No isomorphism or
// coverage tests: O(ranking * num_edges) per pattern, deterministic, and
// every returned pattern has exactly `num_edges` edges (so it fits any
// [eta_min, eta_max] window that contains that size). Duplicate paths from
// different seeds are removed.
std::vector<Graph> FrequentEdgePathPatterns(const EdgeLabelIndex& index,
                                            size_t num_edges, size_t count);

}  // namespace catapult

#endif  // CATAPULT_MINING_FREQUENT_EDGES_H_
