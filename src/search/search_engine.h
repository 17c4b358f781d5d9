#ifndef CATAPULT_SEARCH_SEARCH_ENGINE_H_
#define CATAPULT_SEARCH_SEARCH_ENGINE_H_

#include <unordered_map>
#include <vector>

#include "src/graph/flat_graph.h"
#include "src/graph/graph_database.h"
#include "src/iso/vf2.h"
#include "src/util/bitset.h"

namespace catapult {

// Filter-and-verify subgraph search over a GraphDatabase — the query
// primitive the paper's visual interfaces sit on top of (Section 1:
// "a set of data graphs containing [a] match of a user-specified query
// graph is retrieved").
//
// Filtering uses two inverted indices built once per database:
//   * labelled-edge index: a query's candidate set must contain every
//     distinct labelled edge of the query;
//   * label-count index: per vertex label, graphs are bucketed by how many
//     vertices carry the label, so a query needing k vertices of label l
//     prunes graphs with fewer.
// Survivors are verified with VF2 against the database flattened once at
// construction; each query is flattened once per call. Both filters are
// sound (never drop a true match), so results are exact.
class SubgraphSearchEngine {
 public:
  // Builds the indices; `db` must outlive the engine.
  explicit SubgraphSearchEngine(const GraphDatabase& db);

  // Ids of all data graphs containing `query` (ascending). `options`
  // configures the verification (e.g. induced matching).
  std::vector<GraphId> Search(const Graph& query,
                              IsoOptions options = {}) const;

  // Candidate set after filtering only (superset of the true results).
  // Search keeps no statistics (const engine, usable concurrently); use
  // this to measure filter power.
  DynamicBitset FilterCandidates(const Graph& query) const;

 private:
  const GraphDatabase* db_;
  FlatGraphDatabase flat_;
  // labelled-edge key -> graphs containing at least one such edge.
  EdgeLabelIndex edge_index_;
  // vertex label -> per-graph count of vertices with that label.
  std::unordered_map<Label, std::vector<uint32_t>> label_counts_;
  // graph sizes for the trivial size filter.
  std::vector<uint32_t> vertex_counts_;
  std::vector<uint32_t> edge_counts_;
};

}  // namespace catapult

#endif  // CATAPULT_SEARCH_SEARCH_ENGINE_H_
