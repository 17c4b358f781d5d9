#ifndef CATAPULT_SEARCH_SEARCH_ENGINE_H_
#define CATAPULT_SEARCH_SEARCH_ENGINE_H_

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
// Filtering uses the labelled-edge index built once per database: a
// query's candidate set must contain every distinct labelled edge of the
// query. Survivors are verified with VF2 against the database flattened
// once at construction; each query is flattened once per call. The
// containment kernel itself rejects, before any search and without
// counting it, a target with fewer vertices, edges or vertices of some
// label than the query (src/iso/flat_vf2.h). The filter is sound (never
// drops a true match), so results are exact.
class SubgraphSearchEngine {
 public:
  // Builds the indices; `db` must outlive the engine.
  explicit SubgraphSearchEngine(const GraphDatabase& db);

  // Ids of all data graphs containing `query` (ascending). `options`
  // configures the verification (e.g. induced matching).
  std::vector<GraphId> Search(const Graph& query,
                              IsoOptions options = {}) const;

  // Candidate set after the labelled-edge filter only (superset of the
  // true results). Search keeps no statistics (const engine, usable
  // concurrently); use this to measure filter power.
  DynamicBitset FilterCandidates(const Graph& query) const;

 private:
  const GraphDatabase* db_;
  FlatGraphDatabase flat_;
  // labelled-edge key -> graphs containing at least one such edge.
  EdgeLabelIndex edge_index_;
};

}  // namespace catapult

#endif  // CATAPULT_SEARCH_SEARCH_ENGINE_H_
