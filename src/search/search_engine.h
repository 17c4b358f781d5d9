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

  // Number of matches without materialising the id list; stops early at
  // `cap` (0 = exact count).
  size_t CountMatches(const Graph& query, size_t cap = 0,
                      IsoOptions options = {}) const;

  // Candidate set after filtering only (superset of the true results);
  // exposed for tests and for the coverage fast path.
  DynamicBitset FilterCandidates(const Graph& query) const;

  // Statistics of the last Search/CountMatches call are intentionally not
  // kept (const engine, usable concurrently); use FilterCandidates to
  // measure filter power.

  const GraphDatabase& db() const { return *db_; }

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

// scov(P, D) computed exactly through the engine (union of per-pattern
// match sets over the database). Faster than the sampling estimate in
// formulate/evaluate.h when the engine is already built.
double ExactSubgraphCoverage(const SubgraphSearchEngine& engine,
                             const std::vector<Graph>& patterns,
                             IsoOptions options = {});

}  // namespace catapult

#endif  // CATAPULT_SEARCH_SEARCH_ENGINE_H_
