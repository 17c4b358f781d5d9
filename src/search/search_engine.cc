#include "src/search/search_engine.h"

#include <unordered_set>

#include "src/iso/flat_vf2.h"

namespace catapult {

SubgraphSearchEngine::SubgraphSearchEngine(const GraphDatabase& db)
    : db_(&db),
      flat_(FlatGraphDatabase::Build(db)),
      edge_index_(BuildEdgeLabelIndex(db, AllGraphIds(db))) {}

DynamicBitset SubgraphSearchEngine::FilterCandidates(
    const Graph& query) const {
  const size_t n = db_->size();
  DynamicBitset candidates(n);
  if (n == 0 || query.NumVertices() == 0) return candidates;

  // Intersect the posting lists of the query's distinct labelled edges
  // (everything for a single-vertex query).
  std::unordered_set<EdgeLabelKey> keys;
  for (const Edge& e : query.EdgeList()) keys.insert(query.EdgeKey(e.u, e.v));

  bool initialised = false;
  for (EdgeLabelKey key : keys) {
    auto it = edge_index_.find(key);
    if (it == edge_index_.end()) return DynamicBitset(n);  // label absent
    if (!initialised) {
      candidates = it->second;
      initialised = true;
    } else {
      candidates &= it->second;
    }
  }
  if (!initialised) {
    // Vertex-only query: every graph is a candidate.
    for (size_t i = 0; i < n; ++i) candidates.Set(i);
  }
  return candidates;
}

std::vector<GraphId> SubgraphSearchEngine::Search(const Graph& query,
                                                  IsoOptions options) const {
  DynamicBitset candidates = FilterCandidates(query);
  FlatGraph flat_query = FlatGraph::Build(query);
  std::vector<size_t> ids =
      ContainingGraphs(flat_query.View(), flat_, &candidates, options)
          .ToIndices();
  return std::vector<GraphId>(ids.begin(), ids.end());
}

}  // namespace catapult
