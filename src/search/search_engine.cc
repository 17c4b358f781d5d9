#include "src/search/search_engine.h"

#include <unordered_set>

#include "src/iso/flat_vf2.h"

namespace catapult {

SubgraphSearchEngine::SubgraphSearchEngine(const GraphDatabase& db)
    : db_(&db),
      flat_(FlatGraphDatabase::Build(db)),
      edge_index_(BuildEdgeLabelIndex(db, AllGraphIds(db))) {
  const size_t n = db.size();
  vertex_counts_.resize(n);
  edge_counts_.resize(n);
  for (GraphId i = 0; i < n; ++i) {
    const Graph& g = db.graph(i);
    vertex_counts_[i] = static_cast<uint32_t>(g.NumVertices());
    edge_counts_[i] = static_cast<uint32_t>(g.NumEdges());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      auto [it, inserted] = label_counts_.try_emplace(
          g.VertexLabel(v), std::vector<uint32_t>(n, 0));
      ++it->second[i];
    }
  }
}

DynamicBitset SubgraphSearchEngine::FilterCandidates(
    const Graph& query) const {
  const size_t n = db_->size();
  DynamicBitset candidates(n);
  if (n == 0 || query.NumVertices() == 0) return candidates;

  // Start from the rarest labelled-edge posting list (or everything for a
  // single-vertex query), then intersect the rest.
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
    // Vertex-only query: all graphs are candidates so far.
    for (size_t i = 0; i < n; ++i) candidates.Set(i);
  }

  // Label-count and size filters.
  std::unordered_map<Label, uint32_t> needed;
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    ++needed[query.VertexLabel(v)];
  }
  for (size_t i : candidates.ToIndices()) {
    bool keep = vertex_counts_[i] >= query.NumVertices() &&
                edge_counts_[i] >= query.NumEdges();
    if (keep) {
      for (const auto& [label, count] : needed) {
        auto it = label_counts_.find(label);
        if (it == label_counts_.end() || it->second[i] < count) {
          keep = false;
          break;
        }
      }
    }
    if (!keep) candidates.Clear(i);
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
