#include "src/graph/graph_database.h"

#include <unordered_set>

namespace catapult {

GraphId GraphDatabase::Add(Graph graph) {
  GraphId id = static_cast<GraphId>(graphs_.size());
  graph.set_id(id);
  graphs_.push_back(std::move(graph));
  return id;
}

GraphDatabase GraphDatabase::Subset(const std::vector<GraphId>& ids) const {
  GraphDatabase subset;
  subset.labels_ = labels_;
  for (GraphId id : ids) {
    subset.Add(graph(id));
  }
  return subset;
}

DatabaseStats GraphDatabase::Stats() const {
  DatabaseStats stats;
  stats.num_graphs = graphs_.size();
  std::unordered_set<Label> vertex_labels;
  std::unordered_set<EdgeLabelKey> edge_keys;
  for (const Graph& g : graphs_) {
    stats.total_vertices += g.NumVertices();
    stats.total_edges += g.NumEdges();
    stats.max_vertices = std::max(stats.max_vertices, g.NumVertices());
    stats.max_edges = std::max(stats.max_edges, g.NumEdges());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      vertex_labels.insert(g.VertexLabel(v));
    }
    for (const Edge& e : g.EdgeList()) {
      edge_keys.insert(g.EdgeKey(e.u, e.v));
    }
  }
  if (!graphs_.empty()) {
    stats.avg_vertices = static_cast<double>(stats.total_vertices) /
                         static_cast<double>(graphs_.size());
    stats.avg_edges = static_cast<double>(stats.total_edges) /
                      static_cast<double>(graphs_.size());
  }
  stats.num_vertex_labels = vertex_labels.size();
  stats.num_edge_label_keys = edge_keys.size();
  return stats;
}

std::vector<GraphId> AllGraphIds(const GraphDatabase& db) {
  std::vector<GraphId> ids(db.size());
  for (GraphId i = 0; i < db.size(); ++i) ids[i] = i;
  return ids;
}

EdgeLabelIndex BuildEdgeLabelIndex(const GraphDatabase& db,
                                   const std::vector<GraphId>& graph_ids) {
  EdgeLabelIndex index;
  for (size_t i = 0; i < graph_ids.size(); ++i) {
    const Graph& g = db.graph(graph_ids[i]);
    std::unordered_set<EdgeLabelKey> seen;
    for (const Edge& e : g.EdgeList()) seen.insert(g.EdgeKey(e.u, e.v));
    for (EdgeLabelKey key : seen) {
      auto [it, inserted] =
          index.try_emplace(key, DynamicBitset(graph_ids.size()));
      it->second.Set(i);
    }
  }
  return index;
}

}  // namespace catapult
