#ifndef CATAPULT_GRAPH_GRAPH_DATABASE_H_
#define CATAPULT_GRAPH_GRAPH_DATABASE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/label_map.h"

namespace catapult {

// Aggregate statistics of a database, used by benchmark harnesses.
struct DatabaseStats {
  size_t num_graphs = 0;
  size_t total_vertices = 0;
  size_t total_edges = 0;
  size_t max_vertices = 0;
  size_t max_edges = 0;
  double avg_vertices = 0.0;
  double avg_edges = 0.0;
  size_t num_vertex_labels = 0;
  size_t num_edge_label_keys = 0;
};

// A repository of small/medium data graphs (the paper's D). Owns the graphs
// and the shared LabelMap. Graph ids are their indices.
class GraphDatabase {
 public:
  GraphDatabase() = default;

  // Movable, not copyable (databases can be large; copy explicitly via
  // Subset when needed).
  GraphDatabase(GraphDatabase&&) = default;
  GraphDatabase& operator=(GraphDatabase&&) = default;
  GraphDatabase(const GraphDatabase&) = delete;
  GraphDatabase& operator=(const GraphDatabase&) = delete;

  // Appends `graph`, assigning its id; returns the id.
  GraphId Add(Graph graph);

  // Number of graphs.
  size_t size() const { return graphs_.size(); }
  bool empty() const { return graphs_.empty(); }

  // Access by id.
  const Graph& graph(GraphId id) const {
    CATAPULT_CHECK(id < graphs_.size());
    return graphs_[id];
  }
  const std::vector<Graph>& graphs() const { return graphs_; }

  // Shared label dictionary.
  LabelMap& labels() { return labels_; }
  const LabelMap& labels() const { return labels_; }

  // New database containing copies of the graphs with the given ids (ids are
  // reassigned densely; the LabelMap is copied so labels stay comparable).
  GraphDatabase Subset(const std::vector<GraphId>& ids) const;

  // Frequency map: labelled-edge key -> number of graphs containing at least
  // one edge with that key. This is |L(e, D)| from Section 3.2.
  std::unordered_map<EdgeLabelKey, size_t> EdgeLabelSupport() const;

  // Aggregate statistics.
  DatabaseStats Stats() const;

 private:
  std::vector<Graph> graphs_;
  LabelMap labels_;
};

}  // namespace catapult

#endif  // CATAPULT_GRAPH_GRAPH_DATABASE_H_
