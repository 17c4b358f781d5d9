#ifndef CATAPULT_GRAPH_GRAPH_DATABASE_H_
#define CATAPULT_GRAPH_GRAPH_DATABASE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/label_map.h"
#include "src/util/bitset.h"

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

// Labelled-edge key -> the graphs holding at least one edge with that key,
// as bit positions into the id list the index was built over: L(e, D) of
// Section 3.2 as posting lists.
using EdgeLabelIndex = std::unordered_map<EdgeLabelKey, DynamicBitset>;

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

  // Aggregate statistics.
  DatabaseStats Stats() const;

 private:
  std::vector<Graph> graphs_;
  LabelMap labels_;
};

// The ids 0..db.size()-1, for the callers that work on the whole database.
std::vector<GraphId> AllGraphIds(const GraphDatabase& db);

// Posting lists of the graphs `graph_ids` of `db`: bit i of a key's set
// stands for graph_ids[i]. The map's iteration order reaches the miners'
// first level (src/mining/subgraph_miner.h), so keys are inserted graph by
// graph, each graph's distinct keys in the iteration order of a fresh
// unordered_set filled in edge-list order.
EdgeLabelIndex BuildEdgeLabelIndex(const GraphDatabase& db,
                                   const std::vector<GraphId>& graph_ids);

}  // namespace catapult

#endif  // CATAPULT_GRAPH_GRAPH_DATABASE_H_
