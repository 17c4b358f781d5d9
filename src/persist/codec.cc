#include "src/persist/codec.h"

namespace catapult::persist {

void Fields(FieldWriter& io, Graph& g) {
  io(uint64_t{g.NumVertices()});
  for (VertexId v = 0; v < g.NumVertices(); ++v) io(g.VertexLabel(v));
  io(g.EdgeList());
}

void Fields(FieldReader& io, Graph& g) {
  std::vector<Label> labels;
  std::vector<Edge> edges;
  io(labels, edges);
  g = Graph();
  if (!io.ok()) return;
  for (Label label : labels) g.AddVertex(label);
  for (const Edge& e : edges) {
    io.Require(e.u < g.NumVertices() && e.v < g.NumVertices() && e.u != e.v &&
               !g.HasEdge(e.u, e.v));
    if (!io.ok()) return;
    g.AddEdge(e.u, e.v, e.label);
  }
}

void Fields(FieldWriter& io, ClusterSummaryGraph& csg) {
  io(uint64_t{csg.cluster_size()}, uint64_t{csg.NumVertices()});
  for (VertexId v = 0; v < csg.NumVertices(); ++v) {
    io(csg.VertexLabel(v), csg.VertexSupport(v));
  }
  io(csg.edges());
}

void Fields(FieldReader& io, ClusterSummaryGraph& csg) {
  uint64_t cluster_size = 0;
  std::vector<std::pair<Label, DynamicBitset>> vertices;
  std::vector<ClusterSummaryGraph::CsgEdge> edges;
  io(cluster_size, vertices, edges);
  if (!io.ok()) return;
  std::vector<Label> labels;
  std::vector<DynamicBitset> supports;
  for (auto& [label, support] : vertices) {
    labels.push_back(label);
    supports.push_back(std::move(support));
  }
  std::optional<ClusterSummaryGraph> parts = ClusterSummaryGraph::FromParts(
      cluster_size, std::move(labels), std::move(supports), std::move(edges));
  io.Require(parts.has_value());
  if (parts.has_value()) csg = std::move(*parts);
}

}  // namespace catapult::persist
