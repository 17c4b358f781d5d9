#include "src/graph/algorithms.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace catapult {

bool IsConnected(const Graph& g) {
  if (g.NumVertices() <= 1) return true;
  return BfsOrder(g, 0).size() == g.NumVertices();
}

bool IsTree(const Graph& g) {
  if (g.NumVertices() == 0) return true;
  return IsConnected(g) && g.NumEdges() == g.NumVertices() - 1;
}

std::vector<VertexId> BfsOrder(const Graph& g, VertexId start) {
  CATAPULT_CHECK(start < g.NumVertices());
  std::vector<bool> seen(g.NumVertices(), false);
  std::vector<VertexId> order;
  std::deque<VertexId> frontier = {start};
  seen[start] = true;
  while (!frontier.empty()) {
    VertexId v = frontier.front();
    frontier.pop_front();
    order.push_back(v);
    for (const Graph::Neighbor& n : g.Neighbors(v)) {
      if (!seen[n.to]) {
        seen[n.to] = true;
        frontier.push_back(n.to);
      }
    }
  }
  return order;
}

Graph RandomConnectedSubgraph(const Graph& g, size_t num_edges, Rng& rng) {
  Graph result;
  if (g.NumEdges() == 0) return result;
  num_edges = std::min(num_edges, g.NumEdges());

  // Pick a uniform random starting edge.
  std::vector<Edge> all_edges = g.EdgeList();
  const Edge& first = all_edges[rng.UniformInt(all_edges.size())];

  std::unordered_map<VertexId, VertexId> remap;  // original -> new id
  auto MapVertex = [&](VertexId v) {
    auto it = remap.find(v);
    if (it != remap.end()) return it->second;
    VertexId nv = result.AddVertex(g.VertexLabel(v));
    remap.emplace(v, nv);
    return nv;
  };

  // Edges already chosen, keyed on the original endpoints.
  auto EdgeKey64 = [](VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  };
  std::unordered_set<uint64_t> chosen;
  std::vector<VertexId> vertices_in;  // original ids in the partial subgraph

  auto TakeEdge = [&](VertexId u, VertexId v, Label elabel) {
    chosen.insert(EdgeKey64(u, v));
    bool u_new = remap.find(u) == remap.end();
    bool v_new = remap.find(v) == remap.end();
    VertexId nu = MapVertex(u);
    VertexId nv = MapVertex(v);
    if (u_new) vertices_in.push_back(u);
    if (v_new) vertices_in.push_back(v);
    result.AddEdge(nu, nv, elabel);
  };

  TakeEdge(first.u, first.v, first.label);

  while (result.NumEdges() < num_edges) {
    // Collect frontier edges: incident to the partial subgraph, not chosen.
    std::vector<Edge> frontier;
    for (VertexId u : vertices_in) {
      for (const Graph::Neighbor& n : g.Neighbors(u)) {
        if (!chosen.contains(EdgeKey64(u, n.to))) {
          frontier.push_back({u, n.to, n.edge_label});
        }
      }
    }
    if (frontier.empty()) break;
    const Edge& pick = frontier[rng.UniformInt(frontier.size())];
    TakeEdge(pick.u, pick.v, pick.label);
  }
  return result;
}

Graph RelabelAllVertices(const Graph& g, Label label) {
  Graph result = g;
  for (VertexId v = 0; v < result.NumVertices(); ++v) {
    result.SetVertexLabel(v, label);
  }
  return result;
}

}  // namespace catapult
