// Graph edit distance and diversity straight from their definitions, for
// tests only. ReferenceGed enumerates every partial injection of a's
// vertices into b's vertices (each a-vertex goes to an unused b-vertex or is
// deleted) and prices the edit path it induces under the uniform unit costs
// of GedOptions: relabelled, deleted and inserted vertices and edges cost 1
// each. Nothing is pruned and nothing is shared with src/iso/ged.cc, so it
// can referee the branch-and-bound kernel. Exponential: keep both graphs at
// a handful of vertices.

#ifndef CATAPULT_TESTS_REFERENCE_GED_H_
#define CATAPULT_TESTS_REFERENCE_GED_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "src/graph/graph.h"

namespace catapult::reference {

// Image of a deleted a-vertex.
inline constexpr VertexId kDeleted = static_cast<VertexId>(-1);

// Cost of the edit path induced by `map` (a-vertex -> b-vertex or kDeleted).
inline double InducedEditCost(const Graph& a, const Graph& b,
                              const std::vector<VertexId>& map) {
  double cost = 0.0;
  std::vector<bool> b_matched(b.NumVertices(), false);
  for (VertexId u = 0; u < a.NumVertices(); ++u) {
    if (map[u] == kDeleted) {
      cost += 1.0;
    } else {
      b_matched[map[u]] = true;
      if (a.VertexLabel(u) != b.VertexLabel(map[u])) cost += 1.0;
    }
  }
  for (VertexId v = 0; v < b.NumVertices(); ++v) {
    if (!b_matched[v]) cost += 1.0;  // inserted vertex
  }
  // Edges between two a-vertices: kept (maybe relabelled), deleted, or
  // inserted between their images.
  for (VertexId u = 0; u < a.NumVertices(); ++u) {
    for (VertexId w = u + 1; w < a.NumVertices(); ++w) {
      const bool a_edge = a.HasEdge(u, w);
      const bool b_edge = map[u] != kDeleted && map[w] != kDeleted &&
                          b.HasEdge(map[u], map[w]);
      if (a_edge && b_edge) {
        if (a.EdgeLabel(u, w) != b.EdgeLabel(map[u], map[w])) cost += 1.0;
      } else if (a_edge || b_edge) {
        cost += 1.0;
      }
    }
  }
  // b-edges with an inserted endpoint are inserted too.
  for (const Edge& e : b.EdgeList()) {
    if (!b_matched[e.u] || !b_matched[e.v]) cost += 1.0;
  }
  return cost;
}

inline void EnumerateInjections(const Graph& a, const Graph& b, VertexId u,
                                std::vector<VertexId>& map,
                                std::vector<bool>& b_used, double& best) {
  if (u == a.NumVertices()) {
    best = std::min(best, InducedEditCost(a, b, map));
    return;
  }
  map[u] = kDeleted;
  EnumerateInjections(a, b, u + 1, map, b_used, best);
  for (VertexId v = 0; v < b.NumVertices(); ++v) {
    if (b_used[v]) continue;
    b_used[v] = true;
    map[u] = v;
    EnumerateInjections(a, b, u + 1, map, b_used, best);
    b_used[v] = false;
  }
  map[u] = kDeleted;
}

// Exact GED(a, b) by full enumeration.
inline double ReferenceGed(const Graph& a, const Graph& b) {
  std::vector<VertexId> map(a.NumVertices(), kDeleted);
  std::vector<bool> b_used(b.NumVertices(), false);
  double best = std::numeric_limits<double>::infinity();
  EnumerateInjections(a, b, 0, map, b_used, best);
  return best;
}

// div(p, S) = min over q in S of distance(p, q) (Section 3.2), visiting
// every q: no lower-bound pruning, no memo. +inf for an empty S.
template <typename Distance>
double ReferenceDiversity(const Graph& p, const std::vector<Graph>& selected,
                          Distance distance) {
  double best = std::numeric_limits<double>::infinity();
  for (const Graph& q : selected) best = std::min(best, distance(p, q));
  return best;
}

}  // namespace catapult::reference

#endif  // CATAPULT_TESTS_REFERENCE_GED_H_
