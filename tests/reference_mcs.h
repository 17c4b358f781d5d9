// Maximum (connected) common subgraph straight from its definition, for
// tests only. ReferenceMcs enumerates every injective, label-preserving
// partial map of a's vertices into b's vertices (each a-vertex goes to an
// unused b-vertex of its label or stays unmapped) and counts the common
// edges it induces: a-edges whose endpoints are both mapped onto a b-edge,
// with equal edge labels when they must match. With `connected` set, a map
// counts only if its mapped vertices and common edges form one connected
// graph. Nothing is pruned and nothing is shared with src/iso/mcs.cc, so it
// can referee the branch-and-bound kernel. Exponential: keep both graphs at
// about 7 vertices.

#ifndef CATAPULT_TESTS_REFERENCE_MCS_H_
#define CATAPULT_TESTS_REFERENCE_MCS_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace catapult::reference {

// Image of an unmapped a-vertex.
inline constexpr VertexId kUnmapped = static_cast<VertexId>(-1);

// True if a-edge {u, w} is common under `map`.
inline bool CommonEdge(const Graph& a, const Graph& b,
                       const std::vector<VertexId>& map, VertexId u,
                       VertexId w, bool match_edge_labels) {
  if (map[u] == kUnmapped || map[w] == kUnmapped) return false;
  if (!a.HasEdge(u, w) || !b.HasEdge(map[u], map[w])) return false;
  return !match_edge_labels ||
         a.EdgeLabel(u, w) == b.EdgeLabel(map[u], map[w]);
}

// Number of common edges induced by `map` (a-vertex -> b-vertex or
// kUnmapped).
inline size_t CommonEdgeCount(const Graph& a, const Graph& b,
                              const std::vector<VertexId>& map,
                              bool match_edge_labels) {
  size_t count = 0;
  for (VertexId u = 0; u < a.NumVertices(); ++u) {
    for (VertexId w = u + 1; w < a.NumVertices(); ++w) {
      if (CommonEdge(a, b, map, u, w, match_edge_labels)) ++count;
    }
  }
  return count;
}

// True if the mapped a-vertices, joined by the common edges, form one
// connected graph (an empty map counts as connected).
inline bool CommonSubgraphConnected(const Graph& a, const Graph& b,
                                    const std::vector<VertexId>& map,
                                    bool match_edge_labels) {
  std::vector<VertexId> stack;
  std::vector<bool> seen(a.NumVertices(), false);
  size_t mapped = 0;
  for (VertexId u = 0; u < a.NumVertices(); ++u) {
    if (map[u] == kUnmapped) continue;
    ++mapped;
    if (stack.empty() && !seen[u]) {
      seen[u] = true;
      stack.push_back(u);
    }
  }
  size_t reached = 0;
  while (!stack.empty()) {
    VertexId u = stack.back();
    stack.pop_back();
    ++reached;
    for (VertexId w = 0; w < a.NumVertices(); ++w) {
      if (seen[w] || !CommonEdge(a, b, map, u, w, match_edge_labels)) continue;
      seen[w] = true;
      stack.push_back(w);
    }
  }
  return reached == mapped;
}

inline void EnumerateLabelledMaps(const Graph& a, const Graph& b, VertexId u,
                                  bool connected, bool match_edge_labels,
                                  std::vector<VertexId>& map,
                                  std::vector<bool>& b_used, size_t& best) {
  if (u == a.NumVertices()) {
    if (connected && !CommonSubgraphConnected(a, b, map, match_edge_labels)) {
      return;
    }
    best = std::max(best, CommonEdgeCount(a, b, map, match_edge_labels));
    return;
  }
  map[u] = kUnmapped;
  EnumerateLabelledMaps(a, b, u + 1, connected, match_edge_labels, map, b_used,
                        best);
  for (VertexId v = 0; v < b.NumVertices(); ++v) {
    if (b_used[v] || a.VertexLabel(u) != b.VertexLabel(v)) continue;
    b_used[v] = true;
    map[u] = v;
    EnumerateLabelledMaps(a, b, u + 1, connected, match_edge_labels, map,
                          b_used, best);
    b_used[v] = false;
  }
  map[u] = kUnmapped;
}

// The largest number of common edges over every injective label-preserving
// partial map of a into b (connected common subgraphs only if `connected`).
inline size_t ReferenceMcsEdges(const Graph& a, const Graph& b, bool connected,
                                bool match_edge_labels) {
  std::vector<VertexId> map(a.NumVertices(), kUnmapped);
  std::vector<bool> b_used(b.NumVertices(), false);
  size_t best = 0;
  EnumerateLabelledMaps(a, b, 0, connected, match_edge_labels, map, b_used,
                        best);
  return best;
}

// `pairs` as a map over a's vertices, or an empty vector when the pairs are
// not an injective, label-preserving partial map.
inline std::vector<VertexId> MapFromPairs(
    const Graph& a, const Graph& b,
    const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  std::vector<VertexId> map(a.NumVertices(), kUnmapped);
  std::vector<bool> b_used(b.NumVertices(), false);
  for (const auto& [u, v] : pairs) {
    if (u >= a.NumVertices() || v >= b.NumVertices() ||
        map[u] != kUnmapped || b_used[v] ||
        a.VertexLabel(u) != b.VertexLabel(v)) {
      return {};
    }
    map[u] = v;
    b_used[v] = true;
  }
  return map;
}

}  // namespace catapult::reference

#endif  // CATAPULT_TESTS_REFERENCE_MCS_H_
