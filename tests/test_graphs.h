#ifndef CATAPULT_TESTS_TEST_GRAPHS_H_
#define CATAPULT_TESTS_TEST_GRAPHS_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace catapult {

// Small graphs shared by several suites. Edge insertion order reaches the
// kernels' pinned node counts, so these bodies must not change.

// The n-cycle 0-1-...-(n-1)-0, every vertex labelled `label`.
inline Graph Ring(size_t n, Label label = 0) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex(label);
  for (size_t i = 0; i < n; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>((i + 1) % n));
  }
  return g;
}

// The path 0-1-...-(n-1), every vertex labelled `label`.
inline Graph Path(size_t n, Label label = 0) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex(label);
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  return g;
}

// True if `a` and `b` are identical as labelled adjacency structures under
// the identity vertex mapping (not isomorphism).
inline bool StructurallyEqual(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    if (a.VertexLabel(v) != b.VertexLabel(v)) return false;
  }
  for (const Edge& e : a.EdgeList()) {
    if (!b.HasEdge(e.u, e.v)) return false;
    if (b.EdgeLabel(e.u, e.v) != e.label) return false;
  }
  return true;
}

// Random vertex-permuted copy of g, edge labels kept.
inline Graph Permuted(const Graph& g, Rng& rng) {
  std::vector<VertexId> perm(g.NumVertices());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<VertexId>(i);
  rng.Shuffle(perm);
  Graph out;
  std::vector<VertexId> new_id(g.NumVertices());
  for (VertexId v : perm) new_id[v] = out.AddVertex(g.VertexLabel(v));
  for (const Edge& e : g.EdgeList()) {
    out.AddEdge(new_id[e.u], new_id[e.v], e.label);
  }
  return out;
}

}  // namespace catapult

#endif  // CATAPULT_TESTS_TEST_GRAPHS_H_
