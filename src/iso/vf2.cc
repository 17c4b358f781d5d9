#include "src/iso/vf2.h"

#include "src/graph/flat_graph.h"
#include "src/iso/flat_vf2.h"

namespace catapult {

bool ContainsSubgraph(const Graph& pattern, const Graph& target,
                      IsoOptions options) {
  // Stopping at the first embedding is exactly the existence search.
  return !FindEmbeddings(pattern, target, 1, options).empty();
}

std::vector<Embedding> FindEmbeddings(const Graph& pattern,
                                      const Graph& target, size_t max_count,
                                      IsoOptions options) {
  CATAPULT_CHECK(pattern.NumVertices() > 0);
  if (options.budget_exhausted != nullptr) *options.budget_exhausted = false;
  // The kernel's silent size precheck, before anything is flattened.
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return {};
  }
  FlatGraph flat_pattern = FlatGraph::Build(pattern);
  FlatGraph flat_target = FlatGraph::Build(target);
  return FlatFindEmbeddings(flat_pattern.View(), flat_target.View(), nullptr,
                            max_count, options);
}

bool AreIsomorphic(const Graph& a, const Graph& b, IsoOptions options) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  if (a.NumVertices() == 0) return true;
  // With equal vertex and edge counts, an embedding is a bijection covering
  // all edges, i.e. an isomorphism (induced holds automatically, but is
  // cheap to enforce and prunes the search).
  options.induced = true;
  return ContainsSubgraph(a, b, options);
}

}  // namespace catapult
