#include "src/iso/vf2.h"

#include <algorithm>

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
  // Sizes first: each fingerprint costs a colour refinement.
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  return AreIsomorphicWithFingerprints(a, b, GraphFingerprint(a),
                                       GraphFingerprint(b), options);
}

bool AreIsomorphicWithFingerprints(const Graph& a, const Graph& b,
                                   uint64_t fp_a, uint64_t fp_b,
                                   IsoOptions options) {
  if (fp_a != fp_b) return false;
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

uint64_t GraphFingerprint(const Graph& g) {
  // Weisfeiler-Leman style colour refinement hashed into 64 bits. This is an
  // invariant: isomorphic graphs always produce the same value.
  auto Mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
  };
  std::vector<uint64_t> color(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    color[v] = Mix(0x12345678ULL, g.VertexLabel(v));
  }
  const int kRounds = 3;
  std::vector<uint64_t> next(g.NumVertices());
  std::vector<uint64_t> neighbor_colors;
  for (int round = 0; round < kRounds; ++round) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      neighbor_colors.clear();
      neighbor_colors.reserve(g.Degree(v));
      for (const Graph::Neighbor& n : g.Neighbors(v)) {
        neighbor_colors.push_back(color[n.to]);
      }
      std::sort(neighbor_colors.begin(), neighbor_colors.end());
      uint64_t h = Mix(color[v], 0xABCDEFULL);
      for (uint64_t c : neighbor_colors) h = Mix(h, c);
      next[v] = h;
    }
    color.swap(next);
  }
  std::sort(color.begin(), color.end());
  uint64_t h = Mix(g.NumVertices(), g.NumEdges());
  for (uint64_t c : color) h = Mix(h, c);
  return h;
}

}  // namespace catapult
