#ifndef CATAPULT_ISO_VF2_H_
#define CATAPULT_ISO_VF2_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace catapult {

// Options for a subgraph-isomorphism search.
struct IsoOptions {
  // If true, requires an induced embedding (non-edges of the pattern must map
  // to non-edges of the target). The paper's containment tests (coverage,
  // "p is contained in Q") use ordinary subgraph isomorphism, i.e. false.
  bool induced = false;

  // If true, edge labels must match; otherwise only vertex labels matter
  // (molecule benchmarks in the paper treat single/double bonds alike, cf.
  // Example 1.1: "single and double bonds are both represented as unweighted
  // edges").
  bool match_edge_labels = false;

  // Backtracking-node budget; 0 means unlimited. When the budget is hit the
  // search reports "not found" and sets `budget_exhausted` (if provided).
  uint64_t node_budget = 0;
  bool* budget_exhausted = nullptr;
};

// A pattern->target embedding: mapping[i] is the target vertex matched to
// pattern vertex i.
using Embedding = std::vector<VertexId>;

// Graph-level entry points of the subgraph-isomorphism kernel
// (src/iso/flat_vf2.h). Each rejects on sizes first and only then
// flattens its inputs and runs the kernel, so results, node counts and
// truncation points are the kernel's. Loops that test many pairs flatten
// once and call the kernel directly.

// True if `pattern` (connected, non-empty) has an embedding in `target`.
bool ContainsSubgraph(const Graph& pattern, const Graph& target,
                      IsoOptions options = {});

// Up to `max_count` (0 = all) embeddings of `pattern` (connected,
// non-empty) in `target`, in search order. Automorphic images count
// separately.
std::vector<Embedding> FindEmbeddings(const Graph& pattern,
                                      const Graph& target, size_t max_count,
                                      IsoOptions options = {});

// True if `a` and `b` are isomorphic as labelled graphs, decided by one
// VF2 search. The library decides pattern identity by CanonicalCode
// (src/iso/canonical_code.h); this is the definition tests and benchmarks
// check it against.
bool AreIsomorphic(const Graph& a, const Graph& b, IsoOptions options = {});

}  // namespace catapult

#endif  // CATAPULT_ISO_VF2_H_
