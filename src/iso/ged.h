#ifndef CATAPULT_ISO_GED_H_
#define CATAPULT_ISO_GED_H_

#include <cstdint>

#include "src/graph/graph.h"

namespace catapult {

// Options for graph edit distance computation. All edit operations (vertex
// insertion/deletion/relabelling, edge insertion/deletion) cost 1, the
// uniform-cost model implied by the paper's use of GED as a structural
// diversity measure.
struct GedOptions {
  // Branch-and-bound node budget (0 = unlimited). When hit, the best upper
  // bound found so far is returned (still an admissible *upper* bound on the
  // true distance) and `exact` is reported false via GedResult.
  uint64_t node_budget = 500000;
};

// Result of a GED computation.
struct GedResult {
  double distance = 0.0;
  bool exact = true;
};

// Lower bound on GED(a, b) per Definition 5.1 of the paper:
//   |V|-term = ||VA|-|VB|| + min(|VA|,|VB|) - |L(VA) ^ L(VB)|
//   |E|-term = ||EA|-|EB||
// where L(VA) ^ L(VB) is the multiset intersection of vertex labels (the
// exact number of vertex substitutions plus insertions/deletions needed,
// ignoring structure). Cheap: O(|V| log |V|).
double GedLowerBound(const Graph& a, const Graph& b);

// Exact graph edit distance via depth-first branch-and-bound over vertex
// assignments, seeded with a greedy upper bound and pruned with Definition
// 5.1's lower bound taken over what is left to edit. Exponential in the
// worst case; intended for canned-pattern sized graphs (<= ~13 vertices),
// with anytime fallback under `node_budget`.
//
// a's vertices are decided by descending degree; each is tried on every
// unused b-vertex (same label first, each group ascending), then deleted. A
// node is pruned when its cost plus the remaining bound reaches the best
// cost found. The remaining bound is the label-multiset mismatch of the
// undecided a-vertices against the unused b-vertices, plus ||open_a| -
// |open_b||, where open_a holds the a-edges with an undecided endpoint and
// open_b the b-edges with an unused endpoint: a completion keeps an open
// edge only by matching it to an open edge of the other graph, and pays 1
// for every other one. At the root the bound equals GedLowerBound(a, b); at
// a leaf it is the exact cost of inserting what is left of b. Like that
// lower bound, the edge term ignores edge labels. The search state is
// carried from node to node: the bound reads label-class counts and
// |open_b|, both updated on each decision and undo, and a per-depth table
// of |open_a|, and step costs read adjacency through neighbour marks, so
// the bound and a leaf cost O(1) and a step or a decision O(degree). Node
// counts and truncation points are pinned by tests/kernel_pin_test.cc.
GedResult GraphEditDistance(const Graph& a, const Graph& b,
                            GedOptions options = {});

// The greedy assignment cost GraphEditDistance seeds its search with (one
// pass over a's vertices, each taking the cheapest unused b-vertex or
// deletion). GraphEditDistance never returns more than this, truncated by
// its node budget or not, so it bounds every value the kernel reports from
// above without a search (polynomial time).
double GedGreedyUpperBound(const Graph& a, const Graph& b);

}  // namespace catapult

#endif  // CATAPULT_ISO_GED_H_
