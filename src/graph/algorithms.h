#ifndef CATAPULT_GRAPH_ALGORITHMS_H_
#define CATAPULT_GRAPH_ALGORITHMS_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace catapult {

// True if `g` is connected (the empty graph and single vertices count as
// connected).
bool IsConnected(const Graph& g);

// True if `g` is connected and acyclic.
bool IsTree(const Graph& g);

// BFS visit order starting from `start`, restricted to its component.
std::vector<VertexId> BfsOrder(const Graph& g, VertexId start);

// Extracts a uniformly grown random connected subgraph of `g` with exactly
// `num_edges` edges (or fewer if g is smaller): starts from a random edge and
// repeatedly adds a random incident edge of the partial subgraph. Vertex ids
// are remapped densely; labels are preserved. Used to generate subgraph query
// workloads (Section 6.1: "randomly selecting connected subgraphs").
Graph RandomConnectedSubgraph(const Graph& g, size_t num_edges, Rng& rng);

// Returns a copy of `g` with every vertex relabelled to `label` (the
// "unlabelled GUI pattern" normalisation used by Exp 3).
Graph RelabelAllVertices(const Graph& g, Label label);

}  // namespace catapult

#endif  // CATAPULT_GRAPH_ALGORITHMS_H_
