#ifndef CATAPULT_ISO_NEIGHBOR_MARK_H_
#define CATAPULT_ISO_NEIGHBOR_MARK_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/graph/graph.h"

// What the search kernels (src/iso/mcs.cc, src/iso/ged.cc) share: O(1)
// adjacency tests, and the fixed order in which both decide a's vertices
// with the count of a-edges each depth of that order leaves open.

namespace catapult {

// One vertex's neighbours, marked for O(1) adjacency tests inside the search
// kernels: after Mark(g, v), Slot(w) is w's index in g.Neighbors(v), or -1
// when w is not adjacent to v. Marking costs O(deg v); re-marking bumps an
// epoch instead of clearing.
class NeighborMark {
 public:
  explicit NeighborMark(size_t num_vertices)
      : epoch_of_(num_vertices, 0), slot_(num_vertices, 0) {}

  void Mark(const Graph& g, VertexId v) {
    if (++epoch_ == 0) {
      std::fill(epoch_of_.begin(), epoch_of_.end(), 0);
      epoch_ = 1;
    }
    const std::vector<Graph::Neighbor>& neighbors = g.Neighbors(v);
    for (uint32_t i = 0; i < neighbors.size(); ++i) {
      epoch_of_[neighbors[i].to] = epoch_;
      slot_[neighbors[i].to] = i;
    }
  }

  int Slot(VertexId w) const {
    return epoch_of_[w] == epoch_ ? static_cast<int>(slot_[w]) : -1;
  }

 private:
  std::vector<uint32_t> epoch_of_;
  std::vector<uint32_t> slot_;
  uint32_t epoch_ = 0;
};

// g's vertices by descending degree, ties in ascending id order.
inline std::vector<VertexId> DegreeOrder(const Graph& g) {
  std::vector<VertexId> order(g.NumVertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&g](VertexId l, VertexId r) {
    return g.Degree(l) > g.Degree(r);
  });
  return order;
}

// open[d] for d in [0, |V|]: the edges of g with an endpoint still undecided
// once the vertices at depths below d are decided, where position[v] is the
// depth that decides v. An edge stays open down to the depth of its later
// endpoint, so each is counted there and the counts are summed from the
// leaves up: O(|V| + |E|).
inline std::vector<size_t> OpenEdgesByDepth(
    const Graph& g, const std::vector<size_t>& position) {
  std::vector<size_t> open(g.NumVertices() + 1, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Graph::Neighbor& n : g.Neighbors(v)) {
      if (v < n.to) ++open[std::max(position[v], position[n.to])];
    }
  }
  for (size_t d = g.NumVertices(); d-- > 0;) open[d] += open[d + 1];
  return open;
}

}  // namespace catapult

#endif  // CATAPULT_ISO_NEIGHBOR_MARK_H_
