#ifndef CATAPULT_ISO_NEIGHBOR_MARK_H_
#define CATAPULT_ISO_NEIGHBOR_MARK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

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

}  // namespace catapult

#endif  // CATAPULT_ISO_NEIGHBOR_MARK_H_
