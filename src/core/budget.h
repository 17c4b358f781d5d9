#ifndef CATAPULT_CORE_BUDGET_H_
#define CATAPULT_CORE_BUDGET_H_

#include <cstddef>
#include <vector>

#include "src/util/check.h"

namespace catapult {

// Largest eta_max a budget may ask for. Canned patterns are panel icons,
// and selection keeps per-size tallies of eta_max - eta_min + 1 entries,
// so an unbounded eta_max sent by a client could exhaust memory.
inline constexpr size_t kMaxPatternEdges = 64;

// The pattern budget b = (eta_min, eta_max, gamma) of Definition 3.1:
// minimum/maximum canned-pattern size (in edges) and the number of patterns
// to display on the interface.
struct PatternBudget {
  size_t eta_min = 3;
  size_t eta_max = 12;
  size_t gamma = 30;

  // Optional desired pattern-size distribution Psi_dist (Section 5 remark:
  // "it can be easily modified ... to accommodate a different size
  // distribution"). When empty, sizes are uniformly distributed (the
  // default of Definition 3.1). Otherwise it must hold one non-negative
  // weight per size in [eta_min, eta_max]; per-size caps are gamma
  // apportioned proportionally (largest-remainder rounding), with zero
  // weights excluding a size entirely.
  std::vector<double> size_distribution;

  // Number of distinct pattern sizes.
  size_t NumSizes() const { return eta_max - eta_min + 1; }

  // Per-size cap under the uniform distribution: gamma / NumSizes(), at
  // least 1 (Definition 3.1).
  size_t MaxPerSize() const {
    size_t per = gamma / NumSizes();
    return per == 0 ? 1 : per;
  }

  // Per-size caps honouring size_distribution (uniform when it is empty).
  // The caps of positively weighted sizes sum to at least gamma.
  std::vector<size_t> PerSizeCaps() const;

  // CHECK-validates the invariants of Definition 3.1 (eta_min > 2, ordered
  // range, positive gamma) and the kMaxPatternEdges bound.
  void Validate() const {
    CATAPULT_CHECK_MSG(eta_min > 2, "eta_min must exceed 2 (Definition 3.1)");
    CATAPULT_CHECK(eta_max >= eta_min);
    CATAPULT_CHECK_MSG(eta_max <= kMaxPatternEdges,
                       "eta_max exceeds kMaxPatternEdges");
    CATAPULT_CHECK(gamma > 0);
    if (!size_distribution.empty()) {
      CATAPULT_CHECK_MSG(size_distribution.size() == NumSizes(),
                         "Psi_dist needs one weight per size");
      double total = 0.0;
      for (double w : size_distribution) {
        CATAPULT_CHECK(w >= 0.0);
        total += w;
      }
      CATAPULT_CHECK_MSG(total > 0.0, "Psi_dist must have a positive weight");
    }
  }
};

// Sizes still open for selection given how many patterns of each size have
// been chosen (Algorithm 4, GetPatternSizeRange). `selected_per_size[s]`
// counts patterns of size eta_min + s.
std::vector<size_t> OpenPatternSizes(const PatternBudget& budget,
                                     const std::vector<size_t>& selected_per_size);

}  // namespace catapult

#endif  // CATAPULT_CORE_BUDGET_H_
