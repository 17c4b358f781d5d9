#ifndef CATAPULT_CLUSTER_KMEANS_H_
#define CATAPULT_CLUSTER_KMEANS_H_

#include <cstddef>
#include <vector>

#include "src/util/bitset.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"

namespace catapult {

// Options for k-means over binary feature vectors (Algorithm 2, line 11).
struct KMeansOptions {
  size_t k = 8;
  size_t max_iterations = 50;
};

// Result of a k-means run.
struct KMeansResult {
  // assignment[i] is the cluster index of point i (in [0, k)).
  std::vector<size_t> assignment;
  // Within-cluster sum of squared distances at convergence.
  double inertia = 0.0;
  // Iterations actually executed.
  size_t iterations = 0;
};

// Lloyd's k-means with k-means++ seeding over binary vectors, using squared
// Euclidean distance (equal to Hamming distance between binary points and
// its natural extension to fractional centroids). Empty clusters are
// re-seeded with the point farthest from its centroid. Deterministic given
// `rng`.
//
// The distance evaluations of the seeding and assignment steps run on the
// context's thread pool; every seeding draw and every reduction (changed
// flag, centroid sums, inertia) is taken in point-index order on the calling
// thread, so the result is bit-identical at every thread count.
KMeansResult KMeansCluster(const std::vector<DynamicBitset>& points,
                           const KMeansOptions& options, Rng& rng,
                           const RunContext& ctx = RunContext::NoLimit());

}  // namespace catapult

#endif  // CATAPULT_CLUSTER_KMEANS_H_
