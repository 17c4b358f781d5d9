#include "src/cluster/kmeans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace catapult {

namespace {

// Squared Euclidean distance between a binary point and a real centroid.
double SquaredDistance(const DynamicBitset& point,
                       const std::vector<double>& centroid) {
  double total = 0.0;
  for (size_t d = 0; d < centroid.size(); ++d) {
    double diff = (point.Test(d) ? 1.0 : 0.0) - centroid[d];
    total += diff * diff;
  }
  return total;
}

// Squared Euclidean distance between two binary points (= Hamming).
double SquaredDistance(const DynamicBitset& a, const DynamicBitset& b) {
  return static_cast<double>(a.HammingDistance(b));
}

}  // namespace

KMeansResult KMeansCluster(const std::vector<DynamicBitset>& points,
                           const KMeansOptions& options, Rng& rng,
                           const RunContext& ctx) {
  // Distance evaluations (per point, read-only inputs, own output slot)
  // parallelise; every rng draw and every order-sensitive reduction stays
  // on the calling thread in index order.
  constexpr size_t kGrain = 64;  // points per claimed chunk: bodies are cheap
  KMeansResult result;
  const size_t n = points.size();
  if (n == 0) return result;
  const size_t dims = points[0].size();
  const size_t k = std::min(options.k == 0 ? size_t{1} : options.k, n);

  // k-means++ seeding.
  std::vector<size_t> seeds;
  seeds.push_back(rng.UniformInt(n));
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  while (seeds.size() < k) {
    ParallelFor(ctx, n, kGrain, [&](size_t i) {
      min_dist[i] =
          std::min(min_dist[i], SquaredDistance(points[i],
                                                points[seeds.back()]));
    });
    double total = 0.0;
    for (double d : min_dist) total += d;
    if (total <= 0.0) {
      // All remaining points coincide with seeds; pick uniformly.
      seeds.push_back(rng.UniformInt(n));
      continue;
    }
    seeds.push_back(rng.WeightedIndex(min_dist));
  }

  std::vector<std::vector<double>> centroids(
      k, std::vector<double>(dims, 0.0));
  for (size_t c = 0; c < k; ++c) {
    for (size_t d = 0; d < dims; ++d) {
      centroids[c][d] = points[seeds[c]].Test(d) ? 1.0 : 0.0;
    }
  }

  result.assignment.assign(n, 0);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    obs::Count(obs::Counter::kKmeansIterations);
    // Assign. Each point's nearest centroid depends only on that point, so
    // the O(n·k·d) scan parallelises; `changed` is a monotone flag, order
    // of the stores is irrelevant.
    std::atomic<bool> changed{false};
    ParallelFor(ctx, n, kGrain, [&](size_t i) {
      double best = std::numeric_limits<double>::max();
      size_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        double d = SquaredDistance(points[i], centroids[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      if (result.assignment[i] != best_c) {
        result.assignment[i] = best_c;
        obs::Count(obs::Counter::kKmeansReassignments);
        changed.store(true, std::memory_order_relaxed);
      }
    });
    if (!changed.load(std::memory_order_relaxed) && iter > 0) break;

    // Update.
    std::vector<size_t> counts(k, 0);
    for (auto& centroid : centroids) {
      std::fill(centroid.begin(), centroid.end(), 0.0);
    }
    for (size_t i = 0; i < n; ++i) {
      size_t c = result.assignment[i];
      ++counts[c];
      for (size_t idx : points[i].ToIndices()) centroids[c][idx] += 1.0;
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster with the point farthest from its
        // centroid (a standard Lloyd repair step).
        double worst = -1.0;
        size_t worst_i = 0;
        for (size_t i = 0; i < n; ++i) {
          double d =
              SquaredDistance(points[i], centroids[result.assignment[i]]);
          if (d > worst) {
            worst = d;
            worst_i = i;
          }
        }
        for (size_t d = 0; d < dims; ++d) {
          centroids[c][d] = points[worst_i].Test(d) ? 1.0 : 0.0;
        }
        result.assignment[worst_i] = c;
        continue;
      }
      for (size_t d = 0; d < dims; ++d) {
        centroids[c][d] /= static_cast<double>(counts[c]);
      }
    }
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    result.inertia +=
        SquaredDistance(points[i], centroids[result.assignment[i]]);
  }
  return result;
}

}  // namespace catapult
