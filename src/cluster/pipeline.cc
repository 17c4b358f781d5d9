#include "src/cluster/pipeline.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "src/cluster/facility_location.h"
#include "src/cluster/kmeans.h"
#include "src/obs/trace.h"
#include "src/util/mem_budget.h"
#include "src/util/thread_pool.h"

namespace catapult {

namespace {

// The sampled mining step (Section 4.3): frequent subtrees are mined on an
// eager sample of `graph_ids` at a lowered threshold, then re-counted over
// all of `graph_ids` at the original threshold (Lemma 4.4's verification
// step), so the returned support sets index positions in `graph_ids` just
// like MineFrequentSubtrees'. Mining gets half of the remaining time; the
// verification counts are independent (per-candidate slots, read-only
// arena) and run on the context's pool with the stop poll per candidate and
// the keep/drop reduction in candidate order.
std::vector<FrequentSubtree> MineOnEagerSample(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SubtreeMinerOptions& miner, const EagerSamplingOptions& eager,
    Rng& rng, const RunContext& ctx, bool* complete) {
  std::vector<GraphId> sample = EagerSample(graph_ids.size(), eager, rng);
  for (GraphId& id : sample) id = graph_ids[id];
  SubtreeMinerOptions lowered = miner;
  lowered.min_support =
      LoweredSupportThreshold(miner.min_support, sample.size(), eager);
  std::vector<FrequentSubtree> candidates =
      MineFrequentSubtrees(db, sample, lowered, ctx.Slice(0.5), complete);

  const size_t min_count = static_cast<size_t>(std::max(
      1.0, miner.min_support * static_cast<double>(graph_ids.size())));
  const FlatGraphDatabase flat_db = FlatGraphDatabase::Build(db, graph_ids);
  std::vector<DynamicBitset> supports(candidates.size());
  std::vector<uint8_t> frequent(candidates.size(), 0);
  std::atomic<bool> stop_verifying{false};
  ParallelFor(ctx, candidates.size(), 1, [&](size_t i) {
    if (stop_verifying.load(std::memory_order_relaxed)) return;
    if (ctx.StopRequested("miner.count_support")) {
      stop_verifying.store(true, std::memory_order_relaxed);
      return;
    }
    DynamicBitset support = CountSupport(candidates[i].tree, flat_db);
    if (support.Count() < min_count) return;
    supports[i] = std::move(support);
    frequent[i] = 1;
  });
  if (stop_verifying.load(std::memory_order_relaxed)) *complete = false;
  std::vector<FrequentSubtree> verified;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (frequent[i] == 0) continue;
    FrequentSubtree& fs = candidates[i];
    fs.frequency = static_cast<double>(supports[i].Count()) /
                   static_cast<double>(graph_ids.size());
    fs.support = std::move(supports[i]);
    verified.push_back(std::move(fs));
  }
  return verified;
}

}  // namespace

ClusteringResult CoarseClusteringStage(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SmallGraphClusteringOptions& options, Rng& rng,
    const RunContext& ctx, const EagerSamplingOptions* eager_sampling) {
  ClusteringResult result;
  if (graph_ids.empty()) return result;

  std::vector<std::vector<GraphId>> coarse_clusters;

  if (options.mode == ClusteringMode::kFineOnly) {
    // Single seed cluster containing everything; fine clustering does all
    // of the work.
    coarse_clusters.push_back(graph_ids);
  } else {
    // --- Coarse clustering (Algorithm 2) ---
    // Mining gets at most half of the remaining time so it cannot starve
    // the clustering stages proper.
    std::optional<obs::Span> stage_span;
    stage_span.emplace(ctx.tracer(), "clustering.mining");
    std::vector<FrequentSubtree> all_subtrees =
        eager_sampling != nullptr
            ? MineOnEagerSample(db, graph_ids, options.miner, *eager_sampling,
                                rng, ctx, &result.mining_complete)
            : MineFrequentSubtrees(db, graph_ids, options.miner,
                                   ctx.Slice(0.5), &result.mining_complete);
    // Refine the feature set by facility-location greedy selection.
    std::vector<size_t> selected =
        SelectRepresentativeSubtrees(all_subtrees, {});
    for (size_t idx : selected) {
      result.features.push_back(all_subtrees[idx]);
    }
    stage_span.reset();

    stage_span.emplace(ctx.tracer(), "clustering.coarse");
    // The feature matrix (|graph_ids| x |features| bitsets) is the coarse
    // stage's dominant allocation; charge it before materialising. A refused
    // charge sheds the stage — one cluster, best-effort — instead of
    // allocating past the hard limit.
    ScopedMemoryCharge feature_charge(
        ctx.memory(),
        graph_ids.size() * ApproxBitsetBytes(result.features.size()),
        "mem.features");
    if (ctx.StopRequested("cluster.coarse") || !feature_charge.ok()) {
      // Expired (or out of memory) before the coarse stage: everything lands
      // in one cluster (fine clustering, if it still gets time, can split it
      // further).
      result.coarse_complete = false;
      coarse_clusters.push_back(graph_ids);
    } else if (result.features.empty()) {
      // No frequent subtrees (tiny/degenerate input): one cluster.
      coarse_clusters.push_back(graph_ids);
    } else {
      // Bit j of row i <=> graph graph_ids[i] contains feature j (Algorithm
      // 2, lines 3-10): the support sets hold exactly these bits, so the
      // matrix is their transpose and no containment test is repeated.
      std::vector<DynamicBitset> features(
          graph_ids.size(), DynamicBitset(result.features.size()));
      for (size_t j = 0; j < result.features.size(); ++j) {
        for (size_t i : result.features[j].support.ToIndices()) {
          features[i].Set(j);
        }
      }
      const KMeansOptions kmeans_options{
          .k = std::max<size_t>(1,
                                graph_ids.size() / options.max_cluster_size)};
      const std::vector<size_t> assignment =
          KMeansCluster(features, kmeans_options, rng, ctx).assignment;
      size_t k = 0;
      for (size_t a : assignment) k = std::max(k, a + 1);
      coarse_clusters.assign(k, {});
      for (size_t i = 0; i < graph_ids.size(); ++i) {
        coarse_clusters[assignment[i]].push_back(graph_ids[i]);
      }
      coarse_clusters.erase(
          std::remove_if(coarse_clusters.begin(), coarse_clusters.end(),
                         [](const auto& c) { return c.empty(); }),
          coarse_clusters.end());
    }
    stage_span.reset();
  }

  result.clusters = std::move(coarse_clusters);
  return result;
}

bool ValidateClusterAssignment(
    const std::vector<std::vector<GraphId>>& clusters, size_t universe,
    bool* is_partition) {
  std::vector<bool> seen(universe, false);
  size_t assigned = 0;
  for (const std::vector<GraphId>& cluster : clusters) {
    if (cluster.empty()) return false;
    for (GraphId id : cluster) {
      if (id >= universe || seen[id]) return false;
      seen[id] = true;
      ++assigned;
    }
  }
  if (is_partition != nullptr) *is_partition = assigned == universe;
  return true;
}

}  // namespace catapult
