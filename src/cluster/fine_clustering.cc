#include "src/cluster/fine_clustering.h"

#include <algorithm>
#include <deque>

#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace catapult {

std::vector<std::vector<GraphId>> FineCluster(
    const GraphDatabase& db, std::vector<std::vector<GraphId>> clusters,
    const FineClusteringOptions& options, Rng& rng, const RunContext& ctx,
    bool* complete) {
  CATAPULT_CHECK(options.max_cluster_size >= 2);
  if (complete != nullptr) *complete = true;
  std::vector<std::vector<GraphId>> done;
  std::deque<std::vector<GraphId>> large;
  for (auto& cluster : clusters) {
    if (cluster.size() > options.max_cluster_size) {
      large.push_back(std::move(cluster));
    } else if (!cluster.empty()) {
      done.push_back(std::move(cluster));
    }
  }

  // The sequential algorithm popped one oversized cluster at a time off a
  // FIFO queue; since each split only *appends* its oversized parts, FIFO
  // order is exactly level order. Processing the queue in whole rounds
  // therefore preserves the original stop-poll sequence, rng draw sequence,
  // and output order bit-for-bit, while the splits within a round — each an
  // independent batch of MCS calls over disjoint clusters — run on the
  // context's thread pool. All rng draws and all routing of the resulting
  // parts stay on the calling thread, in queue order.
  while (!large.empty()) {
    obs::Count(obs::Counter::kFineSplitRounds);
    std::vector<std::vector<GraphId>> round;
    round.reserve(large.size());
    while (!large.empty()) {
      round.push_back(std::move(large.front()));
      large.pop_front();
    }

    // Poll + draw per cluster, in order, exactly as the sequential pop loop
    // did. On a stop request the remaining clusters of the round are handed
    // back unsplit: the result remains a partition, just coarser than
    // requested (the degradation ladder's "coarse-only" rung).
    bool stopped = false;
    size_t tasked = 0;                  // clusters of this round being split
    std::vector<size_t> seed1_pos(round.size(), 0);
    for (size_t c = 0; c < round.size(); ++c) {
      if (ctx.StopRequested("cluster.fine.split")) {
        if (complete != nullptr) *complete = false;
        stopped = true;
        break;
      }
      seed1_pos[c] = rng.UniformInt(round[c].size());
      tasked = c + 1;
    }

    // Split the tasked clusters. Each task reads only its own cluster and
    // writes only its own parts slot; parts are emitted in the same order
    // the sequential code appended them.
    std::vector<std::vector<std::vector<GraphId>>> parts(tasked);
    ParallelFor(ctx, tasked, 1, [&](size_t c) {
      const std::vector<GraphId>& cluster = round[c];

      // One split costs ~2 MCS calls per member; keep each call affordable
      // within the remaining time (unlimited contexts leave budgets as
      // configured).
      McsOptions mcs = options.mcs;
      mcs.node_budget = ctx.TightenNodeBudget(mcs.node_budget);

      // Seed1: random member (pre-drawn). Seed2: member least similar to
      // Seed1.
      GraphId seed1 = cluster[seed1_pos[c]];
      std::vector<double> similarity(cluster.size(), 0.0);
      double min_sim = 2.0;
      size_t seed2_pos = seed1_pos[c];
      for (size_t i = 0; i < cluster.size(); ++i) {
        if (i == seed1_pos[c]) continue;
        similarity[i] =
            McsSimilarity(db.graph(cluster[i]), db.graph(seed1), mcs);
        if (similarity[i] < min_sim) {
          min_sim = similarity[i];
          seed2_pos = i;
        }
      }
      GraphId seed2 = cluster[seed2_pos];

      std::vector<GraphId> first = {seed1};
      std::vector<GraphId> second = {seed2};
      for (size_t i = 0; i < cluster.size(); ++i) {
        if (i == seed1_pos[c] || i == seed2_pos) continue;
        double to_seed2 =
            McsSimilarity(db.graph(cluster[i]), db.graph(seed2), mcs);
        if (similarity[i] > to_seed2) {
          first.push_back(cluster[i]);
        } else {
          second.push_back(cluster[i]);
        }
      }

      for (auto* part : {&first, &second}) {
        if (part->size() == cluster.size() - 1 &&
            part->size() > options.max_cluster_size) {
          // A split that makes no progress (everything on one side) cannot
          // recurse forever: the other side always keeps its seed, so each
          // round strictly shrinks the larger part... unless the whole
          // cluster collapsed onto one seed. Guard by forcing a balanced
          // cut, in sorted (id) order.
          std::sort(part->begin(), part->end());
          size_t half = part->size() / 2;
          parts[c].emplace_back(part->begin(), part->begin() + half);
          parts[c].emplace_back(part->begin() + half, part->end());
        } else {
          parts[c].push_back(std::move(*part));
        }
      }
    });

    // Route the parts in task order: still-oversized parts go back on the
    // queue for the next round (or, once stopped, out unsplit — matching
    // the sequential dump of the whole queue at the stop poll).
    for (size_t c = 0; c < tasked; ++c) {
      for (auto& part : parts[c]) {
        if (!stopped && part.size() > options.max_cluster_size) {
          large.push_back(std::move(part));
        } else {
          done.push_back(std::move(part));
        }
      }
    }
    if (stopped) {
      for (size_t c = tasked; c < round.size(); ++c) {
        done.push_back(std::move(round[c]));
      }
      break;
    }
  }
  return done;
}

std::vector<RngState> SplitFineStreams(Rng& rng, size_t count) {
  std::vector<RngState> streams;
  streams.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    streams.push_back(rng.Split().SaveState());
  }
  return streams;
}

std::vector<std::vector<GraphId>> FineClusterOne(
    const GraphDatabase& db, std::vector<GraphId> cluster,
    const FineClusteringOptions& options, const RngState& stream,
    const RunContext& ctx, bool* complete) {
  Rng child(0);
  child.RestoreState(stream);
  std::vector<std::vector<GraphId>> one;
  one.push_back(std::move(cluster));
  // Inline (pool-less) context: FineClusterOne is itself the unit callers
  // parallelise over, so its internal rounds must not re-enter the pool.
  return FineCluster(db, std::move(one), options, child,
                     ctx.WithPool(nullptr), complete);
}

std::vector<std::vector<GraphId>> FineClusterPerCluster(
    const GraphDatabase& db, std::vector<std::vector<GraphId>> clusters,
    const FineClusteringOptions& options, Rng& rng, const RunContext& ctx,
    bool* complete) {
  if (complete != nullptr) *complete = true;
  // One stream per input cluster, small ones included: the draw count must
  // be a function of the coarse partition alone (not of which clusters turn
  // out to need splitting) so the parent stream's position after this stage
  // is identical in-process and across any shard assignment.
  std::vector<RngState> streams = SplitFineStreams(rng, clusters.size());
  std::vector<std::vector<std::vector<GraphId>>> parts(clusters.size());
  std::vector<uint8_t> part_complete(clusters.size(), 1);
  ParallelFor(ctx, clusters.size(), 1, [&](size_t c) {
    if (clusters[c].empty()) return;
    bool ok = true;
    parts[c] = FineClusterOne(db, std::move(clusters[c]), options, streams[c],
                              ctx, &ok);
    part_complete[c] = ok ? 1 : 0;
  });
  std::vector<std::vector<GraphId>> done;
  for (size_t c = 0; c < parts.size(); ++c) {
    if (part_complete[c] == 0 && complete != nullptr) *complete = false;
    for (auto& part : parts[c]) done.push_back(std::move(part));
  }
  return done;
}

}  // namespace catapult
