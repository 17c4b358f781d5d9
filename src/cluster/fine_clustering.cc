#include "src/cluster/fine_clustering.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace catapult {

namespace {

// An oversized part of coarse cluster `cluster`, awaiting its split.
struct Part {
  size_t cluster = 0;
  std::vector<GraphId> members;
};

}  // namespace

std::vector<RngState> SplitFineStreams(Rng& rng, size_t count) {
  std::vector<RngState> streams;
  streams.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    streams.push_back(rng.Split().SaveState());
  }
  return streams;
}

std::vector<std::vector<GraphId>> FineCluster(
    const GraphDatabase& db, std::vector<std::vector<GraphId>> clusters,
    const std::vector<RngState>& streams,
    const FineClusteringOptions& options, const RunContext& ctx,
    bool* complete) {
  CATAPULT_CHECK(options.max_cluster_size >= 2);
  CATAPULT_CHECK(streams.size() == clusters.size());
  if (complete != nullptr) *complete = true;
  std::vector<Rng> rngs(clusters.size());
  std::vector<std::vector<std::vector<GraphId>>> done(clusters.size());
  std::vector<Part> round;
  for (size_t c = 0; c < clusters.size(); ++c) {
    rngs[c].RestoreState(streams[c]);
    if (clusters[c].size() > options.max_cluster_size) {
      round.push_back({c, std::move(clusters[c])});
    } else if (!clusters[c].empty()) {
      done[c].push_back(std::move(clusters[c]));
    }
  }

  // Per cluster, Algorithm 3 pops one oversized part at a time off a FIFO
  // queue; since each split only *appends* its oversized parts, FIFO order
  // is exactly level order. A round takes one level of every cluster,
  // listed in (cluster, level) order, so each cluster's stop polls, rng
  // draws and output order are those of its own queue.
  bool stopped = false;
  while (!round.empty()) {
    // fine.split_rounds sums split rounds over clusters: one per cluster
    // with a part in this round.
    for (size_t p = 0; p < round.size(); ++p) {
      if (p == 0 || round[p].cluster != round[p - 1].cluster) {
        obs::Count(obs::Counter::kFineSplitRounds);
      }
    }

    // Poll + draw Seed1 per part, in order. On a stop request the parts not
    // yet drawn are handed back unsplit: the result remains a partition,
    // just coarser than requested (the degradation ladder's "coarse-only"
    // rung).
    std::vector<size_t> seed1(round.size(), 0);
    size_t tasked = 0;  // parts of this round being split
    for (; tasked < round.size(); ++tasked) {
      if (ctx.StopRequested("cluster.fine.split")) {
        if (complete != nullptr) *complete = false;
        stopped = true;
        break;
      }
      seed1[tasked] =
          rngs[round[tasked].cluster].UniformInt(round[tasked].members.size());
    }

    // sim[p][i]: similarity of member i of part p to member seed[p], for
    // every member but the part's seeds. Each (part, member) pair is one
    // pool item writing only its own slot.
    auto measure = [&](const std::vector<size_t>& seed) {
      std::vector<std::vector<double>> sim(tasked);
      std::vector<std::pair<size_t, size_t>> pairs;
      for (size_t p = 0; p < tasked; ++p) {
        sim[p].assign(round[p].members.size(), 0.0);
        for (size_t i = 0; i < sim[p].size(); ++i) {
          if (i != seed1[p] && i != seed[p]) pairs.emplace_back(p, i);
        }
      }
      ParallelFor(ctx, pairs.size(), 1, [&](size_t k) {
        const auto [p, i] = pairs[k];
        const std::vector<GraphId>& members = round[p].members;
        // A round costs ~2 MCS calls per member of every oversized part;
        // keep each call affordable within the remaining time (unlimited
        // contexts leave budgets as configured).
        McsOptions mcs = options.mcs;
        mcs.node_budget = ctx.TightenNodeBudget(mcs.node_budget);
        sim[p][i] = McsSimilarity(db.graph(members[i]),
                                  db.graph(members[seed[p]]), mcs);
      });
      return sim;
    };
    const std::vector<std::vector<double>> to_seed1 = measure(seed1);
    // Seed2: the member least similar to Seed1, first index on ties.
    std::vector<size_t> seed2 = seed1;
    for (size_t p = 0; p < tasked; ++p) {
      double min_sim = 2.0;
      for (size_t i = 0; i < to_seed1[p].size(); ++i) {
        if (i != seed1[p] && to_seed1[p][i] < min_sim) {
          min_sim = to_seed1[p][i];
          seed2[p] = i;
        }
      }
    }
    const std::vector<std::vector<double>> to_seed2 = measure(seed2);

    // Route the parts in round order: still-oversized parts go to the next
    // round, or, once stopped, out unsplit, like the rest of each queue.
    std::vector<Part> next;
    auto route = [&](size_t cluster, std::vector<GraphId> part) {
      if (!stopped && part.size() > options.max_cluster_size) {
        next.push_back({cluster, std::move(part)});
      } else {
        done[cluster].push_back(std::move(part));
      }
    };
    for (size_t p = 0; p < round.size(); ++p) {
      const std::vector<GraphId>& members = round[p].members;
      const size_t c = round[p].cluster;
      if (p >= tasked) {
        done[c].push_back(std::move(round[p].members));
        continue;
      }
      std::vector<GraphId> first = {members[seed1[p]]};
      std::vector<GraphId> second = {members[seed2[p]]};
      for (size_t i = 0; i < members.size(); ++i) {
        if (i == seed1[p] || i == seed2[p]) continue;
        if (to_seed1[p][i] > to_seed2[p][i]) {
          first.push_back(members[i]);
        } else {
          second.push_back(members[i]);
        }
      }
      for (std::vector<GraphId>* side : {&first, &second}) {
        if (side->size() == members.size() - 1 &&
            side->size() > options.max_cluster_size) {
          // A split that makes no progress (everything on one side) cannot
          // recurse forever: the other side always keeps its seed, so each
          // round strictly shrinks the larger part... unless the whole
          // cluster collapsed onto one seed. Guard by forcing a balanced
          // cut, in sorted (id) order.
          std::sort(side->begin(), side->end());
          const size_t half = side->size() / 2;
          route(c, std::vector<GraphId>(side->begin(), side->begin() + half));
          route(c, std::vector<GraphId>(side->begin() + half, side->end()));
        } else {
          route(c, std::move(*side));
        }
      }
    }
    round = std::move(next);
  }

  std::vector<std::vector<GraphId>> out;
  for (std::vector<std::vector<GraphId>>& parts : done) {
    for (std::vector<GraphId>& part : parts) out.push_back(std::move(part));
  }
  return out;
}

}  // namespace catapult
