#ifndef CATAPULT_DIST_SHARD_PLAN_H_
#define CATAPULT_DIST_SHARD_PLAN_H_

#include <cstddef>
#include <vector>

namespace catapult::dist {

// The assignment of coarse clusters to worker shards. Shard boundaries
// never affect the final output (each coarse cluster is an independent unit
// of work with its own pre-split rng stream), so the plan only balances
// load. Every cluster index appears in exactly one shard; shards are
// non-empty; within a shard indices are ascending.
struct ShardPlan {
  std::vector<std::vector<size_t>> shards;
};

// Deterministic longest-processing-time assignment of `cluster_sizes`
// (work weight per coarse cluster, typically member count) onto at most
// `num_shards` shards: clusters in descending size (stable by index) each
// go to the currently lightest shard, ties broken by lowest shard id.
// Fewer clusters than shards yields fewer (singleton) shards; empty input
// yields an empty plan.
ShardPlan PlanShards(const std::vector<size_t>& cluster_sizes,
                     size_t num_shards);

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_SHARD_PLAN_H_
