#include "src/dist/worker.h"

#include <algorithm>

#include "src/persist/codec.h"

namespace catapult::dist {

ShardClusterResult ComputeShardCluster(const GraphDatabase& db,
                                       const std::vector<GraphId>& cluster,
                                       const RngState* stream,
                                       const FineClusteringOptions& fine,
                                       const RunContext& ctx) {
  ShardClusterResult result;
  // Inline context: callers parallelise across clusters, so per-cluster
  // work must not re-enter the pool. Each cluster's result ships as soon as
  // it completes, so the unit stays one cluster.
  RunContext inline_ctx = ctx.WithPool(nullptr);
  if (stream != nullptr) {
    result.fine_clusters = FineCluster(db, {cluster}, {*stream}, fine,
                                       inline_ctx, &result.fine_complete);
  } else {
    result.fine_clusters.push_back(cluster);
  }
  result.csgs.reserve(result.fine_clusters.size());
  for (const std::vector<GraphId>& part : result.fine_clusters) {
    bool fold_ok = true;
    result.csgs.push_back(BuildCsg(db, part, inline_ctx, &fold_ok));
    if (!fold_ok) ++result.degraded_csgs;
  }
  return result;
}

namespace {

// The kShard payload: the coarse cluster's index and member list (written
// as a one-cluster list), which bind the payload to its cluster so a plan
// change or a misfiled record is a validation failure, not silent reuse;
// then the fine clusters and their CSGs.
template <class Io>
void ShardFields(Io& io, uint64_t& cluster_index,
                 std::vector<std::vector<GraphId>>& coarse,
                 ShardClusterResult& result) {
  io(cluster_index, coarse, result.fine_clusters, result.csgs);
}

}  // namespace

std::string EncodeShardResultPayload(size_t cluster_index,
                                     const std::vector<GraphId>& cluster,
                                     const ShardClusterResult& result) {
  persist::FieldWriter io;
  uint64_t index = cluster_index;
  std::vector<std::vector<GraphId>> coarse = {cluster};
  ShardFields(io, index, coarse, const_cast<ShardClusterResult&>(result));
  return io.TakeBuffer();
}

std::string DecodeShardResultPayload(const std::string& payload,
                                     size_t cluster_index,
                                     const std::vector<GraphId>& cluster,
                                     ShardClusterResult* out) {
  persist::FieldReader io(payload);
  uint64_t stored_index = 0;
  std::vector<std::vector<GraphId>> stored_members;
  ShardClusterResult result;
  ShardFields(io, stored_index, stored_members, result);
  if (!io.Finished()) return "corrupt shard payload";
  if (result.csgs.size() != result.fine_clusters.size()) {
    return "csg count does not match fine cluster count";
  }
  if (stored_index != cluster_index) {
    return "artifact bound to a different cluster index";
  }
  if (stored_members.size() != 1 || stored_members[0] != cluster) {
    return "artifact bound to a different coarse cluster";
  }
  // The fine clusters must partition the coarse member set exactly.
  std::vector<GraphId> covered;
  for (const auto& fine : result.fine_clusters) {
    if (fine.empty()) return "empty fine cluster";
    covered.insert(covered.end(), fine.begin(), fine.end());
  }
  std::vector<GraphId> expected = cluster;
  std::sort(covered.begin(), covered.end());
  std::sort(expected.begin(), expected.end());
  if (covered != expected) {
    return "fine clusters do not partition the coarse cluster";
  }
  for (size_t i = 0; i < result.csgs.size(); ++i) {
    if (result.csgs[i].cluster_size() != result.fine_clusters[i].size()) {
      return "csg cluster size mismatch";
    }
  }
  *out = std::move(result);
  return "";
}

}  // namespace catapult::dist
