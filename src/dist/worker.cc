#include "src/dist/worker.h"

#include <algorithm>

#include "src/persist/codec.h"
#include "src/persist/record_io.h"

namespace catapult::dist {

namespace {

using persist::BinaryReader;
using persist::BinaryWriter;

std::string EncodeShardPayload(const std::vector<GraphId>& coarse_members,
                               size_t cluster_index,
                               const ShardClusterResult& result) {
  BinaryWriter w;
  w.PutU64(cluster_index);
  // The coarse member list binds the artifact to its cluster: a plan change
  // (or a misfiled artifact) is a validation failure, not silent reuse.
  persist::EncodeClusters({coarse_members}, w);
  persist::EncodeClusters(result.fine_clusters, w);
  w.PutU64(result.csgs.size());
  for (const ClusterSummaryGraph& csg : result.csgs) {
    persist::EncodeCsg(csg, w);
  }
  return w.TakeBuffer();
}

std::string DecodeShardPayload(const std::string& payload,
                               const std::vector<GraphId>& coarse_members,
                               size_t cluster_index,
                               ShardClusterResult* out) {
  BinaryReader r(payload);
  uint64_t stored_index = r.GetU64();
  std::vector<std::vector<GraphId>> stored_members;
  if (!persist::DecodeClusters(r, &stored_members)) {
    return "corrupt member list";
  }
  ShardClusterResult result;
  if (!persist::DecodeClusters(r, &result.fine_clusters)) {
    return "corrupt fine clusters";
  }
  uint64_t csg_count = r.GetU64();
  if (!r.ok() || csg_count != result.fine_clusters.size()) {
    return "csg count does not match fine cluster count";
  }
  result.csgs.reserve(csg_count);
  for (uint64_t i = 0; i < csg_count; ++i) {
    std::optional<ClusterSummaryGraph> csg = persist::DecodeCsg(r);
    if (!csg.has_value()) return "corrupt csg";
    result.csgs.push_back(std::move(*csg));
  }
  if (!r.ok() || !r.AtEnd()) return "corrupt shard payload";

  if (stored_index != cluster_index) {
    return "artifact bound to a different cluster index";
  }
  if (stored_members.size() != 1 || stored_members[0] != coarse_members) {
    return "artifact bound to a different coarse cluster";
  }
  // The fine clusters must partition the coarse member set exactly.
  std::vector<GraphId> covered;
  for (const auto& fine : result.fine_clusters) {
    if (fine.empty()) return "empty fine cluster";
    covered.insert(covered.end(), fine.begin(), fine.end());
  }
  std::vector<GraphId> expected = coarse_members;
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

}  // namespace

std::string ShardArtifactPath(const std::string& shard_dir,
                              size_t cluster_index) {
  return shard_dir + "/cluster-" + std::to_string(cluster_index) + ".ckpt";
}

ShardClusterResult ComputeShardCluster(const ShardExecutionSpec& spec,
                                       size_t cluster_index,
                                       const RunContext& ctx) {
  const std::vector<GraphId>& cluster = (*spec.coarse)[cluster_index];
  ShardClusterResult result;
  // Inline context: callers parallelise across clusters, so per-cluster
  // work must not re-enter the pool. Each cluster's artifact ships (and is
  // persisted) as soon as it completes, so the unit stays one cluster.
  RunContext inline_ctx = ctx.WithPool(nullptr);
  if (!spec.streams.empty()) {
    result.fine_clusters =
        FineCluster(*spec.db, {cluster}, {spec.streams[cluster_index]},
                    spec.fine, inline_ctx, &result.fine_complete);
  } else {
    result.fine_clusters.push_back(cluster);
  }
  result.csgs.reserve(result.fine_clusters.size());
  for (const std::vector<GraphId>& fine : result.fine_clusters) {
    bool fold_ok = true;
    result.csgs.push_back(BuildCsg(*spec.db, fine, inline_ctx, &fold_ok));
    if (!fold_ok) ++result.degraded_csgs;
  }
  return result;
}

std::string SaveShardArtifact(const ShardExecutionSpec& spec,
                              size_t cluster_index,
                              const ShardClusterResult& result) {
  return persist::WriteRecordFile(
      ShardArtifactPath(spec.shard_dir, cluster_index),
      persist::RecordType::kShard, spec.fingerprint,
      EncodeShardPayload((*spec.coarse)[cluster_index], cluster_index,
                         result));
}

std::string EncodeShardResultPayload(const ShardExecutionSpec& spec,
                                     size_t cluster_index,
                                     const ShardClusterResult& result) {
  return EncodeShardPayload((*spec.coarse)[cluster_index], cluster_index,
                            result);
}

std::string SaveShardArtifactPayload(const ShardExecutionSpec& spec,
                                     size_t cluster_index,
                                     const std::string& payload) {
  return persist::WriteRecordFile(
      ShardArtifactPath(spec.shard_dir, cluster_index),
      persist::RecordType::kShard, spec.fingerprint, payload);
}

std::string LoadShardArtifact(const ShardExecutionSpec& spec,
                              size_t cluster_index, ShardClusterResult* out) {
  std::string payload;
  std::string err = persist::ReadRecordFile(
      ShardArtifactPath(spec.shard_dir, cluster_index),
      persist::RecordType::kShard, spec.fingerprint, &payload);
  if (!err.empty()) return err;
  return DecodeShardPayload(payload, (*spec.coarse)[cluster_index],
                            cluster_index, out);
}

}  // namespace catapult::dist
