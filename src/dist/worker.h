#ifndef CATAPULT_DIST_WORKER_H_
#define CATAPULT_DIST_WORKER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/cluster/fine_clustering.h"
#include "src/csg/csg.h"
#include "src/graph/graph_database.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"

// Per-cluster shard work (DESIGN.md §12). Every fleet member — a forked
// local member or a dialing catapult_worker — carries each assigned coarse
// cluster through fine clustering (a one-cluster FineCluster call under
// that cluster's pre-split rng stream) and CSG folding via
// ComputeShardCluster, and ships the encoded result. The supervisor decodes
// it against the cluster it assigned and keeps it in memory, so a retry —
// on any member, at any attempt — carries only the clusters still missing;
// a run with a checkpoint store also persists it as the cluster's shard
// record. The supervisor also calls ComputeShardCluster directly for the
// in-process fallback of quarantined shards, which is what guarantees
// fallback output is bit-identical to member output (same code, same
// stream, same inputs).

namespace catapult::dist {

// One coarse cluster's results: its fine clusters and their CSGs (1:1).
struct ShardClusterResult {
  std::vector<std::vector<GraphId>> fine_clusters;
  std::vector<ClusterSummaryGraph> csgs;
  // Degradation markers, mirroring the in-process pipeline's diagnostics:
  // fine_complete=false when a stop left clusters unsplit; degraded_csgs
  // counts partially folded summaries. Degraded results are never shipped
  // or persisted (members fail the shard instead; only the in-process
  // fallback, which runs under the supervisor's own context, may keep them).
  bool fine_complete = true;
  size_t degraded_csgs = 0;
  bool Complete() const { return fine_complete && degraded_csgs == 0; }
};

// Runs one coarse cluster, `cluster` (its member ids), through fine
// clustering (a one-cluster FineCluster call under `*stream`, skipped when
// `stream` is null) + CSG folding. All internal work is inline (pool-less):
// callers parallelise across clusters, so per-cluster work must not
// re-enter the pool.
ShardClusterResult ComputeShardCluster(const GraphDatabase& db,
                                       const std::vector<GraphId>& cluster,
                                       const RngState* stream,
                                       const FineClusteringOptions& fine,
                                       const RunContext& ctx);

// Encodes a complete result of coarse cluster `cluster_index`, whose
// members are `cluster`, as the kShard payload: the bytes a member ships in
// a ClusterResult frame and CheckpointStore::SaveShard frames as the
// cluster's record. The index and member list bind the payload to its
// cluster. One field list (worker.cc) lays the payload out for both this
// and DecodeShardResultPayload.
std::string EncodeShardResultPayload(size_t cluster_index,
                                     const std::vector<GraphId>& cluster,
                                     const ShardClusterResult& result);

// Decodes a kShard payload and checks its binding: the stored index and
// member list must be `cluster_index` and `cluster`, the fine clusters must
// partition `cluster`, and each CSG's cluster_size must match its fine
// cluster. Returns "" and fills `out` on success, else the rejection reason
// and leaves `out` untouched. Total: any byte string yields a reason, never
// a crash or a CATAPULT_CHECK (fuzz/fuzz_record.cc drives it).
std::string DecodeShardResultPayload(const std::string& payload,
                                     size_t cluster_index,
                                     const std::vector<GraphId>& cluster,
                                     ShardClusterResult* out);

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_WORKER_H_
