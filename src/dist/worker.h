#ifndef CATAPULT_DIST_WORKER_H_
#define CATAPULT_DIST_WORKER_H_

#include <cstdint>
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
// ComputeShardCluster, and ships the encoded result; the supervisor
// persists it as the cluster's shard artifact, so a retry — on any member,
// at any attempt — resumes from the last durable cluster instead of
// recomputing the shard. The supervisor also calls ComputeShardCluster
// directly for the in-process fallback of quarantined shards, which is what
// guarantees fallback output is bit-identical to member output (same code,
// same stream, same inputs).

namespace catapult::dist {

// Everything a member (or the in-process fallback) needs to execute shard
// work. Pointers reference supervisor-owned state.
struct ShardExecutionSpec {
  const GraphDatabase* db = nullptr;
  // The coarse partition, indexed by the cluster indices in the shard plan.
  const std::vector<std::vector<GraphId>>* coarse = nullptr;
  // Pre-split fine-clustering streams, index-aligned with `coarse` (empty
  // when fine clustering is disabled for the run).
  std::vector<RngState> streams;
  FineClusteringOptions fine;

  // Directory holding per-cluster shard artifacts (`cluster-<idx>.ckpt`).
  // Namespaced by coarse cluster index, not by shard or attempt, so any
  // retry finds every prior attempt's durable clusters.
  std::string shard_dir;
  uint64_t fingerprint = 0;  // run config fingerprint stamped on artifacts

  size_t worker_threads = 1;  // threads inside each member
  // Memory limits for each member's own budget ledger (0 = unlimited).
  // Budgets are per-process: a member charges its own allocations.
  size_t mem_soft_limit_bytes = 0;
  size_t mem_hard_limit_bytes = 0;
  // The phase's deadline; members receive the time remaining at assignment.
  Deadline deadline;
  // Distributed-trace id of the supervising run (0 = untraced). A member
  // given a non-zero id records per-cluster spans and ships them, with the
  // id echoed, in its ShardDone frame.
  uint64_t trace_id = 0;
  // Span id of the supervisor's sharded-phase span, carried to members in
  // ShardAssign so shipped context names its parent.
  uint64_t parent_span_id = 0;
};

// One coarse cluster's results: its fine clusters and their CSGs (1:1).
struct ShardClusterResult {
  std::vector<std::vector<GraphId>> fine_clusters;
  std::vector<ClusterSummaryGraph> csgs;
  // Degradation markers, mirroring the in-process pipeline's diagnostics:
  // fine_complete=false when a stop left clusters unsplit; degraded_csgs
  // counts partially folded summaries. Degraded results are never persisted
  // as shard artifacts (members fail the shard instead; only the in-process
  // fallback, which runs under the supervisor's own context, may keep them).
  bool fine_complete = true;
  size_t degraded_csgs = 0;
  bool Complete() const { return fine_complete && degraded_csgs == 0; }
};

// Path of cluster `cluster_index`'s shard artifact under `shard_dir`.
std::string ShardArtifactPath(const std::string& shard_dir,
                              size_t cluster_index);

// Runs cluster `cluster_index` through fine clustering (a one-cluster
// FineCluster call, skipped when `spec.streams` is empty) + CSG folding.
// All internal work is inline (pool-less): callers parallelise across
// clusters, so per-cluster work must not re-enter the pool.
ShardClusterResult ComputeShardCluster(const ShardExecutionSpec& spec,
                                       size_t cluster_index,
                                       const RunContext& ctx);

// Atomically persists a complete result as cluster `cluster_index`'s shard
// artifact (RecordType::kShard). Returns "" on success, else the error.
std::string SaveShardArtifact(const ShardExecutionSpec& spec,
                              size_t cluster_index,
                              const ShardClusterResult& result);

// Encodes a complete result as the kShard record payload — the exact bytes
// SaveShardArtifact wraps into the record envelope. Members ship these
// bytes in a ClusterResult frame instead of writing to a (possibly remote)
// filesystem; the supervisor persists them with SaveShardArtifactPayload
// and re-validates via LoadShardArtifact, so a member's artifact is
// byte-identical to one the in-process fallback writes.
std::string EncodeShardResultPayload(const ShardExecutionSpec& spec,
                                     size_t cluster_index,
                                     const ShardClusterResult& result);

// Atomically persists an already-encoded payload as cluster
// `cluster_index`'s artifact. Returns "" on success, else the error.
std::string SaveShardArtifactPayload(const ShardExecutionSpec& spec,
                                     size_t cluster_index,
                                     const std::string& payload);

// Loads and validates cluster `cluster_index`'s shard artifact. Beyond the
// record envelope (magic/CRCs/fingerprint) this cross-checks the binding:
// the stored coarse member list must equal the current cluster, the fine
// clusters must partition it, and each CSG's cluster_size must match its
// fine cluster. Returns "" and fills `out` on success, else the rejection
// reason (missing file included) and leaves `out` untouched.
std::string LoadShardArtifact(const ShardExecutionSpec& spec,
                              size_t cluster_index, ShardClusterResult* out);

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_WORKER_H_
