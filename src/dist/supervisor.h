#ifndef CATAPULT_DIST_SUPERVISOR_H_
#define CATAPULT_DIST_SUPERVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/fine_clustering.h"
#include "src/csg/csg.h"
#include "src/dist/dist_report.h"
#include "src/graph/graph_database.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"

// The supervisor half of sharded multi-process execution (DESIGN.md §12).
// The supervisor plans shards over the coarse partition and hands them to
// one membership loop (src/dist/membership.h). Without a listen endpoint it
// forks min(processes, shards) local members, each speaking the member
// protocol over its end of a socketpair; with one, catapult_worker
// processes dial in. Either way liveness is in-band: a member that misses
// its heartbeat deadline, stalls a write or hangs up is fenced (a fenced
// local member is also SIGKILLed, reaped with waitpid and replaced). Failed
// shards are retried under deterministic capped exponential backoff
// (src/util/backoff.h), each retry resuming from the clusters the
// supervisor already accepted; a shard exhausting its failure budget is
// quarantined and executed in-process as the final rung of the degradation
// ladder. Accepted results stay in memory; only a run with a checkpoint
// store also writes them to it, as per-cluster shard records that a later
// run in the same directory reuses. The merged result is bit-identical to
// a 1-process run: each coarse cluster's work depends only on its pre-split
// rng stream and the supervisor concatenates results in coarse-cluster
// order.

namespace catapult {
class CheckpointStore;
}  // namespace catapult

namespace catapult::dist {

struct DistOptions {
  size_t processes = 2;        // local member budget (shard count cap)
  size_t max_shard_retries = 2;  // failures tolerated per shard
  double heartbeat_timeout_ms = 2000.0;  // members heartbeat at 1/4 of it
  double backoff_base_ms = 25.0;
  double backoff_cap_ms = 1000.0;
  size_t worker_threads = 1;  // threads inside each member process

  FineClusteringOptions fine;

  // The run's ConfigFingerprint: members must present it to join.
  uint64_t fingerprint = 0;

  // Per-member memory limits (each member charges its own ledger).
  size_t mem_soft_limit_bytes = 0;
  size_t mem_hard_limit_bytes = 0;

  // --- Remote fleet ----------------------------------------------------------
  // When either a listen address or an adopted listening fd is supplied,
  // the supervisor supervises remote catapult_worker processes that dial
  // in, instead of forking local members. "unix:PATH" or "tcp:HOST:PORT".
  std::string listen_address;
  // An already-bound, already-listening fd to adopt (not owned). Lets
  // tests bind tcp port 0 themselves to learn the real address before the
  // run starts. -1 = disabled.
  int listen_fd = -1;
  // How long the supervisor waits with work pending but no live member
  // (and no handshake in progress) before declaring the fleet lost and
  // finishing via the in-process fallback.
  double join_timeout_ms = 10000.0;
  // A send that cannot make progress for this long marks the connection
  // stalled (half-open peer) and fences the member.
  double write_stall_timeout_ms = 5000.0;
  // Optional admin endpoint for a remote fleet's supervision loop
  // ("unix:PATH" / "tcp:HOST:PORT", empty = disabled): serves /metrics
  // (Prometheus text), /statusz (shard + fleet state JSON) and /healthz
  // while the fleet runs. Best-effort — a bind failure never fails the run.
  // Ignored by local fleets, which must not run a thread while they fork.
  std::string admin_listen;
};

// The sharded fine-clustering + CSG phase's merged output, in coarse
// cluster order (identical to the in-process pipeline's output order).
struct ShardedPhasesResult {
  std::vector<std::vector<GraphId>> fine_clusters;
  std::vector<ClusterSummaryGraph> csgs;  // 1:1 with fine_clusters
  bool fine_complete = true;
  size_t degraded_csgs = 0;
};

// Runs fine clustering + CSG folding over `coarse` across member
// processes. Coarse cluster i is split under streams[i] (SplitFineStreams,
// drawn by the caller exactly as for the in-process FineCluster call); an
// empty `streams` skips fine clustering and folds each coarse cluster
// whole. With a `store` (RunCatapult's, when it checkpoints), its shard
// records from a prior run are reused and every accepted cluster is saved
// to it; without one (null) the phase reads and writes no file. `report`
// (required) receives supervision diagnostics. Every local member is
// reaped before this returns.
ShardedPhasesResult RunShardedClusterPhases(
    const GraphDatabase& db, const std::vector<std::vector<GraphId>>& coarse,
    const std::vector<RngState>& streams, const DistOptions& options,
    CheckpointStore* store, const RunContext& ctx, DistReport* report);

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_SUPERVISOR_H_
