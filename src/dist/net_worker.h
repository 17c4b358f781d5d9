#ifndef CATAPULT_DIST_NET_WORKER_H_
#define CATAPULT_DIST_NET_WORKER_H_

#include <cstdint>
#include <string>

#include "src/dist/wire.h"
#include "src/graph/graph_database.h"

// The member half of sharded execution (DESIGN.md §12). A member completes
// the versioned handshake (protocol + ConfigFingerprint; a typed
// kJoinReject maps to a distinct exit code), then loops: receive a
// ShardAssign carrying coarse clusters and their pre-split rng streams,
// compute each cluster through ComputeShardCluster on the assignment's
// thread count, and ship each result back as a ClusterResult frame.
//
// Two entry points share that session. RunRemoteWorker is the body of the
// standalone catapult_worker binary: it dials a supervisor endpoint and,
// on a lost or fenced connection, reconnects under capped deterministic
// backoff, presenting its previous (worker-id, generation) so the
// supervisor bumps its generation instead of minting a new member.
// RunLocalWorker is the body of a forked local member: it speaks over one
// end of a socketpair and never redials — the supervisor replaces it.

namespace catapult::dist {

// Failpoint sites driving the chaos matrices (see also the channel-level
// sites in channel.h). Tests arm them in a remote worker's process, or in
// the supervisor before a local fleet forks, which every local member then
// inherits. Except for the duplication sites, each one fires only while
// carrying a shard's first attempt (see CarryShard).
inline constexpr char kFailpointDupClusterResult[] =
    "dist.net.dup_cluster_result";
inline constexpr char kFailpointDupShardDone[] = "dist.net.dup_shard_done";
inline constexpr char kFailpointDropMidFrame[] = "dist.net.drop_mid_frame";
inline constexpr char kFailpointDelayHeartbeat[] = "dist.net.delay_heartbeat";
inline constexpr char kFailpointStallBeforeResult[] =
    "dist.net.stall_before_result";
inline constexpr char kFailpointKillAfterFirstResult[] =
    "dist.net.kill_after_first_result";

// Member exit codes (0 = the supervisor ended the session in order).
inline constexpr int kWorkerExitConnectFailed = 20;  // supervisor unreachable
inline constexpr int kWorkerExitRejected = 21;       // typed kJoinReject
// A malformed supervisor, or one that hangs up on the JoinRequest.
inline constexpr int kWorkerExitProtocol = 22;

struct RemoteWorkerOptions {
  std::string address;  // supervisor endpoint: "unix:PATH" / "tcp:HOST:PORT"
  uint64_t fingerprint = 0;  // ConfigFingerprint of this worker's (opts, db)
  std::string worker_name = "worker";
  // Overridable for skew tests; production workers never change this.
  uint64_t protocol = kDistProtocolVersion;

  double dial_timeout_ms = 2000.0;
  // Reconnect pacing: capped deterministic backoff over the consecutive-
  // failure count (src/util/backoff.h), reset on every successful join.
  double dial_backoff_base_ms = 50.0;
  double dial_backoff_cap_ms = 1000.0;
  // Consecutive dial/handshake failures tolerated before giving up.
  size_t max_dial_attempts = 5;

  // How long kFailpointStallBeforeResult sleeps (tests tune this against
  // the supervisor's heartbeat timeout to manufacture a zombie; 0 = 2.5x
  // the heartbeat timeout the supervisor announced).
  double stall_test_ms = 0.0;

  // Optional worker-local telemetry capture (both non-owning, may be null),
  // backing the worker binary's --metrics-out/--trace-out: every carried
  // shard's metrics deltas merge into `accumulate`, and its span buffer is
  // also imported into `local_tracer` (one process track per shard), so a
  // fleet run without the admin endpoint still leaves per-process
  // artifacts. Touched only from the worker's session thread.
  obs::MetricsSnapshot* accumulate = nullptr;
  obs::Tracer* local_tracer = nullptr;
};

// Runs the remote worker until the supervisor says the run is over
// (Shutdown kDone/kCancelled → 0, also as the answer to the JoinRequest),
// the handshake is refused (21) or hung up on (22), or the reconnect budget
// is exhausted (20). Returns the process exit code.
int RunRemoteWorker(const GraphDatabase& db,
                    const RemoteWorkerOptions& options);

// Runs one session over `fd`, an already-connected stream socket it takes
// ownership of (`options.address` and the dial knobs are unused). Returns
// the process exit code: 0 on an orderly shutdown, kWorkerExitConnectFailed
// when the connection was lost or fenced.
int RunLocalWorker(const GraphDatabase& db,
                   const RemoteWorkerOptions& options, int fd);

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_NET_WORKER_H_
