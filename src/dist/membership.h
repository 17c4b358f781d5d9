#ifndef CATAPULT_DIST_MEMBERSHIP_H_
#define CATAPULT_DIST_MEMBERSHIP_H_

#include <optional>
#include <vector>

#include "src/dist/dist_report.h"
#include "src/dist/shard_plan.h"
#include "src/dist/supervisor.h"
#include "src/dist/worker.h"
#include "src/obs/trace.h"
#include "src/util/deadline.h"

// The fleet membership loop (DESIGN.md §12): the supervisor's one event
// loop for sharded execution. Members are either forked locally over a
// socketpair (no listen endpoint) or separate catapult_worker processes
// dialing in over sockets; both speak the same handshake and frames.
// Liveness is tracked purely in-band — heartbeat deadlines and write-stall
// timeouts on the connection — so a SIGKILLed member, a severed cable and
// a wedged peer all look the same from here and are all handled the same
// way: fence the generation, reassign the shard's still-missing clusters
// to a survivor, count the zombie's late frames without applying them.
// A fenced local member is also SIGKILLed and reaped, and replaced while
// work is pending.

namespace catapult::dist {

// The sharded phase's inputs as the loop hands them to members. Pointers
// reference supervisor-owned state.
struct ShardExecutionSpec {
  const GraphDatabase* db = nullptr;
  // The coarse partition, indexed by the cluster indices in the shard plan.
  const std::vector<std::vector<GraphId>>* coarse = nullptr;
  // Pre-split fine-clustering streams, index-aligned with `coarse` (empty
  // when fine clustering is disabled for the run).
  const std::vector<RngState>* streams = nullptr;
  // The run's checkpoint store, or null: accepted results then live only in
  // memory.
  CheckpointStore* store = nullptr;
  // Distributed-trace id of the supervising run (0 = untraced). A member
  // given a non-zero id records per-cluster spans and ships them, with the
  // id echoed, in its ShardDone frame.
  uint64_t trace_id = 0;
};

struct FleetOutcome {
  // True when the fleet disappeared (or never materialised) with work
  // still pending: the remaining shards must finish via the supervisor's
  // in-process fallback.
  bool fleet_lost = false;
  // Per-shard span buffers shipped by members (index-aligned with
  // plan.shards; empty for shards with no accepted traced completion).
  // Only the first accepted ShardDone whose trace-id echo matches
  // spec.trace_id populates a slot — duplicate or fenced deliveries are
  // dropped (obs.spans_dropped), which is what keeps the merged trace
  // idempotent under retries.
  std::vector<std::vector<obs::SpanRecord>> shard_spans;
};

// Runs the membership/assignment loop over `plan` under the run's
// `options` (fleet, supervision and fine-clustering fields; members must
// present `fingerprint` to join), filling (*cluster_results)[idx] for
// every cluster a member completes: its payload is decoded against the
// cluster it was assigned for (with a store, after being saved as the
// cluster's kShard record and read back). Already filled entries are
// respected and never reassigned. The fleet is remote when the caller set
// `report->remote`. Returns when every non-quarantined shard is done, the
// fleet is lost, or the run's context requests a stop, with every local
// member reaped; unfinished clusters are simply left empty for the
// caller's fallback rungs.
FleetOutcome RunFleet(
    const ShardExecutionSpec& spec, const ShardPlan& plan,
    const CatapultOptions& options, uint64_t fingerprint,
    const RunContext& ctx, DistReport* report,
    std::vector<std::optional<ShardClusterResult>>* cluster_results);

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_MEMBERSHIP_H_
