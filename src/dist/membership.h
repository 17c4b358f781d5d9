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

struct FleetOutcome {
  // True when the fleet disappeared (or never materialised) with work
  // still pending: the remaining shards must finish via the supervisor's
  // in-process fallback.
  bool fleet_lost = false;
  // Clusters completed from members' results.
  size_t remote_clusters = 0;
  // Per-shard span buffers shipped by members (index-aligned with
  // plan.shards; empty for shards with no accepted traced completion).
  // Only the first accepted ShardDone whose trace-id echo matches
  // spec.trace_id populates a slot — duplicate or fenced deliveries are
  // dropped (obs.spans_dropped), which is what keeps the merged trace
  // idempotent under retries.
  std::vector<std::vector<obs::SpanRecord>> shard_spans;
};

// Runs the membership/assignment loop over `plan`, filling
// (*cluster_results)[idx] for every cluster a member completes (persisted
// as a kShard artifact, then re-validated through the same loader). Already
// filled entries are respected and never reassigned. Returns when every
// non-quarantined shard is done, the fleet is lost, or the run's context
// requests a stop, with every local member reaped; unfinished clusters are
// simply left empty for the caller's fallback rungs.
FleetOutcome RunFleet(
    const ShardExecutionSpec& spec, const ShardPlan& plan,
    const DistOptions& options, const RunContext& ctx, DistReport* report,
    std::vector<std::optional<ShardClusterResult>>* cluster_results);

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_MEMBERSHIP_H_
