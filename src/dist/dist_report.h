#ifndef CATAPULT_DIST_DIST_REPORT_H_
#define CATAPULT_DIST_DIST_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

// Supervision diagnostics for sharded multi-process execution (DESIGN.md
// §12). Std-only includes: this header is embedded in ExecutionReport
// (src/core/catapult.h) and must not pull the dist machinery with it.

namespace catapult::dist {

// One supervision event, in the order the supervisor observed it.
struct ShardEvent {
  enum class Kind {
    kWorkerSpawned,      // local member forked; detail = "pid=..."
    kWorkerDied,         // fenced local member reaped; detail = wait status
    kWorkerHung,         // heartbeat deadline missed; member fenced
    kShardRetried,       // shard requeued after a failure
    kBackoffWait,        // retry delayed; detail = "delay_ms=..."
    kShardQuarantined,   // failure budget exhausted
    kInProcessFallback,  // unfinished shard executed in the supervisor
    kShardCompleted,     // shard results merged
    kArtifactReused,     // cluster restored from a durable shard artifact
    kArtifactRejected,   // shard artifact failed validation; recomputed
    kFallbackSaveFailed,  // fallback result kept but not saved; store error
    // Fleet membership.
    kWorkerJoined,       // handshake admitted a fresh member
    kWorkerRejected,     // handshake refused; detail = typed reason
    kWorkerReconnected,  // known identity rejoined at a bumped generation
    kWorkerFenced,       // member declared dead; old generation retired
    kShardAssigned,      // shard's missing clusters sent to a member
    kFleetLost,          // no members left; remaining shards fall back
  };

  Kind kind = Kind::kWorkerSpawned;
  size_t shard = 0;
  std::string detail;
};

const char* ToString(ShardEvent::Kind kind);
std::string ToString(const ShardEvent& event);

// Aggregated supervision report for one run. All counts are zero (and
// `enabled` false) for in-process runs.
struct DistReport {
  bool enabled = false;
  size_t processes = 0;  // requested worker process count
  size_t shards = 0;     // planned shards (<= processes)

  size_t workers_spawned = 0;  // local members forked
  size_t worker_deaths = 0;  // active members fenced (any in-band cause)
  size_t worker_hangs = 0;   // heartbeat deadline misses (member fenced)
  size_t shard_retries = 0;
  size_t backoff_waits = 0;
  double backoff_total_ms = 0.0;
  size_t quarantined_shards = 0;
  size_t inprocess_fallbacks = 0;
  size_t artifacts_reused = 0;
  size_t artifacts_rejected = 0;
  size_t fallback_save_failures = 0;  // fallback results not made durable
  size_t heartbeats = 0;

  // Membership. `remote` and `listen_address` describe a dialing fleet;
  // the counters cover local members too.
  bool remote = false;
  std::string listen_address;     // resolved listener endpoint
  size_t workers_joined = 0;      // admissions (fresh joins + reconnects)
  size_t workers_rejected = 0;    // typed handshake refusals
  size_t reconnects = 0;          // rejoins of a fenced identity
  size_t fenced_frames = 0;       // stale-generation frames discarded
  size_t duplicate_clusters = 0;  // re-delivered results ignored
  size_t write_stalls = 0;        // sends that hit the stall deadline
  size_t remote_clusters = 0;     // cluster results accepted from members
  size_t fleet_lost_fallbacks = 0;  // shards abandoned to fallback on loss
  // True when the remote fleet was lost entirely and the run completed
  // only via the in-process fallback — degraded-but-correct; surfaced as
  // a distinct CLI exit code.
  bool remote_fallback_only = false;

  std::vector<ShardEvent> events;
};

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_DIST_REPORT_H_
