#include "src/dist/dist_report.h"

namespace catapult::dist {

const char* ToString(ShardEvent::Kind kind) {
  switch (kind) {
    case ShardEvent::Kind::kWorkerSpawned:
      return "worker_spawned";
    case ShardEvent::Kind::kWorkerDied:
      return "worker_died";
    case ShardEvent::Kind::kWorkerHung:
      return "worker_hung";
    case ShardEvent::Kind::kShardRetried:
      return "shard_retried";
    case ShardEvent::Kind::kBackoffWait:
      return "backoff_wait";
    case ShardEvent::Kind::kShardQuarantined:
      return "shard_quarantined";
    case ShardEvent::Kind::kInProcessFallback:
      return "inprocess_fallback";
    case ShardEvent::Kind::kShardCompleted:
      return "shard_completed";
    case ShardEvent::Kind::kArtifactReused:
      return "artifact_reused";
    case ShardEvent::Kind::kArtifactRejected:
      return "artifact_rejected";
    case ShardEvent::Kind::kFallbackSaveFailed:
      return "fallback_save_failed";
    case ShardEvent::Kind::kWorkerJoined:
      return "worker_joined";
    case ShardEvent::Kind::kWorkerRejected:
      return "worker_rejected";
    case ShardEvent::Kind::kWorkerReconnected:
      return "worker_reconnected";
    case ShardEvent::Kind::kWorkerFenced:
      return "worker_fenced";
    case ShardEvent::Kind::kShardAssigned:
      return "shard_assigned";
    case ShardEvent::Kind::kFleetLost:
      return "fleet_lost";
  }
  return "unknown";
}

std::string ToString(const ShardEvent& event) {
  std::string out = ToString(event.kind);
  out += " shard=" + std::to_string(event.shard);
  if (!event.detail.empty()) {
    out += " (" + event.detail + ")";
  }
  return out;
}

}  // namespace catapult::dist
