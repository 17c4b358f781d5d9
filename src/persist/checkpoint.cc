#include "src/persist/checkpoint.h"

#include <cmath>
#include <filesystem>

#include "src/cluster/pipeline.h"
#include "src/persist/record_io.h"

namespace catapult {

using persist::BinaryReader;
using persist::BinaryWriter;
using persist::RecordType;

// --- payload decoding with semantic validation ----------------------------
//
// Each returns an empty string on success, else the rejection reason. The
// structural decode (the payload's field list: bounds, ranges, a live rng
// stream) and the semantic cross-checks against the live database/budget
// are both just "reasons" to recovery: either way the checkpoint is rejected
// and the ladder steps down. Public (declared in checkpoint.h) so the fuzz
// targets can drive them with arbitrary payloads.

namespace {
constexpr char kCorruptPayload[] = "corrupt or truncated payload";
}  // namespace

std::string DecodeClusteringPayload(const std::string& payload,
                                    const GraphDatabase& db,
                                    ClusteringArtifact* artifact) {
  if (!persist::Decode(payload, artifact)) return kCorruptPayload;
  for (const FrequentSubtree& feature : artifact->features) {
    if (feature.support.size() != db.size()) {
      return "feature support universe does not match database";
    }
  }
  if (!ValidateClusterAssignment(artifact->clusters, db.size())) {
    return "cluster assignment is not a valid partition of the database";
  }
  return std::string();
}

std::string DecodeCsgPayload(const std::string& payload,
                             const std::vector<std::vector<GraphId>>& clusters,
                             CsgArtifact* artifact) {
  if (!persist::Decode(payload, artifact)) return kCorruptPayload;
  if (artifact->csgs.size() != clusters.size()) {
    return "CSG count does not match cluster count";
  }
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (artifact->csgs[i].cluster_size() != clusters[i].size()) {
      return "CSG member count does not match its cluster";
    }
  }
  return std::string();
}

std::string DecodeSelectionPayload(
    const std::string& payload,
    const std::vector<std::vector<GraphId>>& clusters,
    const PatternBudget& budget, SelectorCheckpointState* state) {
  if (!persist::Decode(payload, state)) return kCorruptPayload;
  if (state->selected_per_size.size() != budget.NumSizes()) {
    return "per-size tally does not match the pattern budget";
  }
  if (state->cluster_weights.size() != clusters.size()) {
    return "cluster weight count does not match cluster count";
  }
  if (state->patterns.size() > budget.gamma) {
    return "more patterns than the budget allows";
  }
  size_t tallied = 0;
  for (size_t n : state->selected_per_size) tallied += n;
  if (tallied != state->patterns.size()) {
    return "per-size tally does not match the pattern count";
  }
  for (const SelectedPattern& p : state->patterns) {
    size_t size = p.graph.NumEdges();
    if (size < budget.eta_min || size > budget.eta_max) {
      return "pattern size outside the budget range";
    }
  }
  for (double w : state->cluster_weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) return "invalid cluster weight";
  }
  for (const auto& [key, weight] : state->edge_label_weights) {
    if (!(weight >= 0.0) || !std::isfinite(weight)) {
      return "invalid edge label weight";
    }
  }
  return std::string();
}

std::string ToString(const CheckpointEvent& event) {
  const char* kind = "";
  switch (event.kind) {
    case CheckpointEvent::Kind::kPhaseCheckpointed:
      kind = "phase checkpointed";
      break;
    case CheckpointEvent::Kind::kCheckpointWriteFailed:
      kind = "checkpoint write failed";
      break;
    case CheckpointEvent::Kind::kCheckpointSkipped:
      kind = "checkpoint skipped";
      break;
    case CheckpointEvent::Kind::kCheckpointRejected:
      kind = "checkpoint rejected";
      break;
    case CheckpointEvent::Kind::kResumedFromPhase:
      kind = "resumed from checkpoint";
      break;
    case CheckpointEvent::Kind::kColdStart:
      kind = "cold start";
      break;
  }
  std::string text = kind;
  if (!event.phase.empty()) text += " [" + event.phase + "]";
  if (!event.detail.empty()) text += ": " + event.detail;
  return text;
}

CheckpointStore::CheckpointStore(std::string directory,
                                 uint64_t config_fingerprint)
    : directory_(std::move(directory)), fingerprint_(config_fingerprint) {}

std::string CheckpointStore::FileNameFor(RecordType type) {
  switch (type) {
    case RecordType::kManifest:
      return "MANIFEST";
    case RecordType::kClustering:
      return "clustering.ckpt";
    case RecordType::kCsgs:
      return "csgs.ckpt";
    case RecordType::kSelection:
      return "selection.ckpt";
    case RecordType::kShard:
      // Shard records are per-cluster files under shards/ (ShardPath), not
      // singletons of the run directory; this name is never used for them.
      return "shard.ckpt";
  }
  return "unknown.ckpt";
}

std::string CheckpointStore::PathFor(RecordType type) const {
  return directory_ + "/" + FileNameFor(type);
}

std::string CheckpointStore::ShardPath(size_t cluster_index) const {
  return directory_ + "/shards/cluster-" + std::to_string(cluster_index) +
         ".ckpt";
}

std::string CheckpointStore::SaveShard(size_t cluster_index,
                                       const std::string& payload) {
  const std::string shard_dir = directory_ + "/shards";
  std::error_code ec;
  std::filesystem::create_directories(shard_dir, ec);
  if (ec) return "cannot create " + shard_dir + ": " + ec.message();
  return persist::WriteRecordFile(ShardPath(cluster_index), RecordType::kShard,
                                  fingerprint_, payload);
}

std::string CheckpointStore::LoadShard(size_t cluster_index,
                                       std::string* payload) const {
  return persist::ReadRecordFile(ShardPath(cluster_index), RecordType::kShard,
                                 fingerprint_, payload);
}

std::string CheckpointStore::WriteManifest() {
  BinaryWriter out;
  out.PutU32(static_cast<uint32_t>(entries_.size()));
  for (const auto& [type, entry] : entries_) {
    out.PutU32(type);
    out.PutU32(entry.payload_crc);
    out.PutU64(entry.payload_size);
  }
  return persist::WriteRecordFile(PathFor(RecordType::kManifest),
                                  RecordType::kManifest, fingerprint_,
                                  out.buffer());
}

std::string CheckpointStore::SavePhase(RecordType type,
                                       const std::string& payload) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) return "cannot create " + directory_ + ": " + ec.message();
  uint32_t crc = 0;
  std::string error =
      persist::WriteRecordFile(PathFor(type), type, fingerprint_, payload,
                               &crc);
  if (!error.empty()) return error;
  // Manifest last: a crash between the two writes loses only this phase.
  entries_[static_cast<uint32_t>(type)] = {crc, payload.size()};
  return WriteManifest();
}

std::string CheckpointStore::SaveClustering(
    const ClusteringArtifact& artifact) {
  return SavePhase(RecordType::kClustering, persist::Encode(artifact));
}

std::string CheckpointStore::SaveCsgs(const CsgArtifact& artifact) {
  return SavePhase(RecordType::kCsgs, persist::Encode(artifact));
}

std::string CheckpointStore::SaveSelection(
    const SelectorCheckpointState& state) {
  return SavePhase(RecordType::kSelection, persist::Encode(state));
}

CheckpointStore::Recovery CheckpointStore::Recover(
    const GraphDatabase& db, const PatternBudget& budget) {
  Recovery recovery;
  entries_.clear();

  auto Reject = [&](const std::string& phase, const std::string& reason) {
    recovery.events.push_back({CheckpointEvent::Kind::kCheckpointRejected,
                               phase, reason});
  };

  // 1. The manifest gates everything: no valid manifest, no recovery.
  std::string manifest_payload;
  std::string error =
      persist::ReadRecordFile(PathFor(RecordType::kManifest),
                              RecordType::kManifest, fingerprint_,
                              &manifest_payload);
  std::map<uint32_t, ManifestEntry> manifest;
  if (error.empty()) {
    BinaryReader in(manifest_payload);
    uint32_t count = in.GetU32();
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t type = in.GetU32();
      ManifestEntry entry;
      entry.payload_crc = in.GetU32();
      entry.payload_size = in.GetU64();
      manifest[type] = entry;
    }
    if (!in.ok() || !in.AtEnd()) {
      error = "corrupt manifest payload";
      manifest.clear();
    }
  }
  if (!error.empty()) {
    Reject("manifest", error);
    recovery.events.push_back({CheckpointEvent::Kind::kColdStart, "",
                               "no usable manifest"});
    return recovery;
  }

  // 2. Walk the phase chain; the first invalid link ends the ladder, and
  // everything beyond it is discarded (later phases were computed on top of
  // the earlier ones, so they cannot outlive them).
  auto LoadPhase = [&](RecordType type, std::string* payload) -> std::string {
    auto it = manifest.find(static_cast<uint32_t>(type));
    if (it == manifest.end()) return "not recorded in manifest";
    uint32_t crc = 0;
    std::string read_error = persist::ReadRecordFile(
        PathFor(type), type, fingerprint_, payload, &crc);
    if (!read_error.empty()) return read_error;
    if (crc != it->second.payload_crc ||
        payload->size() != it->second.payload_size) {
      return "artifact does not match the manifest (stale file?)";
    }
    return std::string();
  };

  std::string payload;
  error = LoadPhase(RecordType::kClustering, &payload);
  if (error.empty()) {
    ClusteringArtifact artifact;
    error = DecodeClusteringPayload(payload, db, &artifact);
    if (error.empty()) recovery.clustering = std::move(artifact);
  }
  if (!error.empty()) {
    if (error != "not recorded in manifest") Reject("clustering", error);
    recovery.events.push_back({CheckpointEvent::Kind::kColdStart, "",
                               "no usable clustering checkpoint"});
    return recovery;
  }
  entries_[static_cast<uint32_t>(RecordType::kClustering)] =
      manifest[static_cast<uint32_t>(RecordType::kClustering)];

  error = LoadPhase(RecordType::kCsgs, &payload);
  if (error.empty()) {
    CsgArtifact artifact;
    error = DecodeCsgPayload(payload, recovery.clustering->clusters,
                             &artifact);
    if (error.empty()) recovery.csgs = std::move(artifact);
  }
  if (!error.empty()) {
    if (error != "not recorded in manifest") Reject("csgs", error);
    return recovery;  // resume from clusters
  }
  entries_[static_cast<uint32_t>(RecordType::kCsgs)] =
      manifest[static_cast<uint32_t>(RecordType::kCsgs)];

  error = LoadPhase(RecordType::kSelection, &payload);
  if (error.empty()) {
    SelectorCheckpointState state;
    error = DecodeSelectionPayload(payload, recovery.clustering->clusters,
                                   budget, &state);
    if (error.empty()) recovery.selection = std::move(state);
  }
  if (!error.empty()) {
    if (error != "not recorded in manifest") Reject("selection", error);
    return recovery;  // resume from CSGs
  }
  entries_[static_cast<uint32_t>(RecordType::kSelection)] =
      manifest[static_cast<uint32_t>(RecordType::kSelection)];
  return recovery;
}

}  // namespace catapult
