#ifndef CATAPULT_PERSIST_CHECKPOINT_H_
#define CATAPULT_PERSIST_CHECKPOINT_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/selector.h"
#include "src/csg/csg.h"
#include "src/graph/graph_database.h"
#include "src/mining/subtree_miner.h"
#include "src/persist/record_io.h"
#include "src/util/rng.h"

// Crash-safe checkpointing of the Catapult pipeline (DESIGN.md Section 8).
// Each phase's artifacts are written as versioned, checksummed record files
// (record_io.h) via the atomic temp + fsync + rename protocol, and a
// manifest — always written *after* the artifact it names — records which
// phases are durable. Recovery walks the phase chain clustering -> CSGs ->
// selection and stops at the first invalid link (the recovery ladder):
// a corrupt selection checkpoint resumes from the CSGs, corrupt CSGs resume
// from the clusters, and a corrupt manifest or clustering checkpoint cold-
// starts. Every decision is surfaced as a CheckpointEvent, never an abort.

namespace catapult {

// One checkpoint/recovery decision, surfaced in ExecutionReport and the CLI
// degradation summary.
struct CheckpointEvent {
  enum class Kind {
    kPhaseCheckpointed,    // phase artifact + manifest made durable
    kCheckpointWriteFailed,  // write error; the run continues unprotected
    kCheckpointSkipped,    // phase was partial (deadline); not made durable
    kCheckpointRejected,   // validation failed; reason in `detail`
    kResumedFromPhase,     // phase artifact restored instead of recomputed
    kColdStart,            // nothing usable; recomputing from scratch
  };

  Kind kind = Kind::kColdStart;
  std::string phase;   // "clustering", "csgs", "selection", or "manifest"
  std::string detail;  // rejection reason, write error, counts, ...
};

// Human-readable one-line rendering ("checkpoint rejected [csgs]: payload
// checksum mismatch").
std::string ToString(const CheckpointEvent& event);

// Durable state of the clustering phase: the cluster assignment, the mined
// feature subtrees, and the rng stream position at the end of the phase (so
// later phases consume the stream exactly as the original run did). Only
// fully completed phases are checkpointed — a deadline-degraded phase is
// re-run on resume rather than frozen below its potential, which keeps this
// artifact free of partial-result flags.
struct ClusteringArtifact {
  std::vector<std::vector<GraphId>> clusters;
  std::vector<FrequentSubtree> features;
  RngState rng_after;
};

// Durable state of the CSG generation phase. CSG folding consumes no
// randomness, so `rng_after` equals the clustering artifact's; it is stored
// anyway so each artifact is independently sufficient to resume from.
struct CsgArtifact {
  std::vector<ClusterSummaryGraph> csgs;
  RngState rng_after;
};

// Payload decoders behind the recovery ladder. Each parses one phase's raw
// record payload (already stripped of the record framing by record_io) and
// cross-checks it against the live run; the return value is empty on success
// and the rejection reason otherwise. They must be total: any byte string —
// including adversarial ones — yields a clean reject, never a crash or a
// CATAPULT_CHECK. The fuzz targets under fuzz/ drive them directly, which is
// why they are exposed here rather than kept file-local.
std::string DecodeClusteringPayload(const std::string& payload,
                                    const GraphDatabase& db,
                                    ClusteringArtifact* artifact);
std::string DecodeCsgPayload(const std::string& payload,
                             const std::vector<std::vector<GraphId>>& clusters,
                             CsgArtifact* artifact);
std::string DecodeSelectionPayload(
    const std::string& payload,
    const std::vector<std::vector<GraphId>>& clusters,
    const PatternBudget& budget, SelectorCheckpointState* state);

// Reads and writes the checkpoint files of one pipeline run in one
// directory, and is the only code that touches it, the sharded phase's
// records included. All writes are atomic and fsynced; all reads are
// validated (magic, version, checksum, config fingerprint) before use. A
// store is bound to the config fingerprint of its run: checkpoints written
// under a different database or configuration are rejected on read, not
// silently reused.
class CheckpointStore {
 public:
  // `directory` is created (recursively) on the first write if absent.
  CheckpointStore(std::string directory, uint64_t config_fingerprint);

  // Persist one phase's artifacts and update the manifest. Each returns an
  // empty string on success, else a descriptive error; a failed write
  // leaves any previous checkpoint of that phase intact, and the caller is
  // expected to log the error and continue the run unprotected.
  std::string SaveClustering(const ClusteringArtifact& artifact);
  std::string SaveCsgs(const CsgArtifact& artifact);
  std::string SaveSelection(const SelectorCheckpointState& state);

  // What Recover() could restore. Later phases are only present when every
  // earlier phase validated (the ladder never resumes selection on top of
  // recomputed-and-possibly-different CSGs).
  struct Recovery {
    std::optional<ClusteringArtifact> clustering;
    std::optional<CsgArtifact> csgs;
    std::optional<SelectorCheckpointState> selection;
    std::vector<CheckpointEvent> events;
  };

  // Validates the manifest and each phase checkpoint against `db` and
  // `budget`, restoring the longest valid phase chain. Phases rejected
  // (with their reason) and the resulting decision are logged in
  // Recovery::events. Also primes the store's manifest state so subsequent
  // saves retain the accepted phases and drop the rejected ones.
  Recovery Recover(const GraphDatabase& db, const PatternBudget& budget);

  // The sharded phase's per-cluster records (DESIGN.md §12): coarse cluster
  // `cluster_index`'s record is `shards/cluster-<idx>.ckpt`, of type kShard,
  // stamped with the run fingerprint and never named by the manifest. The
  // payload is the sharded phase's encoding (src/dist/worker.h); the store
  // only frames it. Each returns "" on success, else the error (a missing
  // record included); a failed load leaves `payload` empty.
  std::string SaveShard(size_t cluster_index, const std::string& payload);
  std::string LoadShard(size_t cluster_index, std::string* payload) const;

  // Checkpoint file names within the directory.
  static std::string FileNameFor(persist::RecordType type);

  const std::string& directory() const { return directory_; }

 private:
  struct ManifestEntry {
    uint32_t payload_crc = 0;
    uint64_t payload_size = 0;
  };

  std::string PathFor(persist::RecordType type) const;
  std::string ShardPath(size_t cluster_index) const;
  // Writes `payload` as the record for `type`, then rewrites the manifest
  // (artifact first, manifest last).
  std::string SavePhase(persist::RecordType type, const std::string& payload);
  std::string WriteManifest();

  std::string directory_;
  uint64_t fingerprint_;
  // Phases currently named by the manifest, keyed by record type value.
  std::map<uint32_t, ManifestEntry> entries_;
};

}  // namespace catapult

#endif  // CATAPULT_PERSIST_CHECKPOINT_H_
