#ifndef CATAPULT_DIST_WIRE_H_
#define CATAPULT_DIST_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/persist/fields.h"
#include "src/util/rng.h"

// Length-prefixed CRC-framed messages, shared by the shard fleet's member
// connections (DESIGN.md §12) and the pattern-selection service's
// client/server sockets (DESIGN.md §13). A frame is
//
//   offset  size  field
//        0     4  magic "CTWF" (little-endian u32 0x46575443)
//        4     4  frame type (FrameType)
//        8     4  payload size in bytes
//       12     4  CRC32 of the payload (persist::Crc32, same polynomial as
//                 the checkpoint records)
//       16     -  payload
//
// The reader is incremental (sockets deliver arbitrary byte chunks) and
// treats any malformed header or checksum mismatch as a poisoned stream:
// framing is lost, so the receiver drops the peer — the supervisor fences
// the member and retries the shard, the server disconnects the client —
// rather than attempting resynchronisation. A frame truncated
// by a peer death simply stays incomplete in the buffer — that is not
// corruption, just a dead peer.
//
// Each frame's payload layout is the field list next to its struct below
// (src/persist/fields.h): Encode and Decode walk that one list, so a layout
// is stated once. Decode is total — any byte string decodes whole or is
// rejected with false, never a crash or an out-of-bounds read — and a
// payload that fails to decode poisons the stream like a bad header.

namespace catapult::dist {

inline constexpr uint32_t kFrameMagic = 0x46575443u;  // "CTWF"
// Frames are tiny (heartbeats, per-cluster completions, one counter
// array); a larger size field is corruption, not data.
inline constexpr uint32_t kMaxFramePayload = 4u << 20;

// Values 1 and 3 belonged to the retired fork-and-pipe worker protocol
// (hello, cluster-done); they stay reserved and the reader rejects them.
enum class FrameType : uint32_t {
  kHeartbeat = 2,   // liveness (empty payload)
  kShardDone = 4,   // all clusters shipped + the worker's counter deltas
  kShardError = 5,  // structured failure report (degraded shard)
  // Pattern-selection service (src/serve/, payloads in serve/protocol.h).
  kServeRequest = 6,   // client -> server: panel request for a budget
  kServeResponse = 7,  // server -> client: panel (complete or degraded)
  kServeShed = 8,      // server -> client: admission refused, retry later
  kServeError = 9,     // server -> client: request rejected (bad options)
  kServePing = 10,     // client -> server: liveness/status probe
  kServePong = 11,     // server -> client: probe reply
  // Fleet membership (DESIGN.md §12): every member, forked or dialing in,
  // speaks these in addition to the worker frames above.
  kJoinRequest = 12,    // worker -> sup: versioned handshake
  kJoinAccept = 13,     // sup -> worker: admitted (worker-id, generation)
  kJoinReject = 14,     // sup -> worker: typed refusal, then hangup
  kShardAssign = 15,    // sup -> worker: shard of clusters + rng streams
  kClusterResult = 16,  // worker -> sup: one cluster's encoded artifact
  kShutdown = 17,       // sup -> worker: session over (done/fenced/cancel)
};

// Version of the supervisor<->remote-worker protocol. Bumped on any frame
// layout change; the handshake rejects mismatched peers with a typed
// kJoinReject instead of letting two skewed builds mis-decode each other.
// v2: trace context in kShardAssign, span buffers + trace echo in
// kShardDone. v3: worker thread count in kShardAssign. v4: the fields no
// receiver read are gone — the shard namespace and pid of kJoinRequest,
// kHeartbeat's whole payload, kShardDone's cluster count, kShardError's
// shard and kShardAssign's parent span id. Stating the layouts as field
// lists changed no byte, so the version stayed 4.
inline constexpr uint64_t kDistProtocolVersion = 4;

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
};

// One encoded frame (header + payload), ready for a single write().
std::string EncodeFrame(FrameType type, const std::string& payload);

// Incremental frame decoder over a byte stream.
class FrameReader {
 public:
  void Feed(const char* data, size_t size);

  // The next complete frame, or nullopt when the buffer holds none (or the
  // stream is poisoned). Never blocks.
  std::optional<Frame> Next();

  // True once a malformed header or checksum mismatch was seen; the stream
  // cannot be re-synchronised and the peer should be treated as failed.
  bool corrupt() const { return corrupt_; }
  const std::string& error() const { return error_; }

  // Externally poisons the stream (a frame whose CRC passed but whose
  // payload failed to decode — same verdict as header corruption).
  void Poison(const std::string& why) {
    corrupt_ = true;
    error_ = why;
  }

 private:
  std::string buffer_;
  size_t offset_ = 0;
  bool corrupt_ = false;
  std::string error_;
};

// --- frame payloads ---------------------------------------------------------

using persist::Decode;
using persist::Encode;

// Liveness only: any frame from a live generation resets the member's
// deadline, so the payload is empty (a non-empty one poisons the stream).
struct HeartbeatFrame {};

template <class Io>
void Fields(Io&, HeartbeatFrame&) {}

struct ShardDoneFrame {
  uint64_t shard = 0;
  // The worker's obs counter deltas, merged into the supervisor's registry
  // so a sharded run's metrics cover the work wherever it ran.
  std::vector<uint64_t> counters;  // size obs::kNumCounters
  // Echo of the assignment's trace id (0 when the assignment carried none):
  // the supervisor imports `spans` only when the echo matches its own
  // trace, so buffers from a stale run are dropped, not mis-merged.
  uint64_t trace_id = 0;
  // The worker's span buffer for this shard, timestamps normalized to the
  // batch's earliest open (Tracer::DrainSpans).
  std::vector<obs::SpanRecord> spans;
};

template <class Io>
void Fields(Io& io, ShardDoneFrame& f) {
  io(f.shard, f.counters, f.trace_id, f.spans);
  io.Require(f.counters.size() <= obs::kNumCounters);
}

// Sent on the connection carrying the degraded shard, which names it.
struct ShardErrorFrame {
  std::string message;
};

template <class Io>
void Fields(Io& io, ShardErrorFrame& f) {
  io(f.message);
}

// --- remote-worker handshake and shard-carrying payloads --------------------

// The version leads the payload in every protocol version and the rest is
// that version's own layout, so a peer of another version decodes to its
// version alone and is still told why it is refused (kProtocolMismatch).
struct JoinRequestFrame {
  uint64_t protocol = kDistProtocolVersion;
  uint64_t fingerprint = 0;  // ConfigFingerprint of the worker's (options, db)
  std::string worker_name;   // free-form operator label, logs only
  // Rejoin identity: non-zero after a connection loss so the supervisor can
  // bump the worker's generation instead of minting a new member. Zero on a
  // fresh join.
  uint64_t prev_worker_id = 0;
  uint64_t prev_generation = 0;
};

template <class Io>
void Fields(Io& io, JoinRequestFrame& f) {
  io(f.protocol);
  // Another version's layout: only its version is ours to read.
  io.StopIf(f.protocol != kDistProtocolVersion);
  io(f.fingerprint, f.worker_name, f.prev_worker_id, f.prev_generation);
}

struct JoinAcceptFrame {
  uint64_t worker_id = 0;
  uint64_t generation = 0;
  double heartbeat_interval_ms = 500.0;
  double heartbeat_timeout_ms = 2000.0;
};

template <class Io>
void Fields(Io& io, JoinAcceptFrame& f) {
  io(f.worker_id, f.generation, f.heartbeat_interval_ms,
     f.heartbeat_timeout_ms);
}

// Why a handshake was refused. The worker maps these to a distinct exit
// code so operators see "wrong build" vs "wrong database" at a glance.
// Values 3 and 4 (the retired namespace mismatch and draining refusals)
// stay reserved.
enum class JoinRejectCode : uint32_t {
  kProtocolMismatch = 1,
  kFingerprintMismatch = 2,
};

struct JoinRejectFrame {
  uint32_t code = 0;  // JoinRejectCode
  std::string message;
};

template <class Io>
void Fields(Io& io, JoinRejectFrame& f) {
  io(f.code, f.message);
}

// One coarse cluster's work order: its member list and the pre-split rng
// stream its fine clustering must consume (zeros when fine is disabled).
struct ClusterWork {
  uint64_t index = 0;
  std::vector<GraphId> members;
  RngState stream;
};

template <class Io>
void Fields(Io& io, ClusterWork& w) {
  io(w.index, w.members, w.stream);
}

struct ShardAssignFrame {
  uint64_t shard = 0;
  uint64_t attempt = 0;
  uint64_t generation = 0;  // fencing echo: results must carry it back
  bool fine_enabled = true;
  uint64_t fine_max_cluster_size = 0;
  bool mcs_connected = true;
  bool mcs_match_edge_labels = false;
  uint64_t mcs_node_budget = 0;
  double deadline_remaining_ms = 0.0;  // 0 = no deadline
  uint64_t mem_soft_limit_bytes = 0;
  uint64_t mem_hard_limit_bytes = 0;
  std::vector<ClusterWork> clusters;  // only the still-missing clusters
  // Distributed-trace context: workers record spans against this id and
  // echo it back with their buffers in kShardDone (0 when the supervisor
  // run is untraced). The supervisor parents the shipped spans itself.
  uint64_t trace_id = 0;
  // Threads the member computes this shard's clusters on (the supervisor's
  // resolved --threads; 0 is treated as 1).
  uint64_t threads = 1;
};

template <class Io>
void Fields(Io& io, ShardAssignFrame& f) {
  io(f.shard, f.attempt, f.generation, f.fine_enabled,
     f.fine_max_cluster_size, f.mcs_connected, f.mcs_match_edge_labels,
     f.mcs_node_budget, f.deadline_remaining_ms, f.mem_soft_limit_bytes,
     f.mem_hard_limit_bytes, f.clusters, f.trace_id, f.threads);
  // A fine-enabled assignment must carry a usable stream for every
  // cluster: the all-zero state is xoshiro's absorbing fixed point.
  for (const ClusterWork& work : f.clusters) {
    io.Require(!f.fine_enabled || work.stream.Valid());
  }
}

struct ClusterResultFrame {
  uint64_t shard = 0;
  uint64_t generation = 0;  // fenced generations are counted, never applied
  uint64_t cluster_index = 0;
  // EncodeShardResultPayload bytes (src/dist/worker.h); the supervisor
  // decodes them against the assigned cluster, and a run with a checkpoint
  // store also saves them as the cluster's kShard record.
  std::string payload;
};

template <class Io>
void Fields(Io& io, ClusterResultFrame& f) {
  io(f.shard, f.generation, f.cluster_index, f.payload);
}

enum class ShutdownCode : uint32_t {
  kDone = 1,       // run complete; exit cleanly
  kFenced = 2,     // this connection was declared dead; reconnect + rejoin
  kCancelled = 3,  // run cancelled; exit cleanly
};

struct ShutdownFrame {
  uint32_t code = 0;  // ShutdownCode
  std::string message;
};

template <class Io>
void Fields(Io& io, ShutdownFrame& f) {
  io(f.code, f.message);
}

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_WIRE_H_
