#ifndef CATAPULT_SERVE_PROTOCOL_H_
#define CATAPULT_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/selector.h"
#include "src/persist/codec.h"
#include "src/persist/fields.h"

// Payloads of the pattern-selection service's wire protocol (DESIGN.md
// §13). Frames reuse the CRC-checked CTWF framing of src/dist/wire.h over a
// SOCK_STREAM socket. Each payload's layout is the field list next to its
// struct (src/persist/fields.h), which Encode and Decode both walk, so
// every decoder inherits the sticky-fail contract: any byte string either
// decodes fully or is rejected with `false`, never a crash or out-of-bounds
// read. A payload that fails to decode poisons the stream exactly like a
// bad frame header — the peer is dropped, never the process.

namespace catapult::serve {

using persist::Decode;
using persist::Encode;

// Bumped when an encoding changes shape. Carried in every request so a
// server can reject clients from a different build instead of mis-decoding.
// v2: trace context (trace_id, parent_span_id) in MineRequest; request ids
// in ShedReply/ErrorReply.
inline constexpr uint32_t kProtocolVersion = 2;

// Client -> server: one canned-pattern panel request. The server owns the
// database and the clustering options; a request only picks the pattern
// budget (the paper's eta_min/eta_max/gamma), an optional per-request
// deadline, and whether the keyed result cache may answer.
struct MineRequest {
  uint32_t protocol_version = kProtocolVersion;
  uint64_t eta_min = 3;
  uint64_t eta_max = 8;
  uint64_t gamma = 12;
  // Wall-clock allowance measured from admission (0 = server default,
  // capped by the server's max). On expiry the reply carries a degraded but
  // valid anytime panel instead of an error.
  double deadline_ms = 0.0;
  // Skip the result cache and recompute (bit-identity audits; the recomputed
  // panel must byte-match the cached one).
  bool bypass_cache = false;
  // Distributed-trace context (DESIGN.md §16; both 0 = untraced). The
  // server records its per-request span against this id and stamps both
  // into the structured request log, so one trace id follows a request
  // across client retries and into the server's telemetry.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

template <class Io>
void Fields(Io& io, MineRequest& m) {
  io(m.protocol_version, m.eta_min, m.eta_max, m.gamma, m.deadline_ms,
     m.bypass_cache, m.trace_id, m.parent_span_id);
}

// The deterministic panel section of a response: label names (so a client
// can render/write the panel without the database), the selected patterns,
// and the degradation verdict. Encoded once and byte-compared by the
// cached-vs-recomputed and server-vs-CLI identity tests, so it must never
// contain timing or other volatile fields.
struct Panel {
  bool degraded = false;  // deadline/memory cut selection short (anytime)
  std::vector<std::string> labels;
  std::vector<SelectedPattern> patterns;
};

// Caps on a decoded panel, far above anything a legal panel holds.
inline constexpr uint64_t kMaxPanelPatterns = 1u << 16;
inline constexpr uint64_t kMaxPanelLabels = 1u << 20;

template <class Io>
void Fields(Io& io, Panel& p) {
  io(p.degraded, p.labels, p.patterns);
  io.Require(p.labels.size() <= kMaxPanelLabels &&
             p.patterns.size() <= kMaxPanelPatterns);
}

// Server -> client: a panel reply. `panel` is the encoded Panel bytes kept
// opaque so cache hits replay the exact bytes the original computation
// produced.
struct MineReply {
  bool cache_hit = false;
  std::string panel;
};

template <class Io>
void Fields(Io& io, MineReply& m) {
  io(m.cache_hit, m.panel);
}

// Server -> client: the request was refused by admission control. The
// client should back off for `retry_after_ms` and retry; the connection
// stays healthy.
enum class ShedReason : uint32_t {
  kQueueFull = 1,       // admission queue at capacity
  kMemoryPressure = 2,  // MemoryBudget soft limit exceeded
  kDraining = 3,        // server is shutting down gracefully
  kSessionLimit = 4,    // concurrent-session cap reached
};
const char* ToString(ShedReason reason);

struct ShedReply {
  ShedReason reason = ShedReason::kQueueFull;
  double retry_after_ms = 100.0;
  uint64_t queue_depth = 0;
  // Server-assigned request id (0 = unassigned), matching the server's
  // structured request-log line so a client-side retry log and the server
  // log can be joined on one key.
  uint64_t request_id = 0;
};

template <class Io>
void Fields(Io& io, ShedReply& m) {
  io(m.reason, m.retry_after_ms, m.queue_depth, m.request_id);
  io.Require(m.reason >= ShedReason::kQueueFull &&
             m.reason <= ShedReason::kSessionLimit);
}

// Server -> client: the request was understood but invalid (e.g. a budget
// violating Definition 3.1). The connection stays healthy.
struct ErrorReply {
  std::string message;
  uint64_t request_id = 0;  // server-assigned; 0 = unassigned
};

template <class Io>
void Fields(Io& io, ErrorReply& m) {
  io(m.message, m.request_id);
}

// Liveness/status probe and its echo.
struct PingRequest {
  uint64_t nonce = 0;
};
struct PongReply {
  uint64_t nonce = 0;
  uint64_t sessions = 0;
  uint64_t queue_depth = 0;
  bool draining = false;
};

template <class Io>
void Fields(Io& io, PingRequest& m) {
  io(m.nonce);
}
template <class Io>
void Fields(Io& io, PongReply& m) {
  io(m.nonce, m.sessions, m.queue_depth, m.draining);
}

// Panel <-> bytes. EncodePanel is deterministic in its inputs; DecodePanel
// validates structure (the caps above, each pattern's graph) and rejects
// with false instead of crashing.
inline std::string EncodePanel(const Panel& panel) { return Encode(panel); }
inline bool DecodePanel(const std::string& bytes, Panel* panel) {
  return Decode(bytes, panel);
}

}  // namespace catapult::serve

#endif  // CATAPULT_SERVE_PROTOCOL_H_
