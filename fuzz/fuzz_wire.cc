// libFuzzer target for the CTWF frame layer (src/dist/wire.h) — the bytes a
// supervisor reads from fleet members and a catapult_serve process reads
// from client sockets. Both consumers run FrameReader over chunks of untrusted
// bytes and then hand each complete payload to a typed decoder; none of it
// may ever crash, CATAPULT_CHECK, or read out of bounds — a bad peer is
// answered
// by poisoning the stream, nothing more.
//
// The first input byte steers the harness:
//   - the low bit picks the chunking discipline (one Feed vs byte-at-a-time,
//     which is what shakes out header-reassembly bugs);
//   - the rest selects which typed decoder additionally sees the raw
//     remainder directly (worker frames, every serve/protocol.h payload,
//     and the fleet handshake/assignment frames of DESIGN.md §12),
//     so one corpus covers the framing and all payload codecs.
// Every complete frame the reader yields is also dispatched to the decoder
// matching its frame type, mirroring what the real consumers do.

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/dist/wire.h"
#include "src/serve/protocol.h"

namespace {

using catapult::dist::Decode;
using catapult::dist::Frame;
using catapult::dist::FrameReader;
using catapult::dist::FrameType;

// What the supervisor / server does with a completed frame: decode the
// payload by type. Return values are irrelevant; surviving is the test.
void DispatchFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHeartbeat: {
      catapult::dist::HeartbeatFrame f;
      (void)Decode(frame.payload, &f);
      break;
    }
    case FrameType::kShardDone: {
      catapult::dist::ShardDoneFrame f;
      (void)Decode(frame.payload, &f);
      break;
    }
    case FrameType::kShardError: {
      catapult::dist::ShardErrorFrame f;
      (void)Decode(frame.payload, &f);
      break;
    }
    case FrameType::kServeRequest: {
      catapult::serve::MineRequest f;
      (void)catapult::serve::Decode(frame.payload, &f);
      break;
    }
    case FrameType::kServeResponse: {
      catapult::serve::MineReply f;
      if (catapult::serve::Decode(frame.payload, &f)) {
        catapult::serve::Panel panel;
        (void)catapult::serve::DecodePanel(f.panel, &panel);
      }
      break;
    }
    case FrameType::kServeShed: {
      catapult::serve::ShedReply f;
      (void)catapult::serve::Decode(frame.payload, &f);
      break;
    }
    case FrameType::kServeError: {
      catapult::serve::ErrorReply f;
      (void)catapult::serve::Decode(frame.payload, &f);
      break;
    }
    case FrameType::kServePing: {
      catapult::serve::PingRequest f;
      (void)catapult::serve::Decode(frame.payload, &f);
      break;
    }
    case FrameType::kServePong: {
      catapult::serve::PongReply f;
      (void)catapult::serve::Decode(frame.payload, &f);
      break;
    }
    case FrameType::kJoinRequest: {
      catapult::dist::JoinRequestFrame f;
      (void)Decode(frame.payload, &f);
      break;
    }
    case FrameType::kJoinAccept: {
      catapult::dist::JoinAcceptFrame f;
      (void)Decode(frame.payload, &f);
      break;
    }
    case FrameType::kJoinReject: {
      catapult::dist::JoinRejectFrame f;
      (void)Decode(frame.payload, &f);
      break;
    }
    case FrameType::kShardAssign: {
      catapult::dist::ShardAssignFrame f;
      (void)Decode(frame.payload, &f);
      break;
    }
    case FrameType::kClusterResult: {
      catapult::dist::ClusterResultFrame f;
      (void)Decode(frame.payload, &f);
      break;
    }
    case FrameType::kShutdown: {
      catapult::dist::ShutdownFrame f;
      (void)Decode(frame.payload, &f);
      break;
    }
  }
}

void RunReader(const char* data, size_t size, bool byte_at_a_time) {
  FrameReader reader;
  if (byte_at_a_time) {
    for (size_t i = 0; i < size; ++i) {
      reader.Feed(data + i, 1);
      // Drain after every byte: frame boundaries must be invariant to
      // chunking, and a poisoned reader must keep returning nullopt.
      while (auto frame = reader.Next()) DispatchFrame(*frame);
    }
  } else {
    reader.Feed(data, size);
    while (auto frame = reader.Next()) DispatchFrame(*frame);
  }
  if (reader.corrupt()) {
    // A poisoned stream must carry a reason and stay poisoned.
    if (reader.error().empty()) __builtin_trap();
    if (reader.Next().has_value()) __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t selector = data[0];
  const char* bytes = reinterpret_cast<const char*>(data + 1);
  const size_t n = size - 1;

  RunReader(bytes, n, (selector & 1) != 0);

  // Also aim the remainder straight at one typed payload decoder, skipping
  // the framing — reachable in production whenever a frame's CRC passes but
  // its payload is hostile.
  const std::string payload(bytes, n);
  switch ((selector >> 1) % 12) {
    case 0: {
      catapult::dist::ShardDoneFrame f;
      (void)Decode(payload, &f);
      break;
    }
    case 1: {
      catapult::dist::ShardErrorFrame f;
      (void)Decode(payload, &f);
      break;
    }
    case 2: {
      catapult::serve::MineRequest f;
      (void)catapult::serve::Decode(payload, &f);
      break;
    }
    case 3: {
      catapult::serve::MineReply f;
      (void)catapult::serve::Decode(payload, &f);
      break;
    }
    case 4: {
      catapult::serve::ShedReply f;
      (void)catapult::serve::Decode(payload, &f);
      break;
    }
    case 5: {
      catapult::serve::Panel panel;
      (void)catapult::serve::DecodePanel(payload, &panel);
      break;
    }
    case 6: {
      catapult::serve::PongReply f;
      (void)catapult::serve::Decode(payload, &f);
      break;
    }
    case 7: {
      catapult::dist::JoinRequestFrame f;
      (void)Decode(payload, &f);
      break;
    }
    case 8: {
      // The hostile-count decoder: member/cluster counts must be capped
      // against the payload size, never trusted into an allocation.
      catapult::dist::ShardAssignFrame f;
      (void)Decode(payload, &f);
      break;
    }
    case 9: {
      catapult::dist::ClusterResultFrame f;
      (void)Decode(payload, &f);
      break;
    }
    case 10: {
      catapult::dist::JoinAcceptFrame f;
      (void)Decode(payload, &f);
      break;
    }
    case 11: {
      // Request-id-carrying error reply (DESIGN.md §16); the hostile cases
      // that matter most here are the span-count and counter-index bounds
      // of the trace-carrying ShardDone/ShardAssign codecs in cases 0/8.
      catapult::serve::ErrorReply f;
      (void)catapult::serve::Decode(payload, &f);
      break;
    }
  }
  return 0;
}

#include "fuzz/standalone_main.h"
