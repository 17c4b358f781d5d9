#ifndef CATAPULT_SERVE_CLIENT_H_
#define CATAPULT_SERVE_CLIENT_H_

#include <memory>
#include <string>

#include "src/dist/channel.h"
#include "src/dist/wire.h"
#include "src/serve/protocol.h"

// Blocking client for the pattern-selection service (DESIGN.md §13): one
// Unix-domain connection, one request/reply exchange at a time, over the
// fleet's transport (a dist::Channel from dist::Dial, so sends carry the
// Channel's write-stall deadline and replies arrive through the members'
// WaitFrame). Used by the catapult_client binary and as the chaos harness
// of tests/serve_test.cc — SendRawBytes/ReadFrame exist so tests can speak
// malformed protocol on purpose (torn frames, bad checksums, silence).

namespace catapult::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  // Connects to the server socket. Returns an empty string on success, else
  // the reason ("connect: No such file or directory", ...).
  std::string Connect(const std::string& socket_path);

  bool connected() const { return fd() >= 0; }
  void Close();
  int fd() const { return channel_ ? channel_->fd() : -1; }

  // Every way one Mine exchange can end.
  struct MineOutcome {
    enum class Kind {
      kPanel,      // a panel reply (complete or degraded); `reply`/`panel` set
      kShed,       // admission refused; `shed` set
      kError,      // request rejected; `error` holds the server's message
      kTransport,  // connection-level failure; `error` holds the reason
    };
    Kind kind = Kind::kTransport;
    MineReply reply;
    Panel panel;
    ShedReply shed;
    std::string error;
    // Server-assigned request id from a shed/error reply (0 when the server
    // never assigned one, e.g. transport failures or panel replies). Joins
    // client-side retry logs with the server's structured request log.
    uint64_t request_id = 0;
  };

  // One request/reply exchange. `timeout_ms` bounds the wait for the reply
  // (0 = wait forever).
  MineOutcome Mine(const MineRequest& request, double timeout_ms = 30000.0);

  // As Mine, but a shed reply is retried after its retry_after_ms hint, up
  // to `max_attempts` total attempts (the last shed is then returned). When
  // `retry_log` is non-null, one line per retried shed is appended to it
  // (reason, server request id, backoff) so operators can join client
  // retries against the server's request log.
  MineOutcome MineWithRetry(const MineRequest& request, size_t max_attempts,
                            double timeout_ms = 30000.0,
                            std::string* retry_log = nullptr);

  // Liveness probe. Empty string on success (and `pong` filled), else the
  // transport error.
  std::string Ping(PongReply* pong, double timeout_ms = 5000.0);

  // Chaos-harness access: write arbitrary bytes to the socket / read one
  // frame off it. ReadFrame returns an empty string on success.
  bool SendRawBytes(const std::string& bytes);
  std::string ReadFrame(dist::Frame* frame, double timeout_ms = 5000.0);

 private:
  std::unique_ptr<dist::Channel> channel_;
  dist::FrameReader reader_;
};

}  // namespace catapult::serve

#endif  // CATAPULT_SERVE_CLIENT_H_
