#ifndef CATAPULT_DIST_CHANNEL_H_
#define CATAPULT_DIST_CHANNEL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

#include "src/dist/wire.h"

// The socket transport (DESIGN.md §12, §13). The CTWF framing in wire.h is
// transport-agnostic; this file supplies the byte-stream underneath it, and
// is the only code that binds, accepts, connects or sends to a socket, or
// drains frames from one: a socketpair per forked local member, Unix-domain
// sockets for same-host remote fleets and the selection service, TCP for
// cross-host fleets. A Channel wraps one connected, non-blocking fd and adds
// interleave-safe frame writes with a write-stall deadline (a peer that
// stops reading but keeps the connection open must not wedge the writer),
// and a non-blocking drain into a FrameReader that distinguishes "no bytes
// yet" from "peer gone". WaitFrame is the blocking receive of the fleet's
// members and the service's client. SendSome and Drain are the same byte
// moves on a raw fd, for owners that buffer output themselves because they
// must never block (the service's event loop).
//
// Network faults are injectable as failpoints so the chaos tests can drive
// every failure arm deterministically without real packet loss.

namespace catapult::dist {

// Failpoint sites (armed by tests; see src/util/failpoint.h).
inline constexpr char kFailpointConnectRefused[] = "dist.net.connect_refused";
inline constexpr char kFailpointShortWrite[] = "dist.net.short_write";
inline constexpr char kFailpointWriteStall[] = "dist.net.write_stall";

// How long a send may make no progress before the channel is marked failed
// (a half-open peer): the deadline of every fleet connection, both ends.
inline constexpr double kWriteStallTimeoutMs = 5000.0;

// A parsed endpoint: "unix:/path/to.sock" or "tcp:HOST:PORT". TCP hosts
// are numeric IPv4 (or the literal "localhost"); fleet endpoints are
// operator-configured addresses, not names needing resolution.
struct Address {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;   // kUnix: filesystem path of the socket
  std::string host;   // kTcp
  uint16_t port = 0;  // kTcp; 0 = kernel-assigned (listeners only)
  std::string text;   // canonical form, for logs and reports
};

// Parses `text` into `out`. Returns false and fills `*error` on a
// malformed address (unknown scheme, empty or over-long socket path, bad
// port...).
bool ParseAddress(const std::string& text, Address* out, std::string* error);

// One connected byte-stream endpoint. Owns the fd (closed on destruction)
// and keeps it non-blocking. Not copyable; not thread-safe for reads, but
// SendEncoded is mutex-serialised so a heartbeat thread and result threads
// can share the write side.
class Channel {
 public:
  Channel() = default;
  // Takes ownership of `fd` and switches it to non-blocking.
  explicit Channel(int fd,
                   double write_stall_timeout_ms = kWriteStallTimeoutMs);
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool open() const { return fd_ >= 0 && !failed_; }
  int fd() const { return fd_; }
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  // True when at least one send hit the write-stall deadline.
  bool write_stalled() const { return write_stalled_; }

  // Sends one already-encoded frame, whole or not at all from the peer's
  // perspective (mutex-serialised, written to completion). Blocks at most
  // write_stall_timeout_ms waiting for the socket to accept bytes; a stall
  // or error marks the channel failed and further sends no-op. Returns
  // false once failed.
  bool SendEncoded(const std::string& bytes);

  template <typename F>
  bool Send(const F& frame_payload, FrameType type) {
    return SendEncoded(EncodeFrame(type, Encode(frame_payload)));
  }

  enum class DrainStatus {
    kOk,     // drained everything currently readable (possibly 0 bytes)
    kEof,    // peer closed its write side
    kError,  // read error; channel is dead
  };

  // Reads every currently-available byte into `reader` without blocking.
  DrainStatus DrainInto(FrameReader* reader);

  void Close();

 private:
  int fd_ = -1;
  double write_stall_timeout_ms_ = kWriteStallTimeoutMs;
  std::mutex write_mutex_;
  bool failed_ = false;
  bool write_stalled_ = false;
  std::string error_;
};

// A listening endpoint. Binds + listens in Listen(), or adopts an
// already-listening fd (tests bind port 0 themselves to learn the real
// address before handing the fd to the supervisor). A unix socket path
// bound here is unlinked on Close() while it still names this listener's
// socket.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds and listens on `addr`. Returns "" on success, else the error.
  // For tcp port 0, the kernel-assigned port is reflected in address(). A
  // unix path left by a dead listener is replaced; one a live listener
  // answers on is an "address in use" error and stays untouched.
  std::string Listen(const Address& addr);

  // Adopts an fd that is already bound + listening. The fd is NOT owned:
  // the creator closes (and unlinks) it. address() is recovered via
  // getsockname where possible.
  void Adopt(int fd);

  bool open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  // Canonical text of the bound address ("unix:..." / "tcp:host:port").
  const std::string& address() const { return address_; }

  // Accepts one pending connection, non-blocking. Returns the connected
  // fd (non-blocking), or -1 when none is pending or accept failed; then
  // `*error` (when non-null) holds accept's errno, EAGAIN when none was
  // pending, so callers can back off on descriptor exhaustion.
  int Accept(int* error = nullptr);

  void Close();

 private:
  int fd_ = -1;
  bool owned_ = false;
  std::string unlink_path_;  // non-empty when we bound a unix path
  std::pair<uint64_t, uint64_t> bound_file_;  // its (st_dev, st_ino)
  std::string address_;
};

// Connects to `addr`, waiting at most `timeout_ms` for the connect to
// complete (on a Unix socket, also for room in the listener's backlog).
// Returns a connected non-blocking fd, or -1 with `*error` set (including
// the injected kFailpointConnectRefused fault).
int Dial(const Address& addr, double timeout_ms, std::string* error);

// Writes as much of `data` as the non-blocking `fd` accepts right now.
// Returns the bytes written (0 when the socket would block), or -1 when the
// connection is dead (errno says why).
long SendSome(int fd, const char* data, size_t size);

// Reads every byte currently readable on the non-blocking `fd` into
// `reader`, adding the count to `*received` when non-null.
Channel::DrainStatus Drain(int fd, FrameReader* reader,
                           size_t* received = nullptr);

// How WaitFrame ended.
enum class WaitStatus {
  kFrame,    // the next complete frame was stored
  kTimeout,  // none arrived within the timeout
  kClosed,   // the peer closed the stream, after any frames it had sent
  kCorrupt,  // the stream failed its framing checks; reader.error() says why
  kError,    // poll or read error; channel.error() may say why
};

// Blocks until the next complete frame arrives on `channel` (buffered in
// `reader` across calls), for at most `timeout_ms` (<= 0 = wait forever).
// A peer that writes its last frames and then closes or resets the
// connection still delivers them.
WaitStatus WaitFrame(Channel& channel, FrameReader& reader, double timeout_ms,
                     Frame* frame);

}  // namespace catapult::dist

#endif  // CATAPULT_DIST_CHANNEL_H_
