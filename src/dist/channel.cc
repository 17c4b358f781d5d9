#include "src/dist/channel.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include "src/obs/metrics.h"
#include "src/util/failpoint.h"

namespace catapult::dist {

namespace {

using Clock = std::chrono::steady_clock;

// A peer that vanished mid-send must surface as EPIPE, not kill the process.
#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Dials the unix socket address once without waiting. Returns connect's
// errno: ECONNREFUSED when no listener answers on the path, ENOENT when the
// path does not exist, 0 (or EAGAIN on a full backlog) when one does, and
// any other errno when the path cannot be reached (or socket's, when no
// probe socket could be made). A listener the probe reaches accepts one
// connection that closes at once.
int ProbeUnixPath(const sockaddr_storage& storage, socklen_t len) {
  int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (probe < 0) return errno;
  int result = 0;
  if (::connect(probe, reinterpret_cast<const sockaddr*>(&storage), len) !=
      0) {
    result = errno;
  }
  ::close(probe);
  return result;
}

// Longest unix socket path sockaddr_un holds, its NUL terminator aside.
constexpr size_t kMaxUnixPath = sizeof(sockaddr_un::sun_path) - 1;

// `timeout_ms` from now; <= 0 never comes.
Clock::time_point DeadlineAfter(double timeout_ms) {
  if (timeout_ms <= 0.0) return Clock::time_point::max();
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                timeout_ms));
}

}  // namespace

bool ParseAddress(const std::string& text, Address* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "bad address '" + text + "': " + why;
    return false;
  };
  if (text.rfind("unix:", 0) == 0) {
    std::string path = text.substr(5);
    if (path.empty()) return fail("empty socket path");
    if (path.size() > kMaxUnixPath) return fail("unix socket path too long");
    out->kind = Address::Kind::kUnix;
    out->path = std::move(path);
    out->host.clear();
    out->port = 0;
    out->text = "unix:" + out->path;
    return true;
  }
  if (text.rfind("tcp:", 0) == 0) {
    std::string rest = text.substr(4);
    size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      return fail("expected tcp:HOST:PORT");
    }
    std::string host = rest.substr(0, colon);
    std::string port_text = rest.substr(colon + 1);
    if (port_text.empty() ||
        port_text.find_first_not_of("0123456789") != std::string::npos) {
      return fail("port is not a number");
    }
    unsigned long port = std::strtoul(port_text.c_str(), nullptr, 10);
    if (port > 65535) return fail("port out of range");
    out->kind = Address::Kind::kTcp;
    out->host = std::move(host);
    out->port = static_cast<uint16_t>(port);
    out->path.clear();
    out->text = "tcp:" + out->host + ":" + std::to_string(out->port);
    return true;
  }
  return fail("expected unix:PATH or tcp:HOST:PORT");
}

namespace {

// Fills a sockaddr for `addr`. Returns "" or the error.
std::string FillSockaddr(const Address& addr, sockaddr_storage* storage,
                         socklen_t* len) {
  std::memset(storage, 0, sizeof(*storage));
  if (addr.kind == Address::Kind::kUnix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(storage);
    if (addr.path.size() >= sizeof(sun->sun_path)) {
      return "unix socket path too long";
    }
    sun->sun_family = AF_UNIX;
    std::memcpy(sun->sun_path, addr.path.c_str(), addr.path.size() + 1);
    *len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  addr.path.size() + 1);
    return "";
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(storage);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(addr.port);
  std::string host = addr.host;
  if (host == "localhost") host = "127.0.0.1";
  if (host.empty() || host == "*") host = "0.0.0.0";
  if (::inet_pton(AF_INET, host.c_str(), &sin->sin_addr) != 1) {
    return "host must be a numeric IPv4 address or 'localhost'";
  }
  *len = sizeof(sockaddr_in);
  return "";
}

std::string SockaddrText(const sockaddr_storage& storage) {
  if (storage.ss_family == AF_UNIX) {
    const auto* sun = reinterpret_cast<const sockaddr_un*>(&storage);
    return std::string("unix:") + sun->sun_path;
  }
  if (storage.ss_family == AF_INET) {
    const auto* sin = reinterpret_cast<const sockaddr_in*>(&storage);
    char buf[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &sin->sin_addr, buf, sizeof(buf));
    return std::string("tcp:") + buf + ":" +
           std::to_string(ntohs(sin->sin_port));
  }
  return "";
}

}  // namespace

Channel::Channel(int fd, double write_stall_timeout_ms)
    : fd_(fd), write_stall_timeout_ms_(write_stall_timeout_ms) {
  if (fd_ >= 0) SetNonBlocking(fd_);
}

Channel::~Channel() { Close(); }

void Channel::Close() {
  // Serialised with SendEncoded: another thread may be mid-send.
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Channel::SendEncoded(const std::string& bytes) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (fd_ < 0 || failed_) return false;
  if (CATAPULT_FAILPOINT(kFailpointWriteStall)) {
    // The peer's receive window is full and stays full: every byte we try
    // to push would block past the stall deadline.
    failed_ = true;
    write_stalled_ = true;
    error_ = "write stalled (injected)";
    obs::Count(obs::Counter::kDistNetWriteStalls);
    return false;
  }
  const bool short_writes = CATAPULT_FAILPOINT(kFailpointShortWrite);
  size_t written = 0;
  while (written < bytes.size()) {
    // One byte at a time under the failpoint: worst-case kernel chunking.
    const size_t chunk = short_writes ? 1 : bytes.size() - written;
    const long n = SendSome(fd_, bytes.data() + written, chunk);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0) {
      failed_ = true;
      error_ = ErrnoString("send");
      return false;
    }
    struct pollfd pfd = {fd_, POLLOUT, 0};
    int timeout = write_stall_timeout_ms_ <= 0.0
                      ? -1
                      : std::max(1, static_cast<int>(write_stall_timeout_ms_));
    int rc = ::poll(&pfd, 1, timeout);
    if (rc > 0) continue;
    if (rc < 0 && errno == EINTR) continue;
    // Stalled: the peer holds the connection open but reads nothing.
    failed_ = true;
    write_stalled_ = true;
    error_ = "write stalled for " +
             std::to_string(static_cast<long>(write_stall_timeout_ms_)) + "ms";
    obs::Count(obs::Counter::kDistNetWriteStalls);
    return false;
  }
  return true;
}

Channel::DrainStatus Channel::DrainInto(FrameReader* reader) {
  if (fd_ < 0) return DrainStatus::kError;
  const DrainStatus status = Drain(fd_, reader);
  if (status == DrainStatus::kError) {
    failed_ = true;
    error_ = ErrnoString("recv");
  }
  return status;
}

long SendSome(int fd, const char* data, size_t size) {
  for (;;) {
    const ssize_t n = ::send(fd, data, size, kSendFlags);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK ? 0 : -1;
  }
}

Channel::DrainStatus Drain(int fd, FrameReader* reader, size_t* received) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      reader->Feed(buf, static_cast<size_t>(n));
      if (received != nullptr) *received += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return Channel::DrainStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Channel::DrainStatus::kOk;
    }
    return Channel::DrainStatus::kError;
  }
}

WaitStatus WaitFrame(Channel& channel, FrameReader& reader, double timeout_ms,
                     Frame* frame) {
  const Clock::time_point deadline = DeadlineAfter(timeout_ms);
  bool closed = false;
  bool broken = false;
  for (;;) {
    // Frames already buffered go out first, even when the peer has closed
    // since: its close may trail its last replies. So may a reset, which a
    // Unix peer that closes with our bytes still unread delivers instead of
    // an end of stream.
    if (std::optional<Frame> next = reader.Next()) {
      *frame = std::move(*next);
      return WaitStatus::kFrame;
    }
    if (reader.corrupt()) return WaitStatus::kCorrupt;
    if (broken) return WaitStatus::kError;
    if (closed || channel.fd() < 0) return WaitStatus::kClosed;
    const Clock::time_point now = Clock::now();
    if (now >= deadline) return WaitStatus::kTimeout;
    double wait_ms = 500.0;
    if (deadline != Clock::time_point::max()) {
      double remaining =
          std::chrono::duration<double, std::milli>(deadline - now).count();
      wait_ms = std::min(wait_ms, std::max(remaining, 1.0));
    }
    struct pollfd pfd = {channel.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(wait_ms)) < 0 && errno != EINTR) {
      return WaitStatus::kError;
    }
    switch (channel.DrainInto(&reader)) {
      case Channel::DrainStatus::kOk:
        break;
      case Channel::DrainStatus::kEof:
        closed = true;
        break;
      case Channel::DrainStatus::kError:
        broken = true;
        break;
    }
  }
}

Listener::~Listener() { Close(); }

std::string Listener::Listen(const Address& addr) {
  Close();
  sockaddr_storage storage;
  socklen_t len = 0;
  std::string err = FillSockaddr(addr, &storage, &len);
  if (!err.empty()) return err;
  int family = addr.kind == Address::Kind::kUnix ? AF_UNIX : AF_INET;
  int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoString("socket");
  if (addr.kind == Address::Kind::kUnix) {
    // A path that answers is a live listener's: taking it over would steal
    // its connections. A path nobody answers on is stale (a crashed owner's
    // socket, or any other file) and would make bind fail, so it goes. Any
    // other probe result is left to bind, which reports the real error.
    const int probe = ProbeUnixPath(storage, len);
    if (probe == 0 || probe == EAGAIN) {
      ::close(fd);
      return "bind: address in use: a listener answers on " + addr.path;
    }
    if (probe == ECONNREFUSED) ::unlink(addr.path.c_str());
  } else {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0) {
    std::string bind_err = ErrnoString("bind");
    ::close(fd);
    return bind_err;
  }
  if (::listen(fd, 64) != 0) {
    std::string listen_err = ErrnoString("listen");
    ::close(fd);
    return listen_err;
  }
  SetNonBlocking(fd);
  fd_ = fd;
  owned_ = true;
  if (addr.kind == Address::Kind::kUnix) {
    struct stat bound;
    if (::stat(addr.path.c_str(), &bound) == 0) {
      unlink_path_ = addr.path;
      bound_file_ = {bound.st_dev, bound.st_ino};
    }
    address_ = addr.text;
  } else {
    // Re-read the bound address so port 0 reports the kernel's choice.
    sockaddr_storage bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      address_ = SockaddrText(bound);
    } else {
      address_ = addr.text;
    }
  }
  return "";
}

void Listener::Adopt(int fd) {
  Close();
  fd_ = fd;
  owned_ = false;
  SetNonBlocking(fd);
  sockaddr_storage bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    address_ = SockaddrText(bound);
  }
}

int Listener::Accept(int* error) {
  if (fd_ < 0) return -1;
  for (;;) {
    int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      SetNonBlocking(client);
      return client;
    }
    if (errno == EINTR) continue;
    if (error != nullptr) *error = errno;
    return -1;
  }
}

void Listener::Close() {
  if (fd_ >= 0 && owned_) ::close(fd_);
  fd_ = -1;
  owned_ = false;
  if (!unlink_path_.empty()) {
    // Another listener may have replaced the path since; leave its socket.
    struct stat now;
    if (::stat(unlink_path_.c_str(), &now) == 0 &&
        std::make_pair(static_cast<uint64_t>(now.st_dev),
                       static_cast<uint64_t>(now.st_ino)) == bound_file_) {
      ::unlink(unlink_path_.c_str());
    }
    unlink_path_.clear();
  }
  address_.clear();
}

int Dial(const Address& addr, double timeout_ms, std::string* error) {
  if (CATAPULT_FAILPOINT(kFailpointConnectRefused)) {
    if (error != nullptr) *error = "connection refused (injected)";
    return -1;
  }
  sockaddr_storage storage;
  socklen_t len = 0;
  std::string err = FillSockaddr(addr, &storage, &len);
  if (!err.empty()) {
    if (error != nullptr) *error = err;
    return -1;
  }
  int family = addr.kind == Address::Kind::kUnix ? AF_UNIX : AF_INET;
  int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = ErrnoString("socket");
    return -1;
  }
  SetNonBlocking(fd);
  const Clock::time_point give_up = DeadlineAfter(timeout_ms);
  int connected;
  // A Unix listener with a full backlog turns a non-blocking connect away
  // with EAGAIN, where a blocking one would wait for room: wait likewise,
  // up to the timeout.
  while ((connected = ::connect(fd, reinterpret_cast<sockaddr*>(&storage),
                                len)) != 0 &&
         errno == EAGAIN && addr.kind == Address::Kind::kUnix &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (connected != 0) {
    if (errno != EINPROGRESS) {
      if (error != nullptr) *error = ErrnoString("connect");
      ::close(fd);
      return -1;
    }
    struct pollfd pfd = {fd, POLLOUT, 0};
    int timeout =
        timeout_ms <= 0.0 ? -1 : std::max(1, static_cast<int>(timeout_ms));
    int rc;
    while ((rc = ::poll(&pfd, 1, timeout)) < 0 && errno == EINTR) {
    }
    if (rc <= 0) {
      if (error != nullptr) *error = "connect timed out";
      ::close(fd);
      return -1;
    }
    int so_error = 0;
    socklen_t so_len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len);
    if (so_error != 0) {
      if (error != nullptr) {
        *error = std::string("connect: ") + std::strerror(so_error);
      }
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

}  // namespace catapult::dist
