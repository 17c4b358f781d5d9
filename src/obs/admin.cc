#include "src/obs/admin.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/util/signal.h"

namespace catapult::obs {

namespace {

// Per-connection I/O allowance. Admin exchanges are one short request line
// and a few KB of response; anything slower is a wedged or hostile peer and
// is dropped rather than buffered.
constexpr int kIoTimeoutMs = 2000;
constexpr size_t kMaxRequestBytes = 4096;

// Waits until `fd` is ready for `events` or the deadline passes.
bool WaitReady(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  return ::poll(&pfd, 1, timeout_ms) > 0 &&
         (pfd.revents & (events | POLLHUP | POLLERR)) != 0;
}

const char* StatusText(int status) {
  switch (status) {
    case 200: return "200 OK";
    case 404: return "404 Not Found";
    default: return "500 Internal Server Error";
  }
}

// Extracts the request path from one request line: either an HTTP request
// line ("GET /metrics HTTP/1.1") or a bare path ("/metrics").
std::string ParseRequestPath(const std::string& line) {
  size_t begin = 0;
  const size_t space = line.find(' ');
  if (space != std::string::npos && !line.empty() && line[0] != '/') {
    begin = space + 1;  // skip the method token
  }
  size_t end = line.find(' ', begin);
  if (end == std::string::npos) end = line.size();
  while (end > begin && (line[end - 1] == '\r' || line[end - 1] == '\n')) {
    --end;
  }
  return line.substr(begin, end - begin);
}

}  // namespace

std::string AdminServer::Start(const std::string& address,
                               AdminHandler handler) {
  if (started_) return "admin server already started";
  dist::Address parsed;
  std::string error;
  if (!dist::ParseAddress(address, &parsed, &error)) return error;
  error = listener_.Listen(parsed);
  if (!error.empty()) return error;
  if (::pipe(stop_pipe_) != 0) {
    listener_.Close();
    return "admin stop pipe: " + std::string(std::strerror(errno));
  }
  ::fcntl(stop_pipe_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(stop_pipe_[1], F_SETFL, O_NONBLOCK);
  signal_fd_ = ShutdownSignals::Instance().SubscribeFd();
  handler_ = std::move(handler);
  address_ = listener_.address();
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread(&AdminServer::Serve, this);
  started_ = true;
  return "";
}

void AdminServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  const char byte = 's';
  (void)!::write(stop_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  listener_.Close();
  for (int& fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (signal_fd_ >= 0) ::close(signal_fd_);
  signal_fd_ = -1;
  started_ = false;
}

void AdminServer::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    struct pollfd pfds[3];
    pfds[0] = {listener_.fd(), POLLIN, 0};
    pfds[1] = {stop_pipe_[0], POLLIN, 0};
    pfds[2] = {signal_fd_, POLLIN, 0};
    if (::poll(pfds, 3, 500) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // A shutdown signal retires the endpoint exactly like Stop(): probes
    // must start failing as soon as the process begins winding down.
    if ((pfds[1].revents | pfds[2].revents) & POLLIN) return;
    if ((pfds[0].revents & POLLIN) == 0) continue;
    for (int fd = listener_.Accept(); fd >= 0; fd = listener_.Accept()) {
      HandleConnection(fd);
      ::close(fd);
    }
  }
}

void AdminServer::HandleConnection(int fd) {
  // Read until the first newline (the request line is all we route on).
  std::string request;
  while (request.find('\n') == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    if (!WaitReady(fd, POLLIN, kIoTimeoutMs)) return;
    char buf[1024];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      return;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  const std::string path = ParseRequestPath(request);
  AdminResponse response;
  if (path == "/healthz") {
    response.body = "ok\n";
  } else if (handler_) {
    response = handler_(path);
  } else {
    response.status = 404;
    response.body = "not found\n";
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  std::string out = "HTTP/1.0 ";
  out += StatusText(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  // Through the transport's send: a scraper that hung up early is an EPIPE
  // here, not a SIGPIPE that ends the process.
  size_t sent = 0;
  while (sent < out.size()) {
    if (!WaitReady(fd, POLLOUT, kIoTimeoutMs)) return;
    const long n = dist::SendSome(fd, out.data() + sent, out.size() - sent);
    if (n < 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace catapult::obs
