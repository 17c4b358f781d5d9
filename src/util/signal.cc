#include "src/util/signal.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

namespace catapult {

namespace {

// Signal-handler-visible state. Only plain stores/loads of sig_atomic_t and
// a write() on a pre-opened fd happen in signal context; everything richer
// lives behind the watcher thread.
volatile std::sig_atomic_t g_signum = 0;
volatile std::sig_atomic_t g_pipe_write_fd = -1;

extern "C" void HandleShutdownSignal(int signum) {
  g_signum = signum;
  int fd = g_pipe_write_fd;
  if (fd >= 0) {
    unsigned char byte = static_cast<unsigned char>(signum);
    // The pipe is non-blocking; a full pipe just means a wakeup is already
    // pending, which is all a repeated signal needs to convey.
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

void SetCloexecNonblock(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int fdflags = ::fcntl(fd, F_GETFD, 0);
  if (fdflags >= 0) ::fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC);
}

struct BridgeState {
  std::mutex mutex;
  CancelToken token;
  std::vector<int> subscriber_write_fds;
  bool delivered = false;  // watcher already fanned a signal out
  int self_pipe_read = -1;
};

BridgeState& State() {
  static BridgeState* state = new BridgeState();
  return *state;
}

}  // namespace

ShutdownSignals& ShutdownSignals::Instance() {
  static ShutdownSignals* instance = new ShutdownSignals();
  return *instance;
}

ShutdownSignals::ShutdownSignals() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    SetCloexecNonblock(fds[0]);
    SetCloexecNonblock(fds[1]);
    State().self_pipe_read = fds[0];
    g_pipe_write_fd = fds[1];
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  std::thread(&ShutdownSignals::WatcherLoop, this).detach();
}

void ShutdownSignals::WatcherLoop() {
  BridgeState& state = State();
  const int fd = state.self_pipe_read;
  for (;;) {
    unsigned char byte = 0;
    ssize_t n = ::read(fd, &byte, 1);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Non-blocking read end: park briefly instead of converting the pipe
      // back to blocking (ResetForTest may race a re-arm).
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    if (n <= 0 && errno != EINTR) return;  // pipe gone; process is exiting
    if (n <= 0) continue;
    std::lock_guard<std::mutex> lock(state.mutex);
    if (state.delivered) continue;  // repeated Ctrl-C: already fanned out
    state.delivered = true;
    state.token.Cancel();
    for (int sub : state.subscriber_write_fds) {
      [[maybe_unused]] ssize_t w = ::write(sub, &byte, 1);
    }
  }
}

CancelToken ShutdownSignals::token() const {
  BridgeState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.token;
}

int ShutdownSignals::last_signal() const {
  return static_cast<int>(g_signum);
}

int ShutdownSignals::SubscribeFd() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) return -1;
  SetCloexecNonblock(fds[0]);
  SetCloexecNonblock(fds[1]);
  BridgeState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.delivered) {
    unsigned char byte = static_cast<unsigned char>(g_signum);
    [[maybe_unused]] ssize_t w = ::write(fds[1], &byte, 1);
  }
  state.subscriber_write_fds.push_back(fds[1]);
  return fds[0];
}

void ShutdownSignals::ResetForTest() {
  BridgeState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  g_signum = 0;
  state.delivered = false;
  state.token = CancelToken();
  for (int fd : state.subscriber_write_fds) ::close(fd);
  state.subscriber_write_fds.clear();
}

}  // namespace catapult
