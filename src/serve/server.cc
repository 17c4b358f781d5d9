#include "src/serve/server.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/dist/channel.h"
#include "src/dist/wire.h"
#include "src/obs/admin.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/reqlog.h"
#include "src/serve/protocol.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

namespace catapult::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point since, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - since).count();
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// accept() errno values that mean "descriptor pressure / transient": back
// off for accept_retry_ms instead of spinning on a hot error.
bool TransientAcceptError(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM ||
         err == ECONNABORTED || err == EINTR;
}

}  // namespace

struct Server::Impl {
  // One connected client. Owned and touched exclusively by the event-loop
  // thread; workers refer to sessions only by (fd, generation).
  struct Session {
    uint64_t generation = 0;
    dist::FrameReader reader;
    std::string outbuf;  // encoded reply frames not yet written
    size_t out_off = 0;
    size_t in_flight = 0;  // admitted jobs not yet replied to
    // Cancels this session's in-flight jobs when it disconnects.
    CancelToken cancel;
    bool close_after_flush = false;
    Clock::time_point last_activity;
    Clock::time_point last_write_progress;
  };

  // One admitted selection request, queued for a worker.
  struct Job {
    int fd = -1;
    uint64_t generation = 0;
    uint64_t request_id = 0;
    MineRequest request;
    Deadline deadline;
    CancelToken cancel;  // the owning session's token
    Clock::time_point admitted;
  };

  // A worker's finished reply travelling back to the event loop.
  struct Completed {
    int fd = -1;
    uint64_t generation = 0;
    std::string bytes;  // encoded frame; empty = job abandoned, no reply
  };

  struct CacheEntry {
    uint64_t eta_min = 0, eta_max = 0, gamma = 0;
    std::string panel;
    uint64_t last_used = 0;
  };

  Server* self = nullptr;
  const GraphDatabase* db = nullptr;
  ServeOptions options;
  PreparedCorpus owned_corpus;
  const PreparedCorpus* corpus = nullptr;
  MemoryBudget memory;  // shared across all requests
  std::vector<std::string> label_names;

  dist::Listener listener;  // unix:<socket_path>; Close() unlinks the path
  int wake_read = -1;
  int wake_write = -1;
  Clock::time_point accept_cooldown_until{};

  std::unordered_map<int, Session> sessions;  // event-loop thread only
  uint64_t next_generation = 1;
  std::atomic<size_t> session_count{0};
  std::atomic<uint64_t> pending_out_bytes{0};

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<Job> queue;
  size_t active_jobs = 0;                // guarded by queue_mutex
  std::vector<CancelToken> running;      // guarded by queue_mutex
  std::atomic<bool> workers_stop{false};

  std::mutex completed_mutex;
  std::vector<Completed> completed;

  std::mutex cache_mutex;
  std::vector<CacheEntry> cache;  // linear LRU; capacity is small
  uint64_t cache_tick = 0;

  // Live-readable metrics. Registry shard writes are deliberately
  // lock-free plain stores (obs contract: snapshot only after the writing
  // threads joined), so Metrics() must never walk a registry that serve
  // threads still record into. Instead every serve thread records into its
  // own private registry and publishes finished deltas here — the event
  // loop once per tick, each worker after every completed job — and
  // Metrics() copies the aggregate under the same mutex.
  mutable std::mutex metrics_mutex;
  obs::MetricsSnapshot published;

  std::atomic<bool> loop_stop{false};
  bool stopped = false;  // Stop() ran to completion (main thread only)
  std::thread event_thread;
  std::vector<std::thread> workers;

  // Observability (DESIGN.md §16). Request ids are assigned at frame
  // handling, stamped into shed/error replies and every request-log line.
  std::atomic<uint64_t> next_request_id{1};
  obs::RequestLog reqlog;
  obs::AdminServer admin;
  Clock::time_point start_time{};

  ~Impl() {
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
  }

  void Wake() {
    char byte = 'w';
    if (wake_write >= 0) {
      [[maybe_unused]] ssize_t n = ::write(wake_write, &byte, 1);
    }
  }

  size_t QueueDepth() {
    std::lock_guard<std::mutex> lock(queue_mutex);
    return queue.size();
  }

  // Folds everything `local` accumulated since its last publish into the
  // shared aggregate and clears it. Only the owning thread may call this
  // (and only while no parallel region is recording into `local`), which
  // is exactly the obs snapshot contract.
  void PublishMetrics(obs::MetricsRegistry& local) {
    const obs::MetricsSnapshot delta = local.Snapshot();
    local.Reset();
    std::lock_guard<std::mutex> lock(metrics_mutex);
    published.MergeFrom(delta);
  }

  static std::string BudgetKey(const MineRequest& req) {
    return std::to_string(req.eta_min) + "-" + std::to_string(req.eta_max) +
           "x" + std::to_string(req.gamma);
  }

  // Enqueues one request-log line; a full queue drops it (counted). Called
  // from the event loop and workers only — both carry a TLS metrics scope.
  void LogRequest(const obs::RequestLogEvent& ev) {
    if (!reqlog.started()) return;
    if (!reqlog.Record(ev)) obs::Count(obs::Counter::kServeReqlogDropped);
  }

  // Admin-endpoint handler, invoked on the admin server's thread. Only
  // thread-safe observers are touched: Metrics() merges published deltas
  // under its own mutex, and the rest are atomics.
  obs::AdminResponse HandleAdmin(const std::string& path) {
    obs::AdminResponse resp;
    if (path == "/metrics") {
      resp.body = obs::RenderPrometheusText(self->Metrics());
    } else if (path == "/statusz") {
      obs::JsonWriter w;
      w.BeginObject();
      w.Key("uptime_ms");
      w.Value(MillisSince(start_time, Clock::now()));
      w.Key("fingerprint");
      w.Value(corpus != nullptr ? corpus->fingerprint : uint64_t{0});
      w.Key("corpus_complete");
      w.Value(corpus != nullptr && corpus->Complete());
      w.Key("socket_path");
      w.Value(options.socket_path);
      w.Key("draining");
      w.Value(self->draining());
      w.Key("sessions");
      w.Value(static_cast<uint64_t>(self->active_sessions()));
      w.Key("queue_depth");
      w.Value(static_cast<uint64_t>(self->queue_depth()));
      w.Key("requests_assigned");
      w.Value(next_request_id.load(std::memory_order_relaxed) - 1);
      w.Key("request_log_dropped");
      w.Value(reqlog.dropped());
      w.EndObject();
      resp.body = w.str() + "\n";
      resp.content_type = "application/json";
    } else {
      resp.status = 404;
      resp.body = "not found\n";
    }
    return resp;
  }

  bool CacheLookup(const MineRequest& req, std::string* panel) {
    std::lock_guard<std::mutex> lock(cache_mutex);
    for (CacheEntry& e : cache) {
      if (e.eta_min == req.eta_min && e.eta_max == req.eta_max &&
          e.gamma == req.gamma) {
        e.last_used = ++cache_tick;
        *panel = e.panel;
        return true;
      }
    }
    return false;
  }

  void CacheInsert(const MineRequest& req, const std::string& panel) {
    if (options.cache_capacity == 0) return;
    std::lock_guard<std::mutex> lock(cache_mutex);
    for (CacheEntry& e : cache) {
      if (e.eta_min == req.eta_min && e.eta_max == req.eta_max &&
          e.gamma == req.gamma) {
        e.last_used = ++cache_tick;
        return;  // a concurrent worker already filled this key
      }
    }
    if (cache.size() >= options.cache_capacity) {
      size_t victim = 0;
      for (size_t i = 1; i < cache.size(); ++i) {
        if (cache[i].last_used < cache[victim].last_used) victim = i;
      }
      cache.erase(cache.begin() + static_cast<long>(victim));
    }
    cache.push_back(
        {req.eta_min, req.eta_max, req.gamma, panel, ++cache_tick});
  }

  // --- event-loop side -------------------------------------------------------

  void QueueFrame(Session& s, dist::FrameType type,
                  const std::string& payload) {
    const bool was_empty = s.out_off >= s.outbuf.size();
    s.outbuf += dist::EncodeFrame(type, payload);
    if (was_empty) s.last_write_progress = Clock::now();
  }

  void QueueShed(Session& s, ShedReason reason, uint64_t request_id = 0,
                 const MineRequest* req = nullptr) {
    ShedReply shed;
    shed.reason = reason;
    shed.retry_after_ms = options.retry_after_ms;
    shed.queue_depth = QueueDepth();
    shed.request_id = request_id;
    QueueFrame(s, dist::FrameType::kServeShed, Encode(shed));
    obs::Count(obs::Counter::kServeShed);
    obs::RequestLogEvent ev;
    ev.request_id = request_id;
    ev.outcome = "shed";
    ev.detail = ToString(reason);
    if (req != nullptr) {
      ev.budget_key = BudgetKey(*req);
      ev.trace_id = req->trace_id;
      ev.parent_span_id = req->parent_span_id;
    }
    LogRequest(ev);
  }

  void CloseSession(int fd) {
    auto it = sessions.find(fd);
    if (it == sessions.end()) return;
    // In-flight work for a vanished client is wasted; cancel it. Workers
    // deliver to (fd, generation), so a recycled fd cannot receive the dead
    // session's replies.
    it->second.cancel.Cancel();
    sessions.erase(it);
    ::close(fd);
    session_count.store(sessions.size(), std::memory_order_relaxed);
    obs::Count(obs::Counter::kServeDisconnects);
  }

  // Writes as much pending reply data as the socket accepts. Returns false
  // when the session must be closed (fatal write error or flushed a doomed
  // session).
  bool FlushSession(int fd, Session& s) {
    while (s.out_off < s.outbuf.size()) {
      if (CATAPULT_FAILPOINT("serve.write_stall")) return true;  // no progress
      const long n = dist::SendSome(fd, s.outbuf.data() + s.out_off,
                                    s.outbuf.size() - s.out_off);
      if (n < 0) return false;  // peer gone or fatal error
      if (n == 0) return true;  // socket full; POLLOUT resumes the flush
      s.out_off += static_cast<size_t>(n);
      s.last_write_progress = Clock::now();
    }
    s.outbuf.clear();
    s.out_off = 0;
    return !s.close_after_flush;
  }

  void Accept() {
    for (;;) {
      if (CATAPULT_FAILPOINT("serve.accept_fail")) {
        obs::Count(obs::Counter::kServeAcceptFailures);
        accept_cooldown_until =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   options.accept_retry_ms));
        return;
      }
      int err = 0;
      const int fd = listener.Accept(&err);
      if (fd < 0) {
        if (TransientAcceptError(err)) {
          obs::Count(obs::Counter::kServeAcceptFailures);
          accept_cooldown_until =
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     options.accept_retry_ms));
        }
        return;
      }
      Session& s = sessions[fd];
      s.generation = next_generation++;
      s.last_activity = Clock::now();
      s.last_write_progress = s.last_activity;
      session_count.store(sessions.size(), std::memory_order_relaxed);
      if (sessions.size() > options.max_sessions) {
        // Over the cap: tell the client to retry, then hang up. The cap
        // counts this doomed session too, so a connect storm cannot hold
        // unbounded descriptors.
        s.close_after_flush = true;
        QueueShed(s, ShedReason::kSessionLimit);
        if (!FlushSession(fd, s)) CloseSession(fd);
        continue;
      }
      obs::Count(obs::Counter::kServeAccepted);
      obs::SetGaugeMax(obs::Gauge::kServeSessionsPeak, sessions.size());
    }
  }

  // Handles one decoded frame. Returns false when the stream must be
  // poisoned (the caller disconnects the client).
  bool HandleFrame(int fd, Session& s, const dist::Frame& frame) {
    switch (frame.type) {
      case dist::FrameType::kServePing: {
        PingRequest ping;
        if (!Decode(frame.payload, &ping)) return false;
        PongReply pong;
        pong.nonce = ping.nonce;
        pong.sessions = sessions.size();
        pong.queue_depth = QueueDepth();
        pong.draining = self->draining();
        QueueFrame(s, dist::FrameType::kServePong, Encode(pong));
        return true;
      }
      case dist::FrameType::kServeRequest: {
        MineRequest req;
        if (!Decode(frame.payload, &req)) return false;
        HandleMineRequest(fd, s, req);
        return true;
      }
      default:
        // Clients have no business sending worker-pipe or server->client
        // frames; framing discipline is gone.
        return false;
    }
  }

  void HandleMineRequest(int fd, Session& s, const MineRequest& req) {
    obs::Count(obs::Counter::kServeRequests);
    const uint64_t request_id =
        next_request_id.fetch_add(1, std::memory_order_relaxed);
    auto reply_error = [&](const std::string& message) {
      ErrorReply err;
      err.message = message;
      err.request_id = request_id;
      QueueFrame(s, dist::FrameType::kServeError, Encode(err));
      obs::RequestLogEvent ev;
      ev.request_id = request_id;
      ev.budget_key = BudgetKey(req);
      ev.outcome = "error";
      ev.detail = message;
      ev.trace_id = req.trace_id;
      ev.parent_span_id = req.parent_span_id;
      LogRequest(ev);
    };
    if (req.protocol_version != kProtocolVersion) {
      reply_error("protocol version mismatch");
      return;
    }
    CatapultOptions opts = RequestOptions(req);
    const std::vector<OptionsError> errors = ValidateCatapultOptions(opts);
    if (!errors.empty()) {
      reply_error(errors.front().field + ": " + errors.front().message);
      return;
    }
    if (self->draining()) {
      QueueShed(s, ShedReason::kDraining, request_id, &req);
      return;
    }
    if (!req.bypass_cache) {
      std::string panel;
      if (CacheLookup(req, &panel)) {
        obs::Count(obs::Counter::kServeCacheHits);
        obs::Count(obs::Counter::kServeResponses);
        obs::RequestLogEvent ev;
        ev.request_id = request_id;
        ev.budget_key = BudgetKey(req);
        ev.outcome = "cache_hit";
        ev.panel_bytes = panel.size();
        ev.trace_id = req.trace_id;
        ev.parent_span_id = req.parent_span_id;
        LogRequest(ev);
        MineReply reply;
        reply.cache_hit = true;
        reply.panel = std::move(panel);
        QueueFrame(s, dist::FrameType::kServeResponse, Encode(reply));
        return;
      }
      obs::Count(obs::Counter::kServeCacheMisses);
    }
    // Admission decision under the queue lock, shed reply outside it
    // (QueueShed re-locks for the depth stamp).
    enum class Admit { kEnqueued, kShedQueue, kShedMemory };
    Admit verdict = Admit::kEnqueued;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (CATAPULT_FAILPOINT("serve.overload") ||
          queue.size() >= options.max_queue_depth) {
        verdict = Admit::kShedQueue;
      } else if (CATAPULT_FAILPOINT("serve.memory_pressure") ||
                 memory.SoftExceeded()) {
        verdict = Admit::kShedMemory;
      } else {
        Job job;
        job.fd = fd;
        job.generation = s.generation;
        job.request_id = request_id;
        job.request = req;
        double deadline_ms = req.deadline_ms > 0.0
                                 ? req.deadline_ms
                                 : options.default_deadline_ms;
        if (options.max_deadline_ms > 0.0 &&
            (deadline_ms <= 0.0 || deadline_ms > options.max_deadline_ms)) {
          deadline_ms = options.max_deadline_ms;
        }
        job.deadline = deadline_ms > 0.0 ? Deadline::AfterMillis(deadline_ms)
                                         : Deadline::Infinite();
        job.cancel = s.cancel;
        job.admitted = Clock::now();
        queue.push_back(std::move(job));
        s.in_flight++;
        obs::SetGaugeMax(obs::Gauge::kServeQueueDepthPeak, queue.size());
        queue_cv.notify_one();
      }
    }
    if (verdict == Admit::kShedQueue) {
      QueueShed(s, ShedReason::kQueueFull, request_id, &req);
    }
    if (verdict == Admit::kShedMemory) {
      QueueShed(s, ShedReason::kMemoryPressure, request_id, &req);
    }
  }

  CatapultOptions RequestOptions(const MineRequest& req) const {
    CatapultOptions opts = options.pipeline;
    opts.selector.budget.eta_min = static_cast<size_t>(req.eta_min);
    opts.selector.budget.eta_max = static_cast<size_t>(req.eta_max);
    opts.selector.budget.gamma = static_cast<size_t>(req.gamma);
    // A custom size distribution is corpus configuration, not something a
    // request can express; budgets from the wire use the uniform default.
    opts.selector.budget.size_distribution.clear();
    // Deadline and memory come from the job's RunContext (per-request
    // deadline, shared server-wide ledger), and serving neither checkpoints
    // nor shards per request.
    opts.deadline_ms = 0.0;
    opts.mem_soft_limit_bytes = 0;
    opts.mem_hard_limit_bytes = 0;
    opts.checkpoint_dir.clear();
    opts.resume = false;
    opts.processes = 0;
    return opts;
  }

  void DeliverCompleted() {
    std::vector<Completed> batch;
    {
      std::lock_guard<std::mutex> lock(completed_mutex);
      batch.swap(completed);
    }
    for (Completed& c : batch) {
      auto it = sessions.find(c.fd);
      if (it == sessions.end() || it->second.generation != c.generation) {
        continue;  // session died while the job ran; reply has no reader
      }
      Session& s = it->second;
      if (s.in_flight > 0) s.in_flight--;
      if (!c.bytes.empty()) {
        const bool was_empty = s.out_off >= s.outbuf.size();
        s.outbuf += c.bytes;
        if (was_empty) s.last_write_progress = Clock::now();
        if (!FlushSession(c.fd, s)) CloseSession(c.fd);
      }
    }
  }

  void SweepSessions(Clock::time_point now) {
    std::vector<int> doomed;
    for (auto& [fd, s] : sessions) {
      const bool has_pending = s.out_off < s.outbuf.size();
      if (has_pending &&
          MillisSince(s.last_write_progress, now) > options.write_timeout_ms) {
        obs::Count(obs::Counter::kServeWriteTimeouts);
        doomed.push_back(fd);
        continue;
      }
      if (!has_pending && s.in_flight == 0 && options.idle_timeout_ms > 0.0 &&
          MillisSince(s.last_activity, now) > options.idle_timeout_ms) {
        obs::Count(obs::Counter::kServeIdleReaped);
        doomed.push_back(fd);
      }
    }
    for (int fd : doomed) CloseSession(fd);
  }

  void HandleReadable(int fd) {
    auto it = sessions.find(fd);
    if (it == sessions.end()) return;
    Session& s = it->second;
    size_t received = 0;
    const dist::Channel::DrainStatus status =
        dist::Drain(fd, &s.reader, &received);
    if (received > 0) s.last_activity = Clock::now();
    const bool peer_closed = status != dist::Channel::DrainStatus::kOk;
    while (!s.reader.corrupt()) {
      std::optional<dist::Frame> frame = s.reader.Next();
      if (!frame.has_value()) break;
      s.last_activity = Clock::now();
      if (!HandleFrame(fd, s, *frame)) {
        s.reader.Poison("undecodable or unexpected frame payload");
        break;
      }
      // HandleFrame may have doomed the session (close_after_flush); stop
      // consuming further frames from it.
      if (s.close_after_flush) break;
    }
    if (s.reader.corrupt()) {
      obs::Count(obs::Counter::kServePoisonedStreams);
      CloseSession(fd);
      return;
    }
    if (!FlushSession(fd, s)) {
      CloseSession(fd);
      return;
    }
    if (peer_closed) CloseSession(fd);
  }

  void EventLoop() {
    // Private registry: this thread is its only writer, so the per-tick
    // PublishMetrics snapshot below never races a live shard.
    obs::MetricsRegistry loop_metrics;
    obs::ScopedMetricsScope metrics_scope(&loop_metrics);
    std::vector<pollfd> fds;
    std::vector<int> session_fds;
    std::vector<uint64_t> session_gens;
    while (!loop_stop.load(std::memory_order_relaxed)) {
      const Clock::time_point now = Clock::now();
      if (listener.open() && self->draining()) {
        // Drain begins: stop accepting. Unlinking the path now makes new
        // connect() attempts fail fast instead of queueing in the backlog.
        listener.Close();
      }
      fds.clear();
      session_fds.clear();
      session_gens.clear();
      fds.push_back({wake_read, POLLIN, 0});
      const bool accept_ready =
          listener.open() && now >= accept_cooldown_until;
      if (accept_ready) fds.push_back({listener.fd(), POLLIN, 0});
      for (auto& [fd, s] : sessions) {
        short events = POLLIN;
        if (s.out_off < s.outbuf.size()) events |= POLLOUT;
        fds.push_back({fd, events, 0});
        session_fds.push_back(fd);
        session_gens.push_back(s.generation);
      }
      ::poll(fds.data(), fds.size(), /*timeout_ms=*/20);

      if (fds[0].revents & POLLIN) {
        char drain[64];
        while (::read(wake_read, drain, sizeof(drain)) > 0) {
        }
      }
      DeliverCompleted();
      size_t idx = 1;
      if (accept_ready) {
        if (fds[idx].revents & (POLLIN | POLLERR)) Accept();
        ++idx;
      }
      for (size_t i = 0; i < session_fds.size(); ++i) {
        const pollfd& p = fds[idx + i];
        const int fd = p.fd;
        // The session may have been closed this tick — and a fresh accept
        // may have recycled its fd number. Only the session the revents
        // were polled for may act on them.
        auto live = sessions.find(fd);
        if (live == sessions.end() ||
            live->second.generation != session_gens[i]) {
          continue;
        }
        if (p.revents & (POLLERR | POLLNVAL)) {
          CloseSession(fd);
          continue;
        }
        if (p.revents & POLLOUT) {
          auto it = sessions.find(fd);
          if (it != sessions.end() && !FlushSession(fd, it->second)) {
            CloseSession(fd);
            continue;
          }
        }
        if (p.revents & (POLLIN | POLLHUP)) HandleReadable(fd);
      }
      SweepSessions(Clock::now());

      uint64_t pending = 0;
      for (auto& [fd, s] : sessions) {
        pending += s.outbuf.size() - s.out_off;
      }
      pending_out_bytes.store(pending, std::memory_order_relaxed);
      PublishMetrics(loop_metrics);
    }
    PublishMetrics(loop_metrics);
    // Shutdown: drop every session and the listening socket.
    for (auto& [fd, s] : sessions) {
      s.cancel.Cancel();
      ::close(fd);
    }
    sessions.clear();
    session_count.store(0, std::memory_order_relaxed);
    listener.Close();
  }

  // --- worker side -----------------------------------------------------------

  void WorkerLoop(size_t worker_index) {
    // Private registry, same discipline as the event loop's: the selection
    // pipeline's ParallelFor threads record into it too, but they join
    // before RunCatapultSelection returns, so publishing after each job
    // observes fully-quiesced shards.
    obs::MetricsRegistry worker_metrics;
    obs::ScopedMetricsScope metrics_scope(&worker_metrics);
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [this] {
          return !queue.empty() || workers_stop.load(std::memory_order_relaxed);
        });
        if (queue.empty()) return;  // workers_stop and nothing left
        job = std::move(queue.front());
        queue.pop_front();
        active_jobs++;
        running[worker_index] = job.cancel;
      }
      RunJob(job, worker_metrics, worker_index);
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        active_jobs--;
        running[worker_index] = CancelToken();
      }
    }
  }

  void RunJob(const Job& job, obs::MetricsRegistry& metrics,
              size_t worker_index) {
    // Test hook: hold the job so chaos tests can pile up the queue or
    // disconnect the client mid-request.
    while (CATAPULT_FAILPOINT("serve.worker_hold") && !job.cancel.Cancelled() &&
           !workers_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Completed done;
    done.fd = job.fd;
    done.generation = job.generation;
    if (!job.cancel.Cancelled() &&
        !workers_stop.load(std::memory_order_relaxed)) {
      const double queue_wait_ms = MillisSince(job.admitted, Clock::now());
      obs::Observe(obs::Hist::kServeQueueWaitMillis,
                   static_cast<uint64_t>(queue_wait_ms));
      const CatapultOptions opts = RequestOptions(job.request);
      obs::Tracer* tracer = options.enable_tracing ? &self->tracer_ : nullptr;
      // The request span parents under the client's propagated span id —
      // ids are only meaningful within one trace id, which the request
      // carries alongside.
      obs::Span request_span(tracer, "serve.request",
                             job.request.parent_span_id);
      RunContext ctx(job.deadline, job.cancel, memory);
      ctx = ctx.WithObservability(&metrics, tracer);
      const Clock::time_point run_start = Clock::now();
      const CatapultResult result =
          RunCatapultSelection(*db, *corpus, opts, ctx);

      Panel panel;
      panel.degraded = result.execution.Degraded();
      panel.labels = label_names;
      panel.patterns = result.selection.patterns;
      const std::string panel_bytes = EncodePanel(panel);
      // Degraded panels are one deadline's best effort, not the answer for
      // this budget; caching them would freeze the degradation.
      if (!panel.degraded) CacheInsert(job.request, panel_bytes);

      MineReply reply;
      reply.cache_hit = false;
      reply.panel = panel_bytes;
      done.bytes =
          dist::EncodeFrame(dist::FrameType::kServeResponse, Encode(reply));
      obs::Count(obs::Counter::kServeResponses);
      if (panel.degraded) obs::Count(obs::Counter::kServeDegraded);
      obs::Observe(obs::Hist::kServeRequestMillis,
                   static_cast<uint64_t>(
                       MillisSince(job.admitted, Clock::now())));
      request_span.Close();
      const double run_ms = MillisSince(run_start, Clock::now());
      const bool slow =
          options.slow_request_ms > 0.0 && run_ms > options.slow_request_ms;
      if (slow) obs::Count(obs::Counter::kServeSlowRequests);
      obs::RequestLogEvent ev;
      ev.request_id = job.request_id;
      ev.budget_key = BudgetKey(job.request);
      ev.outcome = panel.degraded ? "degraded" : "ok";
      ev.queue_wait_ms = queue_wait_ms;
      ev.run_ms = run_ms;
      ev.panel_patterns = panel.patterns.size();
      ev.panel_bytes = panel_bytes.size();
      ev.worker = static_cast<int>(worker_index);
      ev.slow = slow;
      ev.trace_id = job.request.trace_id;
      ev.parent_span_id = job.request.parent_span_id;
      LogRequest(ev);
    }
    // Publish before queueing the completion: once a client can observe
    // the reply, this job's counters are already visible in Metrics().
    PublishMetrics(metrics);
    {
      std::lock_guard<std::mutex> lock(completed_mutex);
      completed.push_back(std::move(done));
    }
    Wake();
  }

  // True when no work is queued, running, or waiting to be written.
  bool Quiesced() {
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (!queue.empty() || active_jobs != 0) return false;
    }
    {
      std::lock_guard<std::mutex> lock(completed_mutex);
      if (!completed.empty()) return false;
    }
    return pending_out_bytes.load(std::memory_order_relaxed) == 0;
  }
};

Server::Server() = default;

Server::~Server() { Stop(); }

std::string Server::Start(const GraphDatabase& db, const ServeOptions& options,
                          const PreparedCorpus* prepared) {
  if (started_) return "already started";
  if (options.socket_path.empty()) return "options: socket_path is required";
  // Checked before anything is prepared, bound or spawned: Start makes one
  // thread per worker.
  if (options.worker_threads > ThreadPool::kMaxThreads) {
    return "options: worker_threads: must not exceed "
           "ThreadPool::kMaxThreads (256)";
  }
  {
    const std::vector<OptionsError> errors =
        ValidateCatapultOptions(options.pipeline);
    if (!errors.empty()) {
      return "options: " + errors.front().field + ": " +
             errors.front().message;
    }
  }

  auto impl = std::make_unique<Impl>();
  impl->self = this;
  impl->db = &db;
  impl->options = options;
  if (impl->options.worker_threads == 0) impl->options.worker_threads = 1;
  if (impl->options.max_queue_depth == 0) impl->options.max_queue_depth = 1;
  if (impl->options.max_sessions == 0) impl->options.max_sessions = 1;

  dist::Address address;
  if (!dist::ParseAddress("unix:" + options.socket_path, &address, nullptr)) {
    return "options: socket_path too long for AF_UNIX";
  }

  if (options.pipeline.mem_hard_limit_bytes != 0 ||
      options.pipeline.mem_soft_limit_bytes != 0) {
    impl->memory = MemoryBudget::Limited(options.pipeline.mem_soft_limit_bytes,
                                         options.pipeline.mem_hard_limit_bytes);
  }

  if (prepared != nullptr) {
    if (!prepared->ok()) return "options: prepared corpus carries errors";
    impl->corpus = prepared;
  } else {
    RunContext prepare_ctx(Deadline::Infinite(), CancelToken(), impl->memory);
    prepare_ctx = prepare_ctx.WithObservability(&metrics_, &tracer_);
    impl->owned_corpus = PrepareCorpus(db, options.pipeline, prepare_ctx);
    if (!impl->owned_corpus.ok()) {
      return "options: " + impl->owned_corpus.option_errors.front().field +
             ": " + impl->owned_corpus.option_errors.front().message;
    }
    impl->corpus = &impl->owned_corpus;
  }

  const LabelMap& labels = db.labels();
  impl->label_names.reserve(labels.size());
  for (size_t l = 0; l < labels.size(); ++l) {
    impl->label_names.push_back(labels.Name(static_cast<Label>(l)));
  }

  // Listen replaces a stale socket file at the path; Close unlinks it.
  const std::string listen_error = impl->listener.Listen(address);
  if (!listen_error.empty()) return listen_error;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return std::string("pipe: ") + std::strerror(errno);
  }
  impl->wake_read = pipe_fds[0];
  impl->wake_write = pipe_fds[1];
  SetNonBlocking(impl->wake_read);
  SetNonBlocking(impl->wake_write);

  socket_path_ = options.socket_path;
  impl_ = std::move(impl);
  impl_->start_time = Clock::now();
  // Deterministic trace id for the serving process: the corpus fingerprint
  // folded with the seed, matching what a one-shot run of the same config
  // would stamp, so client and server trace files correlate.
  if (options.enable_tracing && tracer_.trace_id() == 0) {
    tracer_.SetTraceId(impl_->corpus->fingerprint ^ options.pipeline.seed);
  }
  if (!options.request_log_path.empty()) {
    const std::string log_err = impl_->reqlog.Start(options.request_log_path);
    if (!log_err.empty()) return "request-log: " + log_err;
  }
  if (!options.admin_listen.empty()) {
    const std::string admin_err = impl_->admin.Start(
        options.admin_listen, [impl = impl_.get()](const std::string& path) {
          return impl->HandleAdmin(path);
        });
    if (!admin_err.empty()) return "admin: " + admin_err;
  }
  impl_->running.resize(impl_->options.worker_threads);
  impl_->event_thread = std::thread([this] { impl_->EventLoop(); });
  impl_->workers.reserve(impl_->options.worker_threads);
  for (size_t i = 0; i < impl_->options.worker_threads; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->WorkerLoop(i); });
  }
  started_ = true;
  return "";
}

void Server::BeginDrain() {
  if (impl_ == nullptr) return;
  draining_.store(true, std::memory_order_relaxed);
  impl_->Wake();
}

void Server::Stop() {
  if (impl_ == nullptr || impl_->stopped) return;
  BeginDrain();
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             impl_->options.drain_timeout_ms));
  while (Clock::now() < give_up && !impl_->Quiesced()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Whatever survived the drain window is cancelled, not awaited.
  impl_->workers_stop.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    for (Impl::Job& job : impl_->queue) job.cancel.Cancel();
    impl_->queue.clear();
    for (CancelToken& token : impl_->running) token.Cancel();
  }
  impl_->queue_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  impl_->loop_stop.store(true, std::memory_order_relaxed);
  impl_->Wake();
  // Start may fail between installing impl_ and spawning threads (request
  // log / admin endpoint errors), so the joins must tolerate never-started
  // threads.
  if (impl_->event_thread.joinable()) impl_->event_thread.join();
  impl_->admin.Stop();
  impl_->reqlog.Stop();  // flushes the queue
  impl_->stopped = true;
}

size_t Server::active_sessions() const {
  return impl_ ? impl_->session_count.load(std::memory_order_relaxed) : 0;
}

size_t Server::queue_depth() const {
  return impl_ ? impl_->QueueDepth() : 0;
}

obs::MetricsSnapshot Server::Metrics() const {
  // metrics_ holds only what corpus preparation recorded, single-threaded
  // inside Start; nothing writes it once the serve threads exist, so this
  // Snapshot honours the registry's quiescence contract. Everything the
  // serve threads record arrives via their published deltas.
  obs::MetricsSnapshot out = metrics_.Snapshot();
  if (impl_ != nullptr) {
    std::lock_guard<std::mutex> lock(impl_->metrics_mutex);
    out.MergeFrom(impl_->published);
  }
  return out;
}

const PreparedCorpus& Server::corpus() const {
  static const PreparedCorpus kEmpty;
  return impl_ && impl_->corpus ? *impl_->corpus : kEmpty;
}

}  // namespace catapult::serve
