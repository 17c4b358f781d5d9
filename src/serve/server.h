#ifndef CATAPULT_SERVE_SERVER_H_
#define CATAPULT_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/core/catapult.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

// Resident pattern-selection service (DESIGN.md §13). A Server loads a
// graph database once, prepares the budget-independent clustering/CSG
// corpus, then answers "canned-pattern panel for budget (eta_min, eta_max,
// gamma)" requests over a Unix-domain socket speaking the CTWF-framed
// protocol of serve/protocol.h.
//
// The robustness envelope, in admission order:
//   - undecodable frame/payload -> poisoned stream, that client is dropped;
//     the process never dies from peer bytes
//   - invalid budget -> ErrorReply, connection stays healthy
//   - draining -> ShedReply(kDraining)
//   - cache hit -> answered from the event loop, no worker touched
//   - queue at max_queue_depth or memory pressure -> ShedReply with
//     retry_after_ms (explicit load shedding, not silent queueing)
//   - admitted -> bounded queue -> worker runs RunCatapultSelection under
//     the request deadline; expiry yields a degraded-but-valid anytime
//     panel, never a timeout error
// Slow clients hit a write timeout, idle ones are reaped, and a client
// disconnect cancels its in-flight work. BeginDrain/Stop implement the
// SIGTERM story: stop accepting, finish or shed in-flight, then exit with
// metrics intact.
//
// Failpoints (tests/serve_test.cc, scripts/serve_stress.sh):
//   serve.accept_fail      accept() reports EMFILE -> cooldown, not spin
//   serve.overload         admission sees the queue as full
//   serve.memory_pressure  admission sees memory pressure
//   serve.write_stall      socket writes make no progress (slow client)
//   serve.worker_hold      workers hold jobs (pile-up / disconnect window)

namespace catapult::serve {

struct ServeOptions {
  // Filesystem path of the Unix-domain listening socket. Created on Start
  // (an existing stale socket file is replaced), unlinked on Stop.
  std::string socket_path;

  // Worker threads executing selection jobs: 0 runs one, and more than
  // ThreadPool::kMaxThreads (256) is an options error from Start.
  size_t worker_threads = 2;

  // Admission queue capacity; a request arriving past it is shed.
  size_t max_queue_depth = 16;

  // Concurrent session cap; extra connections get ShedReply(kSessionLimit).
  size_t max_sessions = 64;

  // Keyed result cache: complete panels per (eta_min, eta_max, gamma),
  // evicted least-recently-used. 0 disables caching.
  size_t cache_capacity = 32;

  // Per-request deadline applied when the request carries none (0 = no
  // default), and the cap on client-supplied deadlines (0 = uncapped).
  double default_deadline_ms = 0.0;
  double max_deadline_ms = 0.0;

  // Backoff hint carried in ShedReply.
  double retry_after_ms = 100.0;

  // A session with no traffic and no in-flight work for this long is
  // disconnected (0 = never).
  double idle_timeout_ms = 0.0;

  // A session whose pending reply bytes make no write progress for this
  // long is disconnected.
  double write_timeout_ms = 5000.0;

  // How long Stop waits for in-flight work and pending replies before
  // cancelling what remains.
  double drain_timeout_ms = 2000.0;

  // Pause before retrying accept() after EMFILE-class failures, so a
  // descriptor-exhausted server backs off instead of spinning.
  double accept_retry_ms = 50.0;

  // Pipeline configuration: clustering/sampling options and seed used to
  // prepare the corpus; selector options other than the budget (walks,
  // decay) used for every request. Per-request deadlines come from the
  // protocol, so pipeline.deadline_ms applies to corpus preparation only.
  CatapultOptions pipeline;

  // --- Observability (DESIGN.md §16) ----------------------------------------
  // Admin endpoint ("unix:PATH" / "tcp:HOST:PORT"; empty = disabled)
  // serving /metrics (Prometheus text), /statusz (JSON) and /healthz on its
  // own listener + thread, scrape-safe while requests are in flight.
  std::string admin_listen;
  // Structured request log: one JSONL line per served/shed/failed request,
  // appended asynchronously (empty = disabled).
  std::string request_log_path;
  // Requests whose selection runtime exceeds this are counted
  // (serve.slow_requests) and flagged slow=true in the request log
  // (0 = never).
  double slow_request_ms = 0.0;
  // Record per-request spans (plus the selection pipeline's spans) into
  // tracer(). Off by default: a loaded server's span buffer grows without
  // bound until the owner writes/clears it.
  bool enable_tracing = false;
};

// The resident server. Start spawns the event-loop and worker threads and
// returns; the caller owns lifetime and calls Stop (or destroys the
// Server) to shut down. Thread-safe: BeginDrain/Stop/observers may be
// called from any thread (e.g. a signal-watcher).
class Server {
 public:
  Server();
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket, prepares the corpus from `db` (or adopts `prepared`,
  // which must outlive the server and match options.pipeline), and starts
  // serving. Returns an empty string on success, else a reason ("options:
  // ...", "bind: ...", "unsupported platform"). `db` must outlive the
  // server.
  std::string Start(const GraphDatabase& db, const ServeOptions& options,
                    const PreparedCorpus* prepared = nullptr);

  // Stops accepting connections and sheds new requests with kDraining;
  // in-flight and queued work still completes. Idempotent.
  void BeginDrain();

  // BeginDrain, wait up to drain_timeout_ms for the queue, workers, and
  // pending replies to quiesce, cancel whatever remains, join all threads,
  // unlink the socket. Idempotent; the destructor calls it.
  void Stop();

  bool started() const { return started_; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  const std::string& socket_path() const { return socket_path_; }

  // Live session / queue observers (approximate across threads).
  size_t active_sessions() const;
  size_t queue_depth() const;

  // Merged metrics: corpus preparation plus serve.* and every pipeline
  // counter the selection jobs recorded. Safe to call from any thread at
  // any time — serve threads publish deltas (the event loop once per poll
  // tick, workers before each reply is queued), so a counter for a reply
  // the client has observed is already visible, while event-loop counters
  // (accepts, disconnects, sheds and cache hits answered inline) may
  // trail the observable effect by one poll tick.
  // After Stop the snapshot is exact.
  obs::MetricsSnapshot Metrics() const;

  // Corpus preparation diagnostics (valid after a successful Start).
  const PreparedCorpus& corpus() const;

  // The server's tracer: corpus-preparation spans always land here, and
  // per-request spans do when options.enable_tracing is set. Thread-safe to
  // write into; owners typically WriteFile after Stop (--trace-out).
  obs::Tracer* tracer() { return &tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;

  bool started_ = false;
  std::atomic<bool> draining_{false};
  std::string socket_path_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
};

}  // namespace catapult::serve

#endif  // CATAPULT_SERVE_SERVER_H_
