#include "src/dist/net_worker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/dist/channel.h"
#include "src/dist/worker.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/backoff.h"
#include "src/util/deadline.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"

#include <signal.h>

namespace catapult::dist {

namespace {

// How long a member waits for the supervisor's answer to its JoinRequest.
constexpr double kHandshakeTimeoutMs = 5000.0;

void SleepMillis(double ms) {
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

// True when every cluster index and member id in `assign` addresses `db`
// and a fine-enabled assign splits to at least 2 graphs per cluster. A
// coarse partition of `db` has at most db.size() clusters, member ids index
// the database and FineCluster CHECKs the size, so a skewed or hostile
// supervisor must earn a protocol exit here rather than an out-of-range
// read or a CHECK failure deep in the pipeline.
bool AssignFitsDatabase(const ShardAssignFrame& assign, size_t db_size) {
  if (assign.fine_enabled && assign.fine_max_cluster_size < 2) return false;
  for (const ClusterWork& c : assign.clusters) {
    if (c.index >= db_size) return false;
    for (GraphId id : c.members) {
      if (id >= db_size) return false;
    }
  }
  return true;
}

// Carries one ShardAssign: computes every cluster on a pool of
// `assign.threads` threads and ships each result as it completes. Returns
// true while the connection is still usable, false when it was
// (deliberately or not) lost and the caller should reconnect.
//
// The failure sites fire only on a shard's first attempt: a local member
// inherits the supervisor's armed table on every fork, so a count would
// re-arm in each respawned process, while a retry always carries
// attempt > 0. Only the duplication sites, which never fail a shard, stay
// ungated; the quarantine path is driven by the supervisor-side persist
// sites, which fail every attempt.
bool CarryShard(const GraphDatabase& db, const RemoteWorkerOptions& options,
                const ShardAssignFrame& assign, double heartbeat_timeout_ms,
                Channel& channel, obs::MetricsRegistry& metrics) {
  const bool first_attempt = assign.attempt == 0;
  FineClusteringOptions fine;
  fine.max_cluster_size = assign.fine_max_cluster_size;
  fine.mcs.connected = assign.mcs_connected;
  fine.mcs.match_edge_labels = assign.mcs_match_edge_labels;
  fine.mcs.node_budget = assign.mcs_node_budget;

  MemoryBudget budget =
      (assign.mem_soft_limit_bytes != 0 || assign.mem_hard_limit_bytes != 0)
          ? MemoryBudget::Limited(assign.mem_soft_limit_bytes,
                                  assign.mem_hard_limit_bytes)
          : MemoryBudget::Unlimited();
  Deadline deadline = assign.deadline_remaining_ms > 0.0
                          ? Deadline::AfterMillis(assign.deadline_remaining_ms)
                          : Deadline::Infinite();
  // Created here, after any fork: a forked member starts with one thread
  // and every thread it runs is its own.
  ThreadPool pool(std::max<uint64_t>(assign.threads, 1));
  RunContext ctx = RunContext(deadline)
                       .WithMemory(std::move(budget))
                       .WithPool(&pool)
                       .WithObservability(&metrics, nullptr);

  // With one thread, spans are recorded on this session thread in cluster
  // order, so span ids and tick consumption are deterministic for a given
  // assignment — the basis for byte-stable merged traces under fixed ticks.
  obs::Tracer tracer;
  obs::Tracer* span_sink =
      assign.trace_id != 0 || options.local_tracer != nullptr ? &tracer
                                                              : nullptr;

  // Shipping is serialised, so the chaos sites see one result at a time
  // and nothing is sent after the connection was dropped or the shard
  // degraded.
  std::mutex ship_mutex;
  bool first_result = true;
  bool lost = false;
  std::string shard_error;
  ParallelFor(ctx, assign.clusters.size(), 1, [&](size_t i) {
    {
      std::lock_guard<std::mutex> lock(ship_mutex);
      if (lost || !shard_error.empty()) return;
    }
    const ClusterWork& work = assign.clusters[i];
    size_t idx = static_cast<size_t>(work.index);
    obs::Span cluster_span(span_sink, "cluster-" + std::to_string(idx));
    ShardClusterResult result = ComputeShardCluster(
        db, work.members, assign.fine_enabled ? &work.stream : nullptr, fine,
        ctx);
    std::lock_guard<std::mutex> lock(ship_mutex);
    if (lost || !shard_error.empty()) return;
    if (!result.Complete()) {
      // Degraded work never ships: the supervisor retries elsewhere or
      // degrades under its own context via the fallback ladder.
      shard_error = "cluster " + std::to_string(idx) +
                    " degraded (stop requested)";
      return;
    }
    ClusterResultFrame out;
    out.shard = assign.shard;
    out.generation = assign.generation;
    out.cluster_index = idx;
    out.payload = EncodeShardResultPayload(idx, work.members, result);
    std::string bytes = EncodeFrame(FrameType::kClusterResult, Encode(out));

    if (first_attempt && first_result &&
        CATAPULT_FAILPOINT(kFailpointStallBeforeResult)) {
      // Hold every frame (results and, by test arrangement, heartbeats)
      // past the supervisor's deadline: by the time these bytes land the
      // generation is fenced and they must be counted, not applied.
      SleepMillis(options.stall_test_ms > 0.0 ? options.stall_test_ms
                                              : heartbeat_timeout_ms * 2.5);
    }
    if (first_attempt && CATAPULT_FAILPOINT(kFailpointDropMidFrame)) {
      // Die halfway through a frame: the supervisor sees a truncated
      // buffer (dead peer, not corruption) and reassigns the shard.
      channel.SendEncoded(bytes.substr(0, bytes.size() / 2));
      channel.Close();
      lost = true;
      return;
    }
    if (!channel.SendEncoded(bytes)) {
      lost = true;
      return;
    }
    if (CATAPULT_FAILPOINT(kFailpointDupClusterResult)) {
      // Duplicate delivery (e.g. an ambiguous timeout followed by a
      // resend): the supervisor must treat results as idempotent.
      channel.SendEncoded(bytes);
    }
    if (first_attempt && first_result &&
        CATAPULT_FAILPOINT(kFailpointKillAfterFirstResult)) {
      ::raise(SIGKILL);
    }
    first_result = false;
  });
  if (lost) return false;
  if (!shard_error.empty()) {
    channel.Send(ShardErrorFrame{shard_error}, FrameType::kShardError);
    return true;  // connection is fine; supervisor decides what's next
  }

  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  ShardDoneFrame done;
  done.shard = assign.shard;
  done.counters.assign(snapshot.counters.begin(), snapshot.counters.end());
  done.trace_id = assign.trace_id;
  std::vector<obs::SpanRecord> spans;
  if (span_sink != nullptr) spans = tracer.DrainSpans();
  if (assign.trace_id != 0) done.spans = spans;
  std::string done_bytes = EncodeFrame(FrameType::kShardDone, Encode(done));
  bool sent = channel.SendEncoded(done_bytes);
  if (sent && CATAPULT_FAILPOINT(kFailpointDupShardDone)) {
    // At-least-once completion delivery: the supervisor must merge this
    // shard's spans and counters exactly once, not twice.
    channel.SendEncoded(done_bytes);
  }
  // Worker-local capture for --metrics-out/--trace-out: the same deltas and
  // spans the supervisor merges, kept per process.
  if (options.accumulate != nullptr) options.accumulate->MergeFrom(snapshot);
  if (options.local_tracer != nullptr && !spans.empty()) {
    const int pid = static_cast<int>(2 + assign.shard);
    options.local_tracer->SetProcessName(
        pid, "catapult shard " + std::to_string(assign.shard));
    options.local_tracer->ImportShardSpans(
        spans, pid, 0, "shard-" + std::to_string(assign.shard), 0);
  }
  // Counters are per-shard deltas; a member carrying several shards must
  // not re-ship the first shard's work.
  metrics.Reset();
  return sent;
}

// What a Shutdown frame asks of the member: reconnect and rejoin at a bumped
// generation (-1) when fenced, a clean exit when the run is done or
// cancelled, the protocol exit code when it does not decode.
int ShutdownExit(const Frame& frame) {
  ShutdownFrame f;
  if (!Decode(frame.payload, &f)) return kWorkerExitProtocol;
  return f.code == static_cast<uint32_t>(ShutdownCode::kFenced) ? -1 : 0;
}

// One connected session: handshake already accepted; heartbeats + shard
// carrying until shutdown or connection loss. Returns the process exit
// code, or -1 to reconnect.
int RunSession(const GraphDatabase& db, const RemoteWorkerOptions& options,
               Channel& channel, FrameReader& reader,
               const JoinAcceptFrame& accept) {
  obs::MetricsRegistry metrics;
  obs::ScopedMetricsScope metrics_scope(&metrics);

  // True while carrying a shard's first attempt: the heartbeat-delay site
  // is one-shot per shard like the sites in CarryShard.
  std::atomic<bool> first_attempt{false};
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool stop_heartbeat = false;
  std::thread heartbeat([&] {
    auto interval = std::chrono::duration<double, std::milli>(
        std::max(accept.heartbeat_interval_ms, 1.0));
    std::unique_lock<std::mutex> lock(hb_mutex);
    while (!stop_heartbeat) {
      if (first_attempt.load(std::memory_order_relaxed) &&
          CATAPULT_FAILPOINT(kFailpointDelayHeartbeat)) {
        // A long GC-style pause on the heartbeat path: silent well past
        // the supervisor's deadline, then business as usual.
        lock.unlock();
        SleepMillis(accept.heartbeat_timeout_ms * 2.5);
        lock.lock();
        if (stop_heartbeat) break;
      }
      channel.Send(HeartbeatFrame{}, FrameType::kHeartbeat);
      hb_cv.wait_for(lock, interval, [&] { return stop_heartbeat; });
    }
  });
  auto stop_hb = [&] {
    {
      std::lock_guard<std::mutex> lock(hb_mutex);
      stop_heartbeat = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
  };

  for (;;) {
    // No timeout: only a frame or a lost connection ends the wait. A
    // Shutdown read just before the connection broke is still obeyed.
    Frame frame;
    if (WaitFrame(channel, reader, 0.0, &frame) != WaitStatus::kFrame ||
        (channel.failed() && frame.type != FrameType::kShutdown)) {
      stop_hb();
      return -1;
    }
    switch (frame.type) {
      case FrameType::kShardAssign: {
        ShardAssignFrame assign;
        if (!Decode(frame.payload, &assign) ||
            !AssignFitsDatabase(assign, db.size())) {
          stop_hb();
          return kWorkerExitProtocol;
        }
        first_attempt.store(assign.attempt == 0, std::memory_order_relaxed);
        const bool usable =
            CarryShard(db, options, assign, accept.heartbeat_timeout_ms,
                       channel, metrics);
        first_attempt.store(false, std::memory_order_relaxed);
        if (!usable) {
          stop_hb();
          return -1;
        }
        break;
      }
      case FrameType::kShutdown:
        stop_hb();
        return ShutdownExit(frame);
      default:
        break;  // nothing else is addressed to an active worker
    }
  }
}

// Handshake + session over one connected fd (owned from here on). Returns
// the process exit code, or -1 when the connection was lost or fenced and
// the caller may redial. `*joined` reports whether the supervisor admitted
// this connection; the (worker-id, generation) pair it was admitted under
// is left in `*identity` for the next rejoin.
int ServeConnection(const GraphDatabase& db,
                    const RemoteWorkerOptions& options, int fd,
                    JoinAcceptFrame* identity, bool* joined) {
  *joined = false;
  Channel channel(fd);
  JoinRequestFrame req;
  req.protocol = options.protocol;
  req.fingerprint = options.fingerprint;
  req.worker_name = options.worker_name;
  req.prev_worker_id = identity->worker_id;
  req.prev_generation = identity->generation;
  if (!channel.Send(req, FrameType::kJoinRequest)) return -1;
  FrameReader reader;
  Frame reply;
  switch (WaitFrame(channel, reader, kHandshakeTimeoutMs, &reply)) {
    case WaitStatus::kFrame:
      break;
    case WaitStatus::kClosed:
    case WaitStatus::kCorrupt:
      // The supervisor read the request and hung up, or answered in bytes
      // this build cannot frame: a protocol failure, not an unreachable
      // supervisor, and redialing cannot help.
      return kWorkerExitProtocol;
    default:
      return -1;  // no answer yet: redial
  }
  if (reply.type == FrameType::kJoinReject) {
    return kWorkerExitRejected;  // typed refusal: retrying cannot help
  }
  // A member that knocks as the run ends is told so before it joins.
  if (reply.type == FrameType::kShutdown) return ShutdownExit(reply);
  if (reply.type != FrameType::kJoinAccept) return kWorkerExitProtocol;
  JoinAcceptFrame accept;
  if (!Decode(reply.payload, &accept)) return kWorkerExitProtocol;
  *joined = true;
  *identity = accept;
  return RunSession(db, options, channel, reader, accept);
}

}  // namespace

int RunRemoteWorker(const GraphDatabase& db,
                    const RemoteWorkerOptions& options) {
  ::signal(SIGPIPE, SIG_IGN);
  Address addr;
  std::string err;
  if (!ParseAddress(options.address, &addr, &err)) {
    return kWorkerExitConnectFailed;
  }
  ExponentialBackoff backoff(options.dial_backoff_base_ms,
                             options.dial_backoff_cap_ms);
  JoinAcceptFrame identity;  // zero ids: a fresh join
  size_t failures = 0;
  for (;;) {
    if (failures > options.max_dial_attempts) return kWorkerExitConnectFailed;
    // Deterministic capped pacing: attempt n always waits the same delay,
    // whatever generation the worker is rejoining at.
    SleepMillis(backoff.DelayMs(failures));
    std::string dial_err;
    int fd = Dial(addr, options.dial_timeout_ms, &dial_err);
    if (fd < 0) {
      ++failures;
      continue;
    }
    bool joined = false;
    int code = ServeConnection(db, options, fd, &identity, &joined);
    if (code >= 0) return code;
    // Lost or fenced: reconnect with the previous identity. A successful
    // join restarts the failure count.
    failures = joined ? 1 : failures + 1;
  }
}

int RunLocalWorker(const GraphDatabase& db,
                   const RemoteWorkerOptions& options, int fd) {
  ::signal(SIGPIPE, SIG_IGN);
  JoinAcceptFrame identity;  // zero ids: a fresh join
  bool joined = false;
  int code = ServeConnection(db, options, fd, &identity, &joined);
  // No redial: the supervisor replaces a lost local member itself.
  return code >= 0 ? code : kWorkerExitConnectFailed;
}

}  // namespace catapult::dist
