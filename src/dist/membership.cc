#include "src/dist/membership.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/core/catapult.h"
#include "src/dist/channel.h"
#include "src/dist/net_worker.h"
#include "src/dist/registry.h"
#include "src/dist/wire.h"
#include "src/obs/admin.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/persist/checkpoint.h"
#include "src/util/backoff.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace catapult::dist {

namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::time_point AfterMillis(Clock::time_point from, double ms) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

std::string DescribeWaitStatus(int status) {
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "exit code " + std::to_string(WEXITSTATUS(status));
}

}  // namespace

FleetOutcome RunFleet(
    const ShardExecutionSpec& spec, const ShardPlan& plan,
    const CatapultOptions& options, uint64_t fingerprint,
    const RunContext& ctx, DistReport* report,
    std::vector<std::optional<ShardClusterResult>>* cluster_results) {
  FleetOutcome outcome;

  // A local fleet is forked by the loop itself. A remote one (a listen
  // endpoint or an adopted listening fd) dials in, and nothing is forked.
  const bool local = !report->remote;
  Listener listener;
  if (options.dist_listen_fd >= 0) {
    listener.Adopt(options.dist_listen_fd);
  } else if (!local) {
    Address addr;
    std::string err;
    if (!ParseAddress(options.dist_listen, &addr, &err) ||
        !(err = listener.Listen(addr)).empty()) {
      // An unusable listener is fleet loss before the fleet existed; the
      // caller's fallback rungs finish the run.
      report->events.push_back(ShardEvent{ShardEvent::Kind::kFleetLost, 0,
                                          "listener: " + err});
      outcome.fleet_lost = true;
      return outcome;
    }
  }
  report->listen_address = listener.address();

  // Optional live-telemetry endpoint: the handler runs on the admin
  // server's own thread and only ever reads the latest published strings,
  // so the supervision loop never blocks on a scrape. Remote fleets only:
  // a local fleet forks, and the supervision thread must be the only
  // thread in the process when it does.
  // Declared before `admin` so the server (whose handler thread reads
  // them) is destroyed first on every return path.
  std::mutex admin_mutex;
  std::string admin_metrics_text;
  std::string admin_statusz;
  obs::AdminServer admin;
  const Clock::time_point admin_started = Clock::now();
  if (!local && !options.dist_admin_listen.empty()) {
    std::string admin_err = admin.Start(
        options.dist_admin_listen, [&](const std::string& path) {
          obs::AdminResponse resp;
          std::lock_guard<std::mutex> lock(admin_mutex);
          if (path == "/metrics") {
            resp.body = admin_metrics_text;
          } else if (path == "/statusz") {
            resp.body = admin_statusz;
            resp.content_type = "application/json";
          } else {
            resp.status = 404;
            resp.body = "not found\n";
          }
          return resp;
        });
    if (!admin_err.empty()) {
      // Best-effort: telemetry must never take down the fleet.
      std::fprintf(stderr, "catapult: dist admin endpoint unavailable: %s\n",
                   admin_err.c_str());
    }
  }

  // Members heartbeat four times per deadline, and compute on as many
  // threads as the run would in-process.
  const double heartbeat_timeout_ms = options.shard_heartbeat_timeout_ms;
  const double hb_interval_ms = std::max(heartbeat_timeout_ms / 4.0, 1.0);
  const uint64_t member_threads = ResolveThreadCount(options.threads);

  struct ShardState {
    enum class Phase { kPending, kAssigned, kDone, kQuarantined };
    Phase phase = Phase::kPending;
    size_t attempt = 0;  // failures so far
    Clock::time_point retry_after{};
    std::string last_error;
  };
  using ShardPhase = ShardState::Phase;

  struct Conn {
    enum class State { kHandshaking, kActive, kFenced };
    std::unique_ptr<Channel> channel;
    FrameReader reader;
    State state = State::kHandshaking;
    uint64_t worker_id = 0;
    uint64_t generation = 0;
    Clock::time_point last_heartbeat{};
    Clock::time_point handshake_deadline{};
    // Index into plan.shards, or npos when idle.
    size_t assigned_shard = static_cast<size_t>(-1);
    pid_t pid = -1;  // a local member's process; -1 for remote members
    std::vector<uint64_t> worker_counters;
    // Span buffer + trace-id echo from the last ShardDone; accepted into
    // the outcome only when the echo matches the run's trace id.
    std::vector<obs::SpanRecord> worker_spans;
    uint64_t done_trace_id = 0;
    bool got_done = false;
  };
  using ConnState = Conn::State;
  constexpr size_t kNone = static_cast<size_t>(-1);

  std::vector<ShardState> shards(plan.shards.size());
  std::vector<std::unique_ptr<Conn>> conns;
  WorkerRegistry registry;
  ExponentialBackoff backoff(options.shard_backoff_base_ms,
                             options.shard_backoff_cap_ms);
  outcome.shard_spans.resize(plan.shards.size());

  // Shards whose every cluster already has a result (prior-run records a
  // --resume run pre-loaded) are complete before any worker joins.
  auto shard_missing = [&](size_t s) {
    std::vector<size_t> missing;
    for (size_t idx : plan.shards[s]) {
      if (!(*cluster_results)[idx].has_value()) missing.push_back(idx);
    }
    return missing;
  };
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shard_missing(s).empty()) shards[s].phase = ShardPhase::kDone;
  }

  auto event = [&](ShardEvent::Kind kind, size_t shard,
                   std::string detail = "") {
    report->events.push_back(ShardEvent{kind, shard, std::move(detail)});
  };

  auto quarantine = [&](size_t s, const std::string& reason) {
    shards[s].phase = ShardPhase::kQuarantined;
    shards[s].last_error = reason;
    ++report->quarantined_shards;
    obs::Count(obs::Counter::kDistQuarantines);
    event(ShardEvent::Kind::kShardQuarantined, s, reason);
  };

  auto fail_shard = [&](size_t s, const std::string& reason) {
    ShardState& st = shards[s];
    st.last_error = reason;
    st.phase = ShardPhase::kPending;
    ++st.attempt;
    if (st.attempt > options.max_shard_retries) {
      quarantine(s, "failure budget exhausted after " +
                        std::to_string(st.attempt) + " attempts: " + reason);
      return;
    }
    ++report->shard_retries;
    obs::Count(obs::Counter::kDistShardRetries);
    event(ShardEvent::Kind::kShardRetried, s,
          "attempt=" + std::to_string(st.attempt) + ": " + reason);
    double delay_ms = backoff.DelayMs(st.attempt);
    st.retry_after = AfterMillis(Clock::now(), delay_ms);
    if (delay_ms > 0.0) {
      ++report->backoff_waits;
      report->backoff_total_ms += delay_ms;
      obs::Count(obs::Counter::kDistBackoffWaits);
      char detail[48];
      std::snprintf(detail, sizeof(detail), "delay_ms=%.0f", delay_ms);
      event(ShardEvent::Kind::kBackoffWait, s, detail);
    }
  };

  // Charges a failure that belongs to no shard yet (a local member that
  // could not be forked or died before joining) to the first pending shard,
  // so a fleet that cannot stay up drains through the retry budget into
  // quarantine instead of respawning forever.
  auto fail_pending_shard = [&](const std::string& reason) {
    for (size_t s = 0; s < shards.size(); ++s) {
      if (shards[s].phase == ShardPhase::kPending) {
        fail_shard(s, reason);
        return;
      }
    }
  };

  // Declares a member dead and retires its generation. The connection is
  // kept in a draining state: any frame the zombie still sends is counted
  // as fenced and never applied; the (best-effort) kFenced shutdown tells
  // a live-but-slow worker to reconnect and rejoin.
  auto fence = [&](Conn& c, const std::string& reason) {
    if (c.state == ConnState::kFenced) return;
    if (c.state == ConnState::kActive) {
      registry.MarkDead(c.worker_id, Clock::now());
      if (c.channel->write_stalled()) ++report->write_stalls;
      event(ShardEvent::Kind::kWorkerFenced,
            c.assigned_shard == kNone ? 0 : c.assigned_shard,
            "worker=" + std::to_string(c.worker_id) +
                " gen=" + std::to_string(c.generation) + ": " + reason);
      c.channel->Send(ShutdownFrame{static_cast<uint32_t>(
                                        ShutdownCode::kFenced),
                                    reason},
                      FrameType::kShutdown);
      ++report->worker_deaths;
      obs::Count(obs::Counter::kDistWorkerDeaths);
      if (c.assigned_shard != kNone) {
        fail_shard(c.assigned_shard, reason);
        c.assigned_shard = kNone;
      }
    }
    c.state = ConnState::kFenced;
  };

  auto complete_shard = [&](Conn& c) {
    size_t s = c.assigned_shard;
    shards[s].phase = ShardPhase::kDone;
    for (size_t i = 0;
         i < c.worker_counters.size() && i < obs::kNumCounters; ++i) {
      if (c.worker_counters[i] != 0) {
        obs::Count(static_cast<obs::Counter>(i), c.worker_counters[i]);
      }
    }
    // Span shipment: accept the buffer only when the trace-id echo matches
    // the run and no earlier completion already filled this shard's slot —
    // a duplicate or stale-trace buffer is counted and dropped, never
    // merged twice.
    if (!c.worker_spans.empty()) {
      if (spec.trace_id != 0 && c.done_trace_id == spec.trace_id &&
          outcome.shard_spans[s].empty()) {
        outcome.shard_spans[s] = std::move(c.worker_spans);
      } else {
        obs::Count(obs::Counter::kObsSpansDropped, c.worker_spans.size());
      }
    }
    event(ShardEvent::Kind::kShardCompleted, s,
          "clusters=" + std::to_string(plan.shards[s].size()) +
              " worker=" + std::to_string(c.worker_id));
    c.assigned_shard = kNone;
    c.worker_counters.clear();
    c.worker_spans.clear();
    c.done_trace_id = 0;
    c.got_done = false;
  };

  auto handle_frame = [&](Conn& c, const Frame& frame) {
    // Anything a fenced connection still delivers — or a stale-generation
    // echo racing a reassignment — is observed but never applied.
    bool fenced = c.state == ConnState::kFenced;
    if (!fenced && frame.type == FrameType::kClusterResult) {
      ClusterResultFrame probe;
      if (Decode(frame.payload, &probe) &&
          (probe.generation != c.generation ||
           !registry.IsCurrent(c.worker_id, c.generation))) {
        fenced = true;
      }
    }
    if (fenced) {
      ++report->fenced_frames;
      obs::Count(obs::Counter::kDistNetFencedFrames);
      return;
    }

    if (c.state == ConnState::kHandshaking) {
      if (frame.type != FrameType::kJoinRequest) {
        c.reader.Poison("frame before handshake");
        return;
      }
      JoinRequestFrame req;
      if (!Decode(frame.payload, &req)) {
        c.reader.Poison("bad join-request");
        return;
      }
      JoinRejectFrame reject;
      if (req.protocol != kDistProtocolVersion) {
        reject.code = static_cast<uint32_t>(JoinRejectCode::kProtocolMismatch);
        reject.message = "protocol " + std::to_string(req.protocol) +
                         " != " + std::to_string(kDistProtocolVersion);
      } else if (req.fingerprint != fingerprint) {
        reject.code =
            static_cast<uint32_t>(JoinRejectCode::kFingerprintMismatch);
        reject.message = "config/database fingerprint mismatch";
      }
      if (reject.code != 0) {
        ++report->workers_rejected;
        obs::Count(obs::Counter::kDistNetRejects);
        event(ShardEvent::Kind::kWorkerRejected, 0,
              "name=" + req.worker_name + ": " + reject.message);
        c.channel->Send(reject, FrameType::kJoinReject);
        c.channel->Close();
        c.state = ConnState::kFenced;  // closed; reaped by the cleanup pass
        return;
      }
      WorkerRegistry::Admission adm =
          registry.Join(req.prev_worker_id, req.prev_generation, Clock::now());
      c.state = ConnState::kActive;
      c.worker_id = adm.worker_id;
      c.generation = adm.generation;
      c.last_heartbeat = Clock::now();
      ++report->workers_joined;
      obs::Count(obs::Counter::kDistNetJoins);
      obs::SetGaugeMax(obs::Gauge::kDistWorkersPeak, registry.alive());
      if (adm.reconnect) {
        ++report->reconnects;
        obs::Count(obs::Counter::kDistNetReconnects);
        obs::Observe(obs::Hist::kDistReconnectMillis,
                     static_cast<uint64_t>(adm.down_ms));
        event(ShardEvent::Kind::kWorkerReconnected, 0,
              "worker=" + std::to_string(adm.worker_id) +
                  " gen=" + std::to_string(adm.generation) +
                  " name=" + req.worker_name);
      } else {
        event(ShardEvent::Kind::kWorkerJoined, 0,
              "worker=" + std::to_string(adm.worker_id) +
                  " name=" + req.worker_name);
      }
      JoinAcceptFrame accept;
      accept.worker_id = adm.worker_id;
      accept.generation = adm.generation;
      accept.heartbeat_interval_ms = hb_interval_ms;
      accept.heartbeat_timeout_ms = heartbeat_timeout_ms;
      if (!c.channel->Send(accept, FrameType::kJoinAccept)) {
        fence(c, "join-accept send failed: " + c.channel->error());
      }
      return;
    }

    c.last_heartbeat = Clock::now();  // any live-generation frame is liveness
    switch (frame.type) {
      case FrameType::kHeartbeat: {
        HeartbeatFrame f;
        if (!Decode(frame.payload, &f)) {
          c.reader.Poison("bad heartbeat");
          break;
        }
        ++report->heartbeats;
        obs::Count(obs::Counter::kDistHeartbeats);
        break;
      }
      case FrameType::kClusterResult: {
        ClusterResultFrame f;
        if (!Decode(frame.payload, &f)) {
          c.reader.Poison("bad cluster-result");
          break;
        }
        if (c.assigned_shard == kNone || f.shard != c.assigned_shard ||
            std::find(plan.shards[f.shard].begin(), plan.shards[f.shard].end(),
                      static_cast<size_t>(f.cluster_index)) ==
                plan.shards[f.shard].end()) {
          c.reader.Poison("cluster-result for unassigned work");
          break;
        }
        size_t idx = static_cast<size_t>(f.cluster_index);
        if ((*cluster_results)[idx].has_value()) {
          // Re-delivery (retry crossing a reassignment, or an injected
          // duplicate): results are idempotent by construction.
          ++report->duplicate_clusters;
          obs::Count(obs::Counter::kDistNetDuplicateClusters);
          break;
        }
        // The supervisor side of the trust boundary never believes a
        // member's result it cannot re-derive the binding of: the payload
        // is decoded against the cluster it was assigned for. With a store
        // it is first saved as the cluster's record and read back, so the
        // decoded bytes are the durable ones.
        std::string err;
        if (spec.store != nullptr) {
          err = spec.store->SaveShard(idx, f.payload);
          if (err.empty()) err = spec.store->LoadShard(idx, &f.payload);
        }
        ShardClusterResult result;
        if (err.empty()) {
          err = DecodeShardResultPayload(f.payload, idx, (*spec.coarse)[idx],
                                         &result);
        }
        if (!err.empty()) {
          ++report->artifacts_rejected;
          obs::Count(obs::Counter::kDistArtifactsRejected);
          event(ShardEvent::Kind::kArtifactRejected, f.shard,
                "cluster=" + std::to_string(idx) + ": " + err);
          fence(c, "cluster " + std::to_string(idx) + " rejected: " + err);
          break;
        }
        (*cluster_results)[idx] = std::move(result);
        ++report->remote_clusters;
        obs::Count(obs::Counter::kDistNetRemoteClusters);
        break;
      }
      case FrameType::kShardDone: {
        ShardDoneFrame f;
        if (!Decode(frame.payload, &f)) {
          c.reader.Poison("bad shard-done");
          break;
        }
        if (c.assigned_shard == kNone || f.shard != c.assigned_shard) break;
        c.got_done = true;
        c.worker_counters = std::move(f.counters);
        c.worker_spans = std::move(f.spans);
        c.done_trace_id = f.trace_id;
        if (shard_missing(c.assigned_shard).empty()) {
          complete_shard(c);
        } else {
          fence(c, "shard-done with clusters still missing");
        }
        break;
      }
      case FrameType::kShardError: {
        ShardErrorFrame f;
        if (!Decode(frame.payload, &f)) {
          c.reader.Poison("bad shard-error");
          break;
        }
        if (c.assigned_shard != kNone) {
          fence(c, "worker reported: " + f.message);
        }
        break;
      }
      default:
        // The serve frames have no meaning on a membership connection.
        c.reader.Poison("unexpected frame type");
        break;
    }
  };

  // Snapshot-and-publish for the admin endpoint: one pass over the loop's
  // own state per iteration, stored under the admin mutex for the scrape
  // thread. Cheap enough to run unconditionally per tick.
  auto publish_admin = [&] {
    if (!admin.started()) return;
    std::string metrics_text;
    if (ctx.metrics() != nullptr) {
      metrics_text = obs::RenderPrometheusText(ctx.metrics()->Snapshot());
    }
    size_t done = 0, pending = 0, assigned = 0, quarantined = 0;
    for (const ShardState& st : shards) {
      switch (st.phase) {
        case ShardPhase::kDone: ++done; break;
        case ShardPhase::kPending: ++pending; break;
        case ShardPhase::kAssigned: ++assigned; break;
        case ShardPhase::kQuarantined: ++quarantined; break;
      }
    }
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("uptime_ms");
    w.Value(MillisBetween(admin_started, Clock::now()));
    w.Key("fingerprint");
    w.Value(fingerprint);
    w.Key("listen_address");
    w.Value(listener.address());
    w.Key("shards");
    w.BeginObject();
    w.Key("total");
    w.Value(static_cast<uint64_t>(shards.size()));
    w.Key("done");
    w.Value(static_cast<uint64_t>(done));
    w.Key("pending");
    w.Value(static_cast<uint64_t>(pending));
    w.Key("assigned");
    w.Value(static_cast<uint64_t>(assigned));
    w.Key("quarantined");
    w.Value(static_cast<uint64_t>(quarantined));
    w.EndObject();
    w.Key("remote_clusters");
    w.Value(static_cast<uint64_t>(report->remote_clusters));
    w.Key("workers_alive");
    w.Value(static_cast<uint64_t>(registry.alive()));
    w.Key("workers");
    w.BeginArray();
    for (const WorkerRegistry::MemberInfo& m : registry.Members()) {
      w.BeginObject();
      w.Key("worker_id");
      w.Value(m.worker_id);
      w.Key("generation");
      w.Value(m.generation);
      w.Key("alive");
      w.Value(m.alive);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::string statusz = w.str() + "\n";
    std::lock_guard<std::mutex> lock(admin_mutex);
    admin_metrics_text = std::move(metrics_text);
    admin_statusz = std::move(statusz);
  };
  publish_admin();

  // --- Local fleet ----------------------------------------------------------
  // The only local-specific code: fork a member over a socketpair, and kill
  // + reap it once fenced. Handshake, liveness, fencing and assignment are
  // the loop's own, shared with remote members.
  RemoteWorkerOptions member_options;
  member_options.fingerprint = fingerprint;

  auto spawn = [&]() -> bool {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
    member_options.worker_name =
        "local-" + std::to_string(report->workers_spawned);
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
#if defined(__linux__)
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the supervisor
#endif
      ::close(fds[0]);
      for (auto& c : conns) ::close(c->channel->fd());
      // Never returns into the forked copy of the supervisor's stack;
      // _exit skips atexit handlers (gtest's included).
      ::_exit(RunLocalWorker(*spec.db, member_options, fds[1]));
    }
    ::close(fds[1]);
    auto conn = std::make_unique<Conn>();
    conn->channel = std::make_unique<Channel>(fds[0]);
    conn->pid = pid;
    conn->handshake_deadline = AfterMillis(Clock::now(), heartbeat_timeout_ms);
    conns.push_back(std::move(conn));
    ++report->workers_spawned;
    obs::Count(obs::Counter::kDistWorkersSpawned);
    event(ShardEvent::Kind::kWorkerSpawned, 0, "pid=" + std::to_string(pid));
    return true;
  };

  // SIGKILL, then waitpid. waitpid only reaps here — liveness is the
  // loop's in-band business — and every local member is reaped before the
  // phase returns (RUSAGE_CHILDREN counts reaped children only).
  auto kill_and_reap = [&](Conn& c) {
    ::kill(c.pid, SIGKILL);
    int status = 0;
    while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    c.pid = -1;
    c.channel->Close();
    return status;
  };

  Clock::time_point no_fleet_since = Clock::now();
  bool had_fleet_gap_timer = true;

  for (;;) {
    Clock::time_point now = Clock::now();
    publish_admin();

    size_t unfinished = 0;
    for (const ShardState& st : shards) {
      if (st.phase == ShardPhase::kPending ||
          st.phase == ShardPhase::kAssigned) {
        ++unfinished;
      }
    }
    if (unfinished == 0) {
      for (auto& c : conns) {
        if (c->state == ConnState::kActive) {
          c->channel->Send(ShutdownFrame{static_cast<uint32_t>(
                                             ShutdownCode::kDone),
                                         "run complete"},
                           FrameType::kShutdown);
        }
      }
      break;
    }

    if (ctx.StopRequested("dist.net.supervise")) {
      for (auto& c : conns) {
        if (c->state == ConnState::kActive) {
          c->channel->Send(ShutdownFrame{static_cast<uint32_t>(
                                             ShutdownCode::kCancelled),
                                         "run stop requested"},
                           FrameType::kShutdown);
        }
      }
      break;
    }

    // A local fleet keeps min(processes, unfinished shards) members up:
    // the first pass forks the fleet, later passes replace fenced members.
    if (local) {
      size_t members = 0;
      for (const auto& c : conns) {
        if (c->pid > 0 && c->state != ConnState::kFenced) ++members;
      }
      for (; members < std::min(options.processes, unfinished); ++members) {
        if (!spawn()) {
          fail_pending_shard("fork failed");
          break;
        }
      }
    }

    // Assignment: pending shards (past their backoff) to idle members, in
    // worker-id admission order — deterministic given the same fleet.
    for (size_t s = 0; s < shards.size(); ++s) {
      ShardState& st = shards[s];
      if (st.phase != ShardPhase::kPending || now < st.retry_after) continue;
      Conn* idle = nullptr;
      for (auto& c : conns) {
        if (c->state == ConnState::kActive && c->assigned_shard == kNone &&
            !c->channel->failed()) {
          if (idle == nullptr || c->worker_id < idle->worker_id) {
            idle = c.get();
          }
        }
      }
      if (idle == nullptr) break;
      ShardAssignFrame assign;
      assign.shard = s;
      assign.attempt = st.attempt;
      assign.generation = idle->generation;
      assign.fine_enabled = !spec.streams->empty();
      assign.fine_max_cluster_size = options.clustering.max_cluster_size;
      assign.mcs_connected = options.clustering.fine_mcs.connected;
      assign.mcs_match_edge_labels =
          options.clustering.fine_mcs.match_edge_labels;
      assign.mcs_node_budget = options.clustering.fine_mcs.node_budget;
      assign.deadline_remaining_ms =
          ctx.deadline().infinite() ? 0.0
                                    : ctx.deadline().RemainingSeconds() * 1e3;
      assign.mem_soft_limit_bytes = options.mem_soft_limit_bytes;
      assign.mem_hard_limit_bytes = options.mem_hard_limit_bytes;
      assign.trace_id = spec.trace_id;
      assign.threads = member_threads;
      for (size_t idx : shard_missing(s)) {
        ClusterWork work;
        work.index = idx;
        work.members = (*spec.coarse)[idx];
        if (assign.fine_enabled) work.stream = (*spec.streams)[idx];
        assign.clusters.push_back(std::move(work));
      }
      if (!idle->channel->Send(assign, FrameType::kShardAssign)) {
        fence(*idle, "assign send failed: " + idle->channel->error());
        continue;  // shard stays pending; try the next idle member
      }
      idle->assigned_shard = s;
      idle->got_done = false;
      st.phase = ShardPhase::kAssigned;
      event(ShardEvent::Kind::kShardAssigned, s,
            "worker=" + std::to_string(idle->worker_id) +
                " gen=" + std::to_string(idle->generation) + " clusters=" +
                std::to_string(assign.clusters.size()) +
                " attempt=" + std::to_string(st.attempt));
    }

    // Fleet-loss detection: pending work, nobody alive, nobody knocking.
    bool prospects = false;
    for (const auto& c : conns) {
      if (c->state != ConnState::kFenced) {
        prospects = true;
        break;
      }
    }
    if (prospects) {
      had_fleet_gap_timer = false;
    } else {
      if (!had_fleet_gap_timer) {
        no_fleet_since = now;
        had_fleet_gap_timer = true;
      }
      if (MillisBetween(no_fleet_since, now) >= options.dist_join_timeout_ms) {
        size_t lost = 0;
        for (const ShardState& st : shards) {
          if (st.phase == ShardPhase::kPending ||
              st.phase == ShardPhase::kAssigned) {
            ++lost;
          }
        }
        report->fleet_lost_fallbacks += lost;
        event(ShardEvent::Kind::kFleetLost, 0,
              "no members for " +
                  std::to_string(
                      static_cast<long>(options.dist_join_timeout_ms)) +
                  "ms; " + std::to_string(lost) + " shards fall back");
        outcome.fleet_lost = true;
        break;
      }
    }

    // Poll: listener + every connection, until the nearest deadline.
    double timeout_ms = 50.0;
    for (const auto& c : conns) {
      if (c->state == ConnState::kActive) {
        double until =
            heartbeat_timeout_ms - MillisBetween(c->last_heartbeat, now);
        timeout_ms = std::min(timeout_ms, std::max(until, 0.0));
      } else if (c->state == ConnState::kHandshaking) {
        double until = MillisBetween(now, c->handshake_deadline);
        timeout_ms = std::min(timeout_ms, std::max(until, 0.0));
      }
    }
    for (const ShardState& st : shards) {
      if (st.phase == ShardPhase::kPending) {
        double until = MillisBetween(now, st.retry_after);
        if (until > 0.0) timeout_ms = std::min(timeout_ms, until);
      }
    }

    std::vector<struct pollfd> poll_fds;
    std::vector<Conn*> poll_conns;
    if (listener.open()) {
      poll_fds.push_back({listener.fd(), POLLIN, 0});
      poll_conns.push_back(nullptr);
    }
    for (auto& c : conns) {
      if (c->channel->fd() >= 0) {
        poll_fds.push_back({c->channel->fd(), POLLIN, 0});
        poll_conns.push_back(c.get());
      }
    }
    if (!poll_fds.empty()) {
      int rc = ::poll(poll_fds.data(), poll_fds.size(),
                      std::max(1, static_cast<int>(std::ceil(timeout_ms))));
      (void)rc;
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::max(timeout_ms, 1.0)));
    }

    for (size_t i = 0; i < poll_fds.size(); ++i) {
      if (poll_fds[i].revents == 0) continue;
      if (poll_conns[i] == nullptr) {
        // Listener readable: accept everything pending.
        for (;;) {
          int fd = listener.Accept();
          if (fd < 0) break;
          obs::Count(obs::Counter::kDistNetAccepts);
          auto conn = std::make_unique<Conn>();
          conn->channel = std::make_unique<Channel>(fd);
          conn->handshake_deadline =
              AfterMillis(Clock::now(), heartbeat_timeout_ms);
          conns.push_back(std::move(conn));
        }
        continue;
      }
      Conn& c = *poll_conns[i];
      Channel::DrainStatus status = c.channel->DrainInto(&c.reader);
      while (std::optional<Frame> frame = c.reader.Next()) {
        handle_frame(c, *frame);
        if (c.reader.corrupt() || c.channel->fd() < 0) break;
      }
      if (c.reader.corrupt()) {
        fence(c, "poisoned stream: " + c.reader.error());
        c.channel->Close();
      } else if (status != Channel::DrainStatus::kOk) {
        // EOF or read error: a handshake that never happened just goes
        // away; an active member's disappearance fences it.
        fence(c, status == Channel::DrainStatus::kEof
                     ? "connection closed"
                     : "read error: " + c.channel->error());
        c.channel->Close();
      }
    }

    now = Clock::now();
    for (auto& c : conns) {
      if (c->state == ConnState::kActive) {
        if (c->channel->failed()) {
          fence(*c, "send failed: " + c->channel->error());
        } else if (MillisBetween(c->last_heartbeat, now) >
                   heartbeat_timeout_ms) {
          ++report->worker_hangs;
          obs::Count(obs::Counter::kDistWorkerHangs);
          char detail[64];
          std::snprintf(detail, sizeof(detail), "no heartbeat for %.0fms",
                        MillisBetween(c->last_heartbeat, now));
          event(ShardEvent::Kind::kWorkerHung,
                c->assigned_shard == kNone ? 0 : c->assigned_shard, detail);
          fence(*c, "heartbeat deadline missed");
        }
      } else if (c->state == ConnState::kHandshaking &&
                 now >= c->handshake_deadline) {
        c->channel->Close();
        c->state = ConnState::kFenced;  // drained no more; drop below
      }
    }

    for (auto& c : conns) {
      if (c->pid <= 0 || c->state != ConnState::kFenced) continue;
      const bool joined = c->worker_id != 0;
      const std::string pid = std::to_string(c->pid);
      event(ShardEvent::Kind::kWorkerDied, 0,
            "pid=" + pid + " " + DescribeWaitStatus(kill_and_reap(*c)));
      if (!joined) fail_pending_shard("local member exited before joining");
    }

    // Drop connections that are fenced and fully closed.
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& c) {
                                 return c->state == ConnState::kFenced &&
                                        c->channel->fd() < 0;
                               }),
                conns.end());
  }

  for (auto& c : conns) {
    if (c->pid > 0) kill_and_reap(*c);
  }
  return outcome;
}

}  // namespace catapult::dist
