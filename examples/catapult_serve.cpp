// catapult_serve - resident pattern-selection server (DESIGN.md §13).
//
// Loads a graph database once, prepares the budget-independent
// clustering/CSG corpus, then serves "canned-pattern panel for budget
// (eta_min, eta_max, gamma)" requests over a Unix-domain socket until a
// SIGINT/SIGTERM asks it to drain. See examples/catapult_client.cpp for the
// matching client.
//
//   catapult_serve --db FILE --socket PATH
//       [--seed S] [--sampling] [--threads N] [--mem-budget-mb MB]
//       [--workers N] [--max-queue N] [--max-sessions N] [--cache N]
//       [--default-deadline-ms MS] [--max-deadline-ms MS]
//       [--retry-after-ms MS] [--idle-timeout-ms MS]
//       [--write-timeout-ms MS] [--drain-timeout-ms MS]
//       [--max-graph-vertices N] [--max-graph-edges N] [--max-graphs N]
//       [--strict-parse] [--metrics-out FILE] [--trace-out FILE]
//       [--admin-listen unix:PATH|tcp:HOST:PORT] [--request-log FILE]
//       [--slow-request-ms MS]
//
// Observability (DESIGN.md §16): --admin-listen opens a second listener
// serving /metrics (Prometheus text), /statusz (JSON) and /healthz while
// requests are in flight; --request-log appends one JSONL line per
// served/shed/failed request; --slow-request-ms flags slow selections;
// --trace-out enables per-request tracing and writes one Chrome-trace file
// at drain.
//
// Prints "listening on PATH" once ready (scripts wait for that line), then
// blocks until a shutdown signal arrives. On SIGTERM/SIGINT it drains:
// stops accepting, sheds new requests with an explicit retry-later reply,
// finishes (or cancels, after --drain-timeout-ms) in-flight work, writes
// --metrics-out, and exits 0. A drain is the *success* path — scripts
// assert exit 0 after kill -TERM.
//
// Exit status:
//   0  clean start, serve, drain
//   1  usage or I/O error (bad flags, unreadable database, bind failure)
//   2  database parse error
//   3  invalid pipeline options

#include <cerrno>
#include <cstdio>
#include <string>

#include "examples/flags.h"
#include "src/graph/io.h"
#include "src/obs/clock.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/serve/server.h"
#include "src/util/signal.h"

#include <poll.h>
#include <unistd.h>

namespace {

using namespace catapult;
using examples::Flags;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitParseError = 2;
constexpr int kExitOptionsError = 3;

int Usage() {
  std::fprintf(stderr,
               "usage: catapult_serve --db FILE --socket PATH [--flags]\n"
               "(see the header of examples/catapult_serve.cpp)\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  obs::InstallTicksFromEnv();  // CATAPULT_FIXED_TICKS, for byte-stable traces
  // Install the signal bridge before anything else so an early ^C latches.
  ShutdownSignals& signals = ShutdownSignals::Instance();
  Flags flags(argc, argv, 1);
  auto db_path = flags.Get("db");
  auto socket_path = flags.Get("socket");
  if (!db_path || !socket_path) return Usage();

  IngestReport ingest_report;
  ParseError parse_error;
  auto db = ReadDatabaseFromFile(*db_path,
                                 examples::IngestLimitsFromFlags(flags),
                                 &ingest_report, &parse_error);
  if (!db) {
    std::fprintf(stderr, "%s: %s\n", db_path->c_str(),
                 parse_error.message.empty() ? "cannot read"
                                             : parse_error.message.c_str());
    return parse_error.line > 0 ? kExitParseError : kExitUsage;
  }
  if (db->size() == 0) {
    std::fprintf(stderr, "%s: no graphs ingested\n", db_path->c_str());
    return kExitParseError;
  }

  serve::ServeOptions options;
  options.socket_path = *socket_path;
  options.worker_threads = flags.GetCount("workers", 2);
  options.max_queue_depth = flags.GetCount("max-queue", 16);
  options.max_sessions = flags.GetCount("max-sessions", 64);
  options.cache_capacity = flags.GetCount("cache", 32);
  options.default_deadline_ms =
      static_cast<double>(flags.GetInt("default-deadline-ms", 0));
  options.max_deadline_ms =
      static_cast<double>(flags.GetInt("max-deadline-ms", 0));
  options.retry_after_ms =
      static_cast<double>(flags.GetInt("retry-after-ms", 100));
  options.idle_timeout_ms =
      static_cast<double>(flags.GetInt("idle-timeout-ms", 0));
  options.write_timeout_ms =
      static_cast<double>(flags.GetInt("write-timeout-ms", 5000));
  options.drain_timeout_ms =
      static_cast<double>(flags.GetInt("drain-timeout-ms", 2000));

  options.pipeline.seed = flags.GetCount("seed", 42);
  options.pipeline.use_sampling = flags.GetBool("sampling");
  options.pipeline.ingest_digest = ingest_report.quarantine_digest;
  options.pipeline.threads =
      examples::ThreadsFromFlags(flags, options.pipeline.threads);
  long mem_budget_mb = flags.GetInt("mem-budget-mb", 0);
  if (mem_budget_mb > 0) {
    options.pipeline.mem_hard_limit_bytes =
        static_cast<size_t>(mem_budget_mb) << 20;
  }
  if (auto admin = flags.Get("admin-listen")) options.admin_listen = *admin;
  if (auto reqlog = flags.Get("request-log")) {
    options.request_log_path = *reqlog;
  }
  options.slow_request_ms =
      static_cast<double>(flags.GetInt("slow-request-ms", 0));
  const auto trace_out = flags.Get("trace-out");
  options.enable_tracing = trace_out.has_value();

  serve::Server server;
  const std::string error = server.Start(*db, options);
  if (!error.empty()) {
    std::fprintf(stderr, "catapult_serve: %s\n", error.c_str());
    return error.rfind("options:", 0) == 0 ? kExitOptionsError : kExitUsage;
  }
  const PreparedCorpus& corpus = server.corpus();
  std::fprintf(stderr,
               "corpus: %zu graphs -> %zu clusters, %zu CSGs (%s; clustering "
               "%.1fs, csg %.1fs)\n",
               db->size(), corpus.clusters.size(), corpus.csgs.size(),
               corpus.Complete() ? "complete" : "degraded",
               corpus.clustering_seconds, corpus.csg_seconds);
  std::printf("listening on %s\n", server.socket_path().c_str());
  std::fflush(stdout);

  // Block until SIGINT/SIGTERM: the signal bridge makes this fd readable
  // from its watcher thread, outside signal context.
  const int signal_fd = signals.SubscribeFd();
  for (;;) {
    pollfd p{signal_fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, -1);
    if (ready > 0 || (ready < 0 && errno != EINTR)) break;
  }
  ::close(signal_fd);

  const int signum = signals.last_signal();
  std::fprintf(stderr, "signal %d: draining\n", signum);
  server.BeginDrain();
  server.Stop();

  const obs::MetricsSnapshot metrics = server.Metrics();
  if (auto metrics_out = flags.Get("metrics-out")) {
    obs::JsonWriter w;
    w.BeginObject();
    obs::RenderMetricsFields(metrics, w);
    w.EndObject();
    if (!w.WriteFile(*metrics_out)) {
      std::fprintf(stderr, "cannot write metrics %s\n", metrics_out->c_str());
      return kExitUsage;
    }
    std::fprintf(stderr, "metrics: -> %s\n", metrics_out->c_str());
  }
  if (trace_out) {
    if (!server.tracer()->WriteFile(*trace_out)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_out->c_str());
      return kExitUsage;
    }
    std::fprintf(stderr, "trace: %zu events -> %s\n",
                 server.tracer()->event_count(), trace_out->c_str());
  }
  const auto counter = [&metrics](obs::Counter c) {
    return static_cast<unsigned long long>(
        metrics.counters[static_cast<size_t>(c)]);
  };
  std::fprintf(stderr,
               "served: accepted=%llu requests=%llu responses=%llu "
               "shed=%llu cache-hits=%llu degraded=%llu poisoned=%llu\n",
               counter(obs::Counter::kServeAccepted),
               counter(obs::Counter::kServeRequests),
               counter(obs::Counter::kServeResponses),
               counter(obs::Counter::kServeShed),
               counter(obs::Counter::kServeCacheHits),
               counter(obs::Counter::kServeDegraded),
               counter(obs::Counter::kServePoisonedStreams));
  return kExitOk;
}
