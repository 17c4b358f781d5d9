// catapult_worker - standalone remote shard worker (DESIGN.md Section 12).
//
// Dials a supervising catapult_cli (started with `mine --processes N
// --listen ADDR`), completes the versioned handshake, and carries shard
// assignments over the socket until the supervisor says the run is over.
//
//   catapult_worker --db FILE --connect ADDR [--name NAME]
//                   [--gamma N] [--min-size K] [--max-size K] [--seed S]
//                   [--sampling] [--max-graph-vertices N]
//                   [--max-graph-edges N] [--max-graphs N] [--strict-parse]
//                   [--dial-timeout-ms MS] [--max-dial-attempts N]
//                   [--metrics-out FILE] [--trace-out FILE]
//
// --metrics-out/--trace-out (DESIGN.md §16) write this worker's local view
// at exit: metrics deltas accumulated across every carried shard, and a
// Chrome-trace file of the shard spans it computed (the supervisor merges
// the same spans into the fleet-wide trace; the local file is for
// debugging one worker in isolation).
//
// The worker must be launched against the SAME database file and the SAME
// mining options as the supervisor: the handshake carries a
// ConfigFingerprint of (options, database) and the supervisor rejects any
// worker whose fingerprint differs — a fleet silently mixing configs could
// never be bit-identical. Both binaries build their mining options with
// examples::MineOptionsFromFlags (examples/flags.h), so passing the
// supervisor's --gamma/--min-size/--max-size/--seed/--sampling values is
// all it takes; flags may come in any order.
//
// Exit status:
//   0   run completed (supervisor sent an orderly shutdown, also when it
//       answers the handshake with one because the run is already over)
//   1   usage or I/O error
//   2   database parse error
//   20  could not reach the supervisor within the dial budget
//   21  supervisor rejected the handshake (protocol version/fingerprint)
//   22  supervisor spoke an unintelligible protocol, or hung up on the
//       handshake without an answer

#include <cstdio>
#include <string>

#include "examples/flags.h"
#include "src/core/catapult.h"
#include "src/dist/net_worker.h"
#include "src/graph/io.h"
#include "src/obs/clock.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"

namespace {

using namespace catapult;
using examples::Flags;

int Usage() {
  std::fprintf(stderr,
               "usage: catapult_worker --db FILE --connect ADDR [--flags]\n"
               "(see the header of examples/catapult_worker.cpp)\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  obs::InstallTicksFromEnv();  // CATAPULT_FIXED_TICKS, for byte-stable traces
  Flags flags(argc, argv, 1);
  auto db_path = flags.Get("db");
  auto connect = flags.Get("connect");
  if (!db_path || !connect) return Usage();

  IngestReport report;
  ParseError error;
  auto db = ReadDatabaseFromFile(
      *db_path, examples::IngestLimitsFromFlags(flags), &report, &error);
  if (!db) {
    std::fprintf(stderr, "%s: %s\n", db_path->c_str(),
                 error.message.empty() ? "cannot read" : error.message.c_str());
    return error.line > 0 ? 2 : 1;
  }
  if (db->size() == 0) {
    std::fprintf(stderr, "%s: no graphs ingested\n", db_path->c_str());
    return 2;
  }

  // The same option construction as `catapult_cli mine`: the handshake
  // fingerprint must match the supervisor's.
  CatapultOptions options = examples::MineOptionsFromFlags(flags);
  options.ingest_digest = report.quarantine_digest;

  dist::RemoteWorkerOptions worker;
  worker.address = *connect;
  worker.fingerprint = ConfigFingerprint(options, *db);
  if (auto name = flags.Get("name")) worker.worker_name = *name;
  worker.dial_timeout_ms =
      static_cast<double>(flags.GetInt("dial-timeout-ms", 2000));
  worker.max_dial_attempts =
      flags.GetCount("max-dial-attempts", worker.max_dial_attempts);

  const auto metrics_out = flags.Get("metrics-out");
  const auto trace_out = flags.Get("trace-out");
  obs::MetricsSnapshot local_metrics;
  obs::Tracer local_tracer;
  if (metrics_out) worker.accumulate = &local_metrics;
  if (trace_out) worker.local_tracer = &local_tracer;

  int code = dist::RunRemoteWorker(*db, worker);
  if (metrics_out) {
    obs::JsonWriter w;
    w.BeginObject();
    obs::RenderMetricsFields(local_metrics, w);
    w.EndObject();
    if (!w.WriteFile(*metrics_out)) {
      std::fprintf(stderr, "cannot write metrics %s\n", metrics_out->c_str());
      if (code == 0) code = 1;
    } else {
      std::fprintf(stderr, "metrics: -> %s\n", metrics_out->c_str());
    }
  }
  if (trace_out) {
    if (!local_tracer.WriteFile(*trace_out)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_out->c_str());
      if (code == 0) code = 1;
    } else {
      std::fprintf(stderr, "trace: %zu events -> %s\n",
                   local_tracer.event_count(), trace_out->c_str());
    }
  }
  if (code == 0) {
    std::fprintf(stderr, "catapult_worker: run complete\n");
  } else {
    std::fprintf(stderr, "catapult_worker: exiting with code %d\n", code);
  }
  return code;
}
