// catapult_cli - command-line driver for the library.
//
// Subcommands:
//   generate --out FILE [--graphs N] [--families K] [--seed S]
//       Write a synthetic molecule-like database in gSpan text format.
//   mine --db FILE --out FILE [--gamma N] [--min-size K] [--max-size K]
//        [--seed S] [--sampling] [--deadline-ms MS] [--threads N]
//        [--processes N] [--max-shard-retries N] [--listen ADDR]
//        [--dist-admin-listen ADDR]
//        [--checkpoint-dir DIR] [--resume]
//        [--max-graph-vertices N] [--max-graph-edges N] [--max-graphs N]
//        [--mem-budget-mb MB] [--strict-parse]
//        [--trace-out FILE] [--metrics-out FILE] [--print-stats]
//       Run the full Catapult pipeline and write the selected canned
//       patterns (as a pattern database in the same text format).
//       --deadline-ms bounds the wall-clock time: on expiry each phase
//       returns its best partial result and the degradation is reported.
//       --checkpoint-dir persists every completed phase as a checksummed
//       checkpoint; --resume restarts from the furthest intact phase in
//       that directory (corrupt checkpoints fall down the recovery ladder,
//       never crash).
//       Input is treated as untrusted: graphs violating the structural
//       limits (--max-graph-vertices/--max-graph-edges, plus built-in line/
//       label limits) are quarantined — skipped, counted per reason, and
//       reported — while ingestion continues; --strict-parse fails the read
//       on the first violation instead. --max-graphs stops ingestion after
//       N graphs. --mem-budget-mb bounds the tracked memory of both
//       ingestion and the pipeline: soft pressure sheds work, a hard breach
//       yields a degraded-but-valid pattern set, never an OOM kill.
//       --threads N runs the parallel phases on N threads (0 = hardware
//       concurrency; default 1): the output is bit-identical at any thread
//       count for the same seed.
//       --processes N shards the fine-clustering/CSG phases across N
//       forked member processes, each talking to the supervisor over a
//       socketpair (DESIGN.md Section 12); a member that hangs up or misses
//       its heartbeat deadline is fenced, killed, reaped and replaced, its
//       shard retried under capped exponential backoff, up to
//       --max-shard-retries failures per shard before the shard is
//       quarantined and executed in-process. Output stays bit-identical to
//       a single-process run for the same seed.
//       --listen ADDR ("unix:PATH" or "tcp:HOST:PORT") runs the shards on
//       a remote worker fleet instead of forked members: the supervisor
//       listens on ADDR and catapult_worker processes dial in, handshake
//       (protocol + config fingerprint), and carry shards over the socket
//       on --threads threads each, under the same supervision loop as
//       forked members; if the whole fleet is lost the shards fall back
//       in-process and the run exits with code 7.
//       --join-timeout-ms bounds how long the supervisor waits for a
//       (re)joining fleet before declaring it lost (default 10000).
//       Requires --processes > 1; output stays bit-identical.
//       --dist-admin-listen ADDR opens a best-effort telemetry endpoint on
//       the remote-fleet supervisor serving /metrics, /statusz (fleet
//       membership and shard progress) and /healthz while the run is live.
//       Observability (DESIGN.md Section 11): --trace-out writes a Chrome
//       trace-event JSON file of the run's phase spans (open it in
//       chrome://tracing or https://ui.perfetto.dev), --metrics-out writes
//       the merged per-primitive counters/gauges/histograms as JSON, and
//       --print-stats prints a human-readable summary of the same counters
//       with p50/p95/p99 quantiles for every histogram (plus the ingestion
//       quarantine/memory accounting) to stderr. None
//       of the three affects the mined patterns: instrumentation only ever
//       writes metrics, it never reads them.
//   evaluate --db FILE --patterns FILE [--queries N] [--seed S]
//       Evaluate a pattern panel on a random query workload (MP, mu).
//   search --db FILE --query-id I [--edges K] [--seed S]
//       Extract a random connected substructure of graph I and run the
//       subgraph search engine over the database.
//
// Exit status — one code per failure class so scripts can branch on what
// went wrong without scraping stderr:
//   0  success
//   1  usage or I/O error (bad flags, unreadable/unwritable files)
//   2  database parse error (malformed input, or nothing ingested)
//   3  invalid pipeline options (ValidateCatapultOptions rejected them)
//   4  memory budget hard breach (degraded patterns were still written)
//   5  deadline expiry degraded the result (partial patterns written)
//   6  sharded execution quarantined at least one shard (patterns written;
//      bit-identical, but the process-level fault tolerance was exhausted)
//   7  remote worker fleet lost; the run completed only via the in-process
//      fallback (patterns written and bit-identical, but no remote worker
//      contributed a cluster)
//   130  interrupted by SIGINT/SIGTERM (partial report printed)
// Codes 4-7 still write the output pattern file before exiting nonzero:
// the result is valid, the code only flags how it was obtained.

#include <cstdio>
#include <optional>
#include <string>

#include "examples/flags.h"
#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/data/query_generator.h"
#include "src/formulate/evaluate.h"
#include "src/graph/algorithms.h"
#include "src/graph/io.h"
#include "src/obs/clock.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/search/search_engine.h"
#include "src/util/rng.h"
#include "src/util/signal.h"

namespace {

using namespace catapult;
using examples::Flags;

// Exit codes (see the header comment).
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitParseError = 2;
constexpr int kExitOptionsError = 3;
constexpr int kExitResourceBreach = 4;
constexpr int kExitDeadlineDegraded = 5;
constexpr int kExitShardQuarantine = 6;
constexpr int kExitRemoteFallback = 7;
constexpr int kExitInterrupted = 130;  // shell convention: 128 + SIGINT

int Usage() {
  std::fprintf(stderr,
               "usage: catapult_cli <generate|mine|evaluate|search> "
               "[--flags]\n(see the header of examples/catapult_cli.cpp)\n");
  return 1;
}

// Reads a database under `options`, printing the parse diagnostics (file,
// line, graph index, reason) on failure and the quarantine/memory summary
// when anything was skipped or ingestion stopped early. On failure
// `exit_code` (when given) distinguishes malformed content (kExitParseError)
// from plain I/O trouble (kExitUsage).
std::optional<GraphDatabase> ReadDatabaseOrComplain(
    const std::string& path, const IngestOptions& options,
    IngestReport* report = nullptr, int* exit_code = nullptr) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  ParseError error;
  auto db = ReadDatabaseFromFile(path, options, &rep, &error);
  if (!db) {
    if (error.line > 0) {
      std::fprintf(stderr, "%s:%zu: parse error in graph %zu: %s\n",
                   path.c_str(), error.line, error.graph_index,
                   error.message.c_str());
      if (exit_code != nullptr) *exit_code = kExitParseError;
    } else {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   error.message.empty() ? "cannot read"
                                         : error.message.c_str());
      if (exit_code != nullptr) *exit_code = kExitUsage;
    }
    return db;
  }
  if (rep.graphs_quarantined > 0 || !rep.quarantine_reasons.empty() ||
      rep.stopped_early) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), rep.Summary().c_str());
  }
  // Quarantine mode never fails the read, but a database with nothing in it
  // is useless to every subcommand — treat it as the error it is.
  if (db->size() == 0) {
    std::fprintf(stderr, "%s: no graphs ingested\n", path.c_str());
    if (exit_code != nullptr) *exit_code = kExitParseError;
    return std::nullopt;
  }
  return db;
}

// Shared ingestion flags of the database-reading subcommands: the
// structural limits plus --mem-budget-mb.
IngestOptions IngestOptionsFromFlags(const Flags& flags) {
  IngestOptions options = examples::IngestLimitsFromFlags(flags);
  long mb = flags.GetInt("mem-budget-mb", 0);
  if (mb > 0) {
    options.memory = MemoryBudget::Limited(0, static_cast<size_t>(mb) << 20);
  }
  return options;
}

int CmdGenerate(const Flags& flags) {
  auto out = flags.Get("out");
  if (!out) return Usage();
  MoleculeGeneratorOptions options;
  options.num_graphs = flags.GetCount("graphs", 500);
  options.scaffold_families = flags.GetCount("families", 12);
  options.seed = flags.GetCount("seed", 1);
  GraphDatabase db = GenerateMoleculeDatabase(options);
  if (IoStatus status = WriteDatabaseToFile(db, *out); !status) {
    std::fprintf(stderr, "cannot write %s: %s\n", out->c_str(),
                 status.message().c_str());
    return 1;
  }
  DatabaseStats stats = db.Stats();
  std::printf("wrote %zu graphs (avg |V|=%.1f, avg |E|=%.1f) to %s\n",
              stats.num_graphs, stats.avg_vertices, stats.avg_edges,
              out->c_str());
  return 0;
}

int CmdMine(const Flags& flags) {
  auto db_path = flags.Get("db");
  auto out = flags.Get("out");
  if (!db_path || !out) return Usage();
  IngestOptions ingest = IngestOptionsFromFlags(flags);
  IngestReport ingest_report;
  int read_exit = kExitUsage;
  auto db = ReadDatabaseOrComplain(*db_path, ingest, &ingest_report,
                                   &read_exit);
  if (!db) return read_exit;
  CatapultOptions options = examples::MineOptionsFromFlags(flags);
  options.ingest_digest = ingest_report.quarantine_digest;
  long mem_budget_mb = flags.GetInt("mem-budget-mb", 0);
  if (mem_budget_mb > 0) {
    options.mem_hard_limit_bytes = static_cast<size_t>(mem_budget_mb) << 20;
  }
  // An absent --threads leaves options.threads at 0 = "auto"
  // (CATAPULT_THREADS env, else 1).
  options.threads = examples::ThreadsFromFlags(flags, options.threads);
  options.deadline_ms = static_cast<double>(flags.GetInt("deadline-ms", 0));
  options.processes = flags.GetCount("processes", 0);
  options.max_shard_retries =
      flags.GetCount("max-shard-retries", options.max_shard_retries);
  if (auto listen = flags.Get("listen")) options.dist_listen = *listen;
  if (auto admin = flags.Get("dist-admin-listen")) {
    options.dist_admin_listen = *admin;
  }
  options.dist_join_timeout_ms = static_cast<double>(
      flags.GetInt("join-timeout-ms",
                   static_cast<long>(options.dist_join_timeout_ms)));
  if (auto dir = flags.Get("checkpoint-dir")) options.checkpoint_dir = *dir;
  options.resume = flags.GetBool("resume");
  // Observability: any of the three flags attaches a metrics registry to the
  // run; --trace-out additionally attaches a tracer. With none of them the
  // context carries null handles and the hot paths do no metric work at all.
  auto trace_out = flags.Get("trace-out");
  auto metrics_out = flags.Get("metrics-out");
  bool print_stats = flags.GetBool("print-stats");
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  bool observe = trace_out || metrics_out || print_stats;
  // The run shares the process-wide shutdown token so SIGINT/SIGTERM wind
  // it down cooperatively (src/util/signal.h).
  RunContext ctx =
      RunContext(Deadline::Infinite(), ShutdownSignals::Instance().token())
          .WithObservability(observe ? &registry : nullptr,
                             trace_out ? &tracer : nullptr);
  CatapultResult result = RunCatapult(*db, options, ctx);
  if (!result.ok()) {
    for (const OptionsError& e : result.option_errors) {
      std::fprintf(stderr, "invalid option %s: %s\n", e.field.c_str(),
                   e.message.c_str());
    }
    return kExitOptionsError;
  }

  GraphDatabase panel;
  panel.labels() = db->labels();
  for (const SelectedPattern& p : result.selection.patterns) {
    panel.Add(p.graph);
  }
  if (IoStatus status = WriteDatabaseToFile(panel, *out); !status) {
    std::fprintf(stderr, "cannot write %s: %s\n", out->c_str(),
                 status.message().c_str());
    return 1;
  }
  std::printf(
      "mined %zu patterns from %zu graphs (%zu clusters; %zu threads; "
      "clustering %.1fs, selection %.1fs) -> %s\n",
      result.selection.patterns.size(), db->size(), result.clusters.size(),
      result.execution.threads, result.clustering_seconds,
      result.selection_seconds, out->c_str());
  std::printf("ingest: %s\n", ingest_report.Summary().c_str());
  if (ingest_report.mem_peak_bytes > 0 ||
      result.execution.mem_budget_set) {
    std::printf(
        "memory: ingest peak %.1f MB, pipeline peak %.1f MB%s\n",
        static_cast<double>(ingest_report.mem_peak_bytes) / (1 << 20),
        static_cast<double>(result.execution.mem_peak_bytes) / (1 << 20),
        result.execution.mem_hard_breached ? " [hard limit breached]" : "");
  }
  if (result.execution.mem_hard_breached) {
    std::printf("  %s\n", result.execution.resource_error.ToString().c_str());
  }
  for (const SelectedPattern& p : result.selection.patterns) {
    std::printf("  |E|=%zu score=%.4f ccov=%.3f div=%.1f cog=%.2f%s\n",
                p.graph.NumEdges(), p.score, p.ccov, p.div, p.cog,
                p.fallback ? " [fallback]" : "");
  }
  const ExecutionReport& exec = result.execution;
  if ((exec.deadline_set || exec.mem_budget_set) && exec.Degraded()) {
    std::printf(
        "degradation: clustering=%s csg=%s selection=%s "
        "coarse-only=%d degraded-csgs=%zu fallback-patterns=%zu "
        "iso-budget-exhausted=%llu\n",
        exec.clustering_complete ? "complete" : "partial",
        exec.csg_complete ? "complete" : "partial",
        exec.selection_complete ? "complete" : "partial",
        exec.clustering_coarse_only ? 1 : 0, exec.degraded_csgs,
        exec.fallback_patterns,
        static_cast<unsigned long long>(exec.iso_budget_exhausted));
  }
  if (exec.Resumed()) {
    std::printf("resumed from checkpoint phase: %s\n",
                exec.resumed_from.c_str());
  }
  for (const CheckpointEvent& event : exec.checkpoint_events) {
    std::printf("  %s\n", ToString(event).c_str());
  }
  if (exec.dist.enabled) {
    const dist::DistReport& d = exec.dist;
    std::printf(
        "sharded: %zu shards on %zu processes; spawned=%zu deaths=%zu "
        "hangs=%zu retries=%zu backoff=%.0fms quarantined=%zu "
        "fallbacks=%zu\n",
        d.shards, d.processes, d.workers_spawned, d.worker_deaths,
        d.worker_hangs, d.shard_retries, d.backoff_total_ms,
        d.quarantined_shards, d.inprocess_fallbacks);
    if (d.remote) {
      std::printf(
          "remote: listen=%s joined=%zu rejected=%zu reconnects=%zu "
          "fenced-frames=%zu remote-clusters=%zu fleet-lost=%zu%s\n",
          d.listen_address.c_str(), d.workers_joined, d.workers_rejected,
          d.reconnects, d.fenced_frames, d.remote_clusters,
          d.fleet_lost_fallbacks,
          d.remote_fallback_only ? " [fallback-only]" : "");
    }
    // The full event log only matters when supervision actually had to act.
    if (d.worker_deaths + d.worker_hangs + d.shard_retries +
            d.quarantined_shards >
        0) {
      for (const dist::ShardEvent& event : d.events) {
        std::printf("  %s\n", dist::ToString(event).c_str());
      }
    }
  }
  if (trace_out) {
    if (tracer.WriteFile(*trace_out)) {
      std::fprintf(stderr, "trace: %zu spans -> %s\n", tracer.event_count(),
                   trace_out->c_str());
    } else {
      std::fprintf(stderr, "cannot write trace %s\n", trace_out->c_str());
      return 1;
    }
  }
  if (metrics_out) {
    obs::JsonWriter w;
    w.BeginObject();
    obs::RenderMetricsFields(exec.metrics, w);
    w.EndObject();
    if (w.WriteFile(*metrics_out)) {
      std::fprintf(stderr, "metrics: -> %s\n", metrics_out->c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics %s\n", metrics_out->c_str());
      return 1;
    }
  }
  if (print_stats) {
    std::fprintf(stderr, "--- run stats ---\n%s",
                 obs::HumanSummary(exec.metrics).c_str());
    // Why each pattern won and what the score bound spared (DESIGN.md §15).
    std::fprintf(stderr, "selection iterations:\n");
    for (size_t i = 0; i < result.selection.iterations.size(); ++i) {
      const SelectionIteration& it = result.selection.iterations[i];
      std::fprintf(stderr,
                   "  %2zu: candidates=%zu exact=%zu skipped=%zu "
                   "winning-score=%.6g best-skipped-bound=%.6g\n",
                   i + 1, it.candidates, it.exact, it.skipped,
                   it.winning_score, it.best_skipped_bound);
    }
    std::fprintf(stderr, "ingest:\n  %s\n", ingest_report.Summary().c_str());
    std::fprintf(stderr,
                 "  ingest peak %.1f MB, pipeline peak %.1f MB%s\n",
                 static_cast<double>(ingest_report.mem_peak_bytes) / (1 << 20),
                 static_cast<double>(exec.mem_peak_bytes) / (1 << 20),
                 exec.mem_hard_breached ? " [hard limit breached]" : "");
  }
  // Failure-class exit code, most severe first. The output file and every
  // report above were already written: the code flags *how* the patterns
  // were obtained, not whether they exist.
  if (ShutdownSignals::Instance().Received()) {
    std::fprintf(stderr, "interrupted by signal %d; partial results written\n",
                 ShutdownSignals::Instance().last_signal());
    return kExitInterrupted;
  }
  if (exec.mem_hard_breached) return kExitResourceBreach;
  if (exec.dist.remote_fallback_only) return kExitRemoteFallback;
  if (exec.dist.quarantined_shards > 0) return kExitShardQuarantine;
  if (exec.deadline_set && exec.Degraded()) return kExitDeadlineDegraded;
  return kExitOk;
}

int CmdEvaluate(const Flags& flags) {
  auto db_path = flags.Get("db");
  auto patterns_path = flags.Get("patterns");
  if (!db_path || !patterns_path) return Usage();
  int read_exit = kExitUsage;
  auto db = ReadDatabaseOrComplain(*db_path, IngestOptionsFromFlags(flags),
                                   nullptr, &read_exit);
  if (!db) return read_exit;
  auto patterns = ReadDatabaseOrComplain(
      *patterns_path, IngestOptionsFromFlags(flags), nullptr, &read_exit);
  if (!patterns) return read_exit;
  QueryWorkloadOptions wl;
  wl.count = flags.GetCount("queries", 100);
  wl.seed = flags.GetCount("seed", 7);
  std::vector<Graph> queries = GenerateQueryWorkload(*db, wl);
  GuiModel gui = MakeCatapultGui(std::vector<Graph>(
      patterns->graphs().begin(), patterns->graphs().end()));
  WorkloadReport report = EvaluateGui(queries, gui);
  std::printf(
      "%zu queries: MP=%.1f%%  max mu=%.1f%%  avg mu=%.1f%%  avg steps=%.1f\n",
      report.num_queries, report.mp_percent, report.max_mu * 100,
      report.avg_mu * 100, report.avg_steps);
  std::printf("panel: avg cog=%.2f  avg div=%.2f  scov~%.3f\n",
              AverageCognitiveLoad(gui.patterns),
              AverageSetDiversity(gui.patterns),
              SubgraphCoverage(gui.patterns, *db, 300));
  return 0;
}

int CmdSearch(const Flags& flags) {
  auto db_path = flags.Get("db");
  if (!db_path) return Usage();
  int read_exit = kExitUsage;
  auto db = ReadDatabaseOrComplain(*db_path, IngestOptionsFromFlags(flags),
                                   nullptr, &read_exit);
  if (!db) return read_exit;
  const uint64_t query_id = flags.GetCount("query-id", 0);
  if (query_id >= db->size()) {
    std::fprintf(stderr, "query-id out of range\n");
    return 1;
  }
  const GraphId source = static_cast<GraphId>(query_id);
  Rng rng(flags.GetCount("seed", 9));
  Graph query = RandomConnectedSubgraph(db->graph(source),
                                        flags.GetCount("edges", 6), rng);
  SubgraphSearchEngine engine(*db);
  std::vector<GraphId> matches = engine.Search(query);
  std::printf("query (from G%u): %s\n%zu matches:", source,
              query.DebugString().c_str(), matches.size());
  for (size_t i = 0; i < matches.size() && i < 20; ++i) {
    std::printf(" G%u", matches[i]);
  }
  std::printf("%s\n", matches.size() > 20 ? " ..." : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  obs::InstallTicksFromEnv();  // CATAPULT_FIXED_TICKS, for byte-stable traces
  // Installs the async-signal-safe SIGINT/SIGTERM bridge (src/util/signal.h)
  // up front, so an early ^C is latched even before a run context exists.
  ShutdownSignals::Instance();
  Flags flags(argc, argv, 2);
  std::string command = argv[1];
  if (command == "generate") return CmdGenerate(flags);
  if (command == "mine") return CmdMine(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "search") return CmdSearch(flags);
  return Usage();
}
