// perfbench - one benchmark of the shipping CATAPULT pipeline.
//
// Runs one named workload through the library's public entry points with
// options built exactly as `catapult_cli mine` and `catapult_serve` build
// them, checks every panel it produces, and prints one JSON object (metrics
// by name and unit, correctness counts, panel digests, build provenance) on
// stdout. perfbench/run.py builds this binary and drives it; README.md next
// to this file documents the workloads and every metric.
//
//   perfbench --workload mine_select|mine_cluster_sharded|serve_budgets
//             --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--corrupt-panel] [--trace-out PREFIX]
//
// Inputs, the server socket and the request log are written to the working
// directory.
// --trace 0 measures the end-to-end metrics with no metrics registry or
// tracer attached to the pipeline; --trace 1 attaches both and reports the
// per-layer metrics instead. --scale tiny shrinks every workload for the
// self-test, and --corrupt-panel damages the first panel so the self-test
// can prove the correctness check trips.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/data/query_generator.h"
#include "src/formulate/evaluate.h"
#include "src/graph/algorithms.h"
#include "src/graph/flat_graph.h"
#include "src/graph/io.h"
#include "src/iso/flat_vf2.h"
#include "src/iso/ged.h"
#include "src/iso/mcs.h"
#include "src/iso/vf2.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace {

using namespace catapult;
using Clock = std::chrono::steady_clock;

// Pipeline seed of every workload (`mine --seed 83`, `serve --seed 83`).
constexpr uint64_t kPipelineSeed = 83;
// The CLI's and the server's fine-clustering MCS budget.
constexpr uint64_t kShippingMcsBudget = 5000;
// One burst of set-up samples on the mine workloads: ingests repeated for at
// least this long. Bursts run before and after every panel, so the median
// covers the whole run instead of one moment of it.
constexpr double kIngestBurstSeconds = 0.25;
// Each query formulation is timed this many times; the fastest counts.
constexpr int kFormulateRepeats = 3;
// Kernel replays repeat their pair set until at least this much time.
constexpr double kReplayMinSeconds = 0.3;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linearly interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- Workloads -----------------------------------------------------------

struct Workload {
  std::string name;
  size_t graphs = 0;
  uint64_t corpus_seed = 0;  // fixed per workload; see README.md
  PatternBudget budget;
  size_t threads = 1;    // pipeline threads (per worker for serve)
  size_t processes = 0;  // forked shard workers (0 = in-process)
  bool serve = false;
};

std::optional<Workload> FindWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "mine_select") {
    w.graphs = tiny ? 40 : 400;
    w.corpus_seed = 9;
    w.budget.eta_min = 3;
    w.budget.eta_max = tiny ? 5 : 8;
    w.budget.gamma = tiny ? 4 : 12;
    w.threads = 2;
  } else if (name == "mine_cluster_sharded") {
    w.graphs = tiny ? 60 : 1000;
    w.corpus_seed = 5;
    w.budget.eta_min = 3;
    w.budget.eta_max = 5;
    w.budget.gamma = 4;
    w.threads = 1;
    w.processes = 2;
  } else if (name == "serve_budgets") {
    w.graphs = tiny ? 40 : 400;
    w.corpus_seed = 3;
    w.threads = 1;
    w.serve = true;
  } else {
    return std::nullopt;
  }
  return w;
}

// Options exactly as CmdMine (examples/catapult_cli.cpp) builds them: the
// library defaults (GED 500K nodes, 40 walks, max_cluster_size 20) plus the
// CLI's MCS budget.
CatapultOptions ShippingOptions(const Workload& w) {
  CatapultOptions options;
  options.selector.budget = w.budget;
  options.seed = kPipelineSeed;
  options.threads = w.threads;
  options.processes = w.processes;
  options.clustering.fine_mcs.node_budget = kShippingMcsBudget;
  return options;
}

// Server options exactly as catapult_serve builds them from its flag
// defaults, with `--seed 83 --threads 1`.
serve::ServeOptions ShippingServeOptions(const Workload& w) {
  serve::ServeOptions options;
  options.worker_threads = 2;
  options.max_queue_depth = 16;
  options.max_sessions = 64;
  options.cache_capacity = 32;
  options.retry_after_ms = 100.0;
  options.write_timeout_ms = 5000.0;
  options.drain_timeout_ms = 2000.0;
  options.pipeline.seed = kPipelineSeed;
  options.pipeline.threads = w.threads;
  options.pipeline.clustering.fine_mcs.node_budget = kShippingMcsBudget;
  return options;
}

// --- Report --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_panel = false;
  std::string trace_out;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  // One checked operation; a failure keeps its reason (first few only).
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 16) failures_.push_back(what);
  }

  // Records the digest of a panel under `label`. A label seen before must
  // carry the same bytes: every panel of one key is deterministic.
  void Digest(const std::string& label, const std::string& bytes) {
    const std::string digest = Hex(Fnv1a(bytes));
    auto it = digests_.find(label);
    if (it == digests_.end()) {
      digests_.emplace(label, digest);
      return;
    }
    Check(it->second == digest, "panel " + label + " changed between runs: " +
                                    it->second + " vs " + digest);
  }

  void Note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  std::string Json(const Args& args) const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("workload").Value(args.workload);
    w.Key("seed").Value(args.seed);
    w.Key("trace").Value(args.trace);
    w.Key("scale").Value(args.tiny ? "tiny" : "full");
    w.Key("attempted").Value(static_cast<uint64_t>(attempted_));
    w.Key("failed").Value(static_cast<uint64_t>(failed_));
    w.Key("failures").BeginArray();
    for (const std::string& f : failures_) w.Value(f);
    w.EndArray();
    w.Key("metrics").BeginObject();
    for (const MetricValue& m : metrics_) {
      w.Key(m.name).BeginObject();
      w.Key("value").Value(m.value);
      w.Key("unit").Value(m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.Key("digests").BeginObject();
    for (const auto& [label, digest] : digests_) w.Key(label).Value(digest);
    w.EndObject();
    w.Key("notes").BeginObject();
    for (const auto& [key, value] : notes_) w.Key(key).Value(value);
    w.EndObject();
    w.Key("provenance").BeginObject();
    w.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
    w.Key("sanitize").Value(SanitizerFlags());
    w.Key("compiler").Value(CompilerName());
#if defined(NDEBUG)
    w.Key("ndebug").Value(true);
#else
    w.Key("ndebug").Value(false);
#endif
    w.Key("nproc").Value(
        static_cast<uint64_t>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN))));
    w.Key("hardware_threads")
        .Value(static_cast<uint64_t>(ThreadPool::HardwareThreads()));
    w.Key("workload_seed").Value(args.seed);
    w.EndObject();
    w.EndObject();
    return w.str();
  }

 private:
  static std::string SanitizerFlags() {
    std::string flags = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
    if (flags.empty()) flags = "address";
#endif
#if defined(__SANITIZE_THREAD__)
    if (flags.empty()) flags = "thread";
#endif
    return flags;
  }

  static std::string CompilerName() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
  }

  struct MetricValue {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<MetricValue> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::string> digests_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// Peak resident set of this process plus the largest reaped child (the
// forked shard workers), in MiB.
double PeakRssMb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

// --- Inputs --------------------------------------------------------------

// Generates the workload's corpus as `catapult_cli generate --graphs N
// --seed S` does, writes it to the working directory, and returns the path.
std::string WriteCorpus(const Workload& w) {
  MoleculeGeneratorOptions options;
  options.num_graphs = w.graphs;
  options.scaffold_families = 12;
  options.seed = w.corpus_seed;
  const std::string path = w.name + ".db.txt";
  if (IoStatus status = WriteDatabaseToFile(GenerateMoleculeDatabase(options),
                                            path);
      !status) {
    std::fprintf(stderr, "perfbench: cannot write %s: %s\n", path.c_str(),
                 status.message().c_str());
    std::exit(1);
  }
  return path;
}

GraphDatabase Ingest(const std::string& path) {
  IngestReport report;
  ParseError error;
  std::optional<GraphDatabase> db =
      ReadDatabaseFromFile(path, IngestOptions{}, &report, &error);
  if (!db || db->empty() || report.graphs_quarantined > 0) {
    std::fprintf(stderr, "perfbench: cannot ingest %s: %s\n", path.c_str(),
                 error.message.c_str());
    std::exit(1);
  }
  return std::move(*db);
}

// --- Panels --------------------------------------------------------------

std::vector<std::string> LabelNames(const GraphDatabase& db) {
  std::vector<std::string> names;
  for (size_t l = 0; l < db.labels().size(); ++l) {
    names.push_back(db.labels().Name(static_cast<Label>(l)));
  }
  return names;
}

// The panel bytes the server would send for this selection.
std::string PanelBytes(const GraphDatabase& db,
                       const std::vector<SelectedPattern>& patterns,
                       bool degraded) {
  serve::Panel panel;
  panel.degraded = degraded;
  panel.labels = LabelNames(db);
  panel.patterns = patterns;
  return serve::EncodePanel(panel);
}

// Structural check of a panel; empty when it passes. Every pattern is
// connected with |E| in [eta_min, eta_max], no two are isomorphic, each is
// contained in the cluster summary graph (CSG) that proposed it, and the
// panel is not degraded. `unsupported` counts patterns that occur in no
// single data graph: a CSG merges its members, so a walk over it can
// assemble a pattern no member holds.
std::string CheckPanel(const GraphDatabase& db,
                       const std::vector<ClusterSummaryGraph>& csgs,
                       const std::vector<SelectedPattern>& patterns,
                       const PatternBudget& budget, bool degraded,
                       size_t* unsupported) {
  *unsupported = 0;
  if (degraded) return "degraded";
  if (patterns.empty()) return "empty";
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Graph& g = patterns[i].graph;
    const std::string at = "pattern " + std::to_string(i) + ": ";
    if (!IsConnected(g)) return at + "disconnected";
    if (g.NumEdges() < budget.eta_min || g.NumEdges() > budget.eta_max) {
      return at + "|E|=" + std::to_string(g.NumEdges()) + " outside budget";
    }
    for (size_t j = 0; j < i; ++j) {
      if (AreIsomorphic(patterns[j].graph, g)) {
        return at + "isomorphic to pattern " + std::to_string(j);
      }
    }
    const size_t source = patterns[i].source_csg;
    if (source >= csgs.size() || !ContainsSubgraph(g, csgs[source].ToGraph())) {
      return at + "not contained in its source CSG";
    }
    const bool occurs =
        std::any_of(db.graphs().begin(), db.graphs().end(),
                    [&g](const Graph& data) { return ContainsSubgraph(g, data); });
    if (!occurs) ++*unsupported;
  }
  return "";
}

std::string BudgetLabel(const PatternBudget& b) {
  return std::to_string(b.eta_min) + "-" + std::to_string(b.eta_max) + "-" +
         std::to_string(b.gamma);
}

// Checks one mined panel and records its digest; returns the number of
// patterns no data graph contains. With `corrupt` the panel is damaged
// first (a duplicated pattern) so the check must fail.
size_t CheckMinedPanel(const GraphDatabase& db, const Workload& w,
                       const CatapultResult& result, bool corrupt,
                       Report& report) {
  std::vector<SelectedPattern> patterns = result.selection.patterns;
  if (corrupt && !patterns.empty()) patterns.push_back(patterns.front());
  const bool degraded = !result.ok() || result.execution.Degraded();
  size_t unsupported = 0;
  const std::string why =
      CheckPanel(db, result.csgs, patterns, w.budget, degraded, &unsupported);
  report.Check(why.empty(), "panel " + BudgetLabel(w.budget) + ": " + why);
  report.Digest(BudgetLabel(w.budget), PanelBytes(db, patterns, degraded));
  return unsupported;
}

// Standard query workload (QueryWorkloadOptions defaults: 1000 queries of
// 4-40 edges, seed 7) evaluated on `patterns`: the paper's average step_P
// and missed percentage.
void ReportQuality(const GraphDatabase& db, const std::vector<Graph>& patterns,
                   Report& report) {
  const WorkloadReport r = EvaluateGui(
      GenerateQueryWorkload(db, QueryWorkloadOptions{}), MakeCatapultGui(patterns));
  report.Metric("query_steps", r.avg_steps, "steps");
  report.Metric("query_mp_pct", r.mp_percent, "%");
}

// --- Traced runs ---------------------------------------------------------

// Median time for the GUI to formulate one query of the standard workload
// with `patterns` (FormulateQuery: cover search over nested-VF2
// embeddings), each query timed kFormulateRepeats times with the fastest
// kept so that a stray interrupt does not count.
void ReportFormulate(const GraphDatabase& db, const std::vector<Graph>& patterns,
                     Report& report) {
  const GuiModel gui = MakeCatapultGui(patterns);
  std::vector<double> us;
  for (const Graph& query : GenerateQueryWorkload(db, QueryWorkloadOptions{})) {
    double fastest = 0.0;
    for (int r = 0; r < kFormulateRepeats; ++r) {
      const Clock::time_point start = Clock::now();
      const QueryFormulation f = FormulateQuery(query, gui);
      const double t = 1e6 * Since(start);
      fastest = r == 0 ? t : std::min(fastest, t);
      if (r == 0) {
        report.Check(f.steps_patterns > 0 && f.steps_patterns <= f.steps_total,
                     "formulation step count out of range");
      }
    }
    us.push_back(fastest);
  }
  report.Metric("formulate.us_per_query", Median(us), "us");
}

// Per-name total duration (seconds) of every span in `tracer`, draining it.
std::map<std::string, double> SpanSeconds(obs::Tracer& tracer) {
  std::map<std::string, double> totals;
  for (const obs::SpanRecord& s : tracer.DrainSpans()) {
    totals[s.name] += static_cast<double>(s.dur_ns) * 1e-9;
  }
  return totals;
}

double SpanOr0(const std::map<std::string, double>& spans,
               const std::string& name) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second;
}

struct PanelRun {
  CatapultResult result;
  double seconds = 0.0;
  std::map<std::string, double> spans;  // traced runs only
};

// One RunCatapult, timed from outside. A traced run attaches a metrics
// registry and a tracer, wraps the call in a span of its own, and writes
// the Chrome trace to `trace_path` when given.
PanelRun RunPanel(const GraphDatabase& db, const CatapultOptions& options,
                  bool traced, const std::string& trace_path) {
  PanelRun run;
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  RunContext ctx = RunContext::NoLimit();
  if (traced) ctx = ctx.WithObservability(&registry, &tracer);
  const Clock::time_point start = Clock::now();
  {
    obs::Span span(traced ? &tracer : nullptr, "perfbench.run_catapult");
    run.result = RunCatapult(db, options, ctx);
  }
  run.seconds = Since(start);
  if (traced) {
    if (!trace_path.empty()) tracer.WriteFile(trace_path);
    run.spans = SpanSeconds(tracer);
  }
  return run;
}

// Runs `pass` (one sweep over a fixed input set) until kReplayMinSeconds
// have elapsed, at least once; returns the mean seconds per pass.
template <typename Fn>
double ReplaySeconds(Fn pass) {
  const Clock::time_point start = Clock::now();
  size_t passes = 0;
  do {
    pass();
    ++passes;
  } while (Since(start) < kReplayMinSeconds);
  return Since(start) / static_cast<double>(passes);
}

// Kernel replay: GED over the panel's pattern pairs, MCS over a seeded
// sample of intra-cluster graph pairs, and both containment kernels over
// panel patterns x data graphs, each at the shipping budget. The kernels
// emit no per-call counters of their own, so these are timed from outside.
void ReplayKernels(const GraphDatabase& db, const std::vector<Graph>& patterns,
                   const std::vector<std::vector<GraphId>>& clusters,
                   uint64_t seed, obs::Tracer* tracer, Report& report) {
  {
    obs::Span span(tracer, "perfbench.replay.ged");
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t i = 0; i < patterns.size(); ++i) {
      for (size_t j = i + 1; j < patterns.size(); ++j) pairs.emplace_back(i, j);
    }
    const GedOptions ged = SelectorOptions{}.ged;  // 500K nodes
    size_t exact = 0;
    const double pass_s = ReplaySeconds([&] {
      exact = 0;
      for (const auto& [i, j] : pairs) {
        exact += GraphEditDistance(patterns[i], patterns[j], ged).exact ? 1 : 0;
      }
    });
    report.Metric("iso.ged.calls", static_cast<double>(pairs.size()), "count");
    report.Metric("iso.ged.us_per_call",
                  1e6 * Ratio(pass_s, static_cast<double>(pairs.size())), "us");
    report.Metric("iso.ged.exact_ratio",
                  Ratio(static_cast<double>(exact),
                        static_cast<double>(pairs.size())),
                  "ratio");
  }
  {
    obs::Span span(tracer, "perfbench.replay.mcs");
    std::vector<std::pair<GraphId, GraphId>> all;
    for (const std::vector<GraphId>& c : clusters) {
      for (size_t i = 0; i < c.size(); ++i) {
        for (size_t j = i + 1; j < c.size(); ++j) all.emplace_back(c[i], c[j]);
      }
    }
    Rng rng(seed);
    std::vector<std::pair<GraphId, GraphId>> pairs;
    for (size_t k : rng.SampleIndices(all.size(), 200)) pairs.push_back(all[k]);
    McsOptions mcs;
    mcs.node_budget = kShippingMcsBudget;
    size_t exact = 0;
    const double pass_s = ReplaySeconds([&] {
      exact = 0;
      for (const auto& [a, b] : pairs) {
        exact += MaxCommonSubgraph(db.graph(a), db.graph(b), mcs).exact ? 1 : 0;
      }
    });
    report.Metric("iso.mcs.calls", static_cast<double>(pairs.size()), "count");
    report.Metric("iso.mcs.us_per_call",
                  1e6 * Ratio(pass_s, static_cast<double>(pairs.size())), "us");
    report.Metric("iso.mcs.exact_ratio",
                  Ratio(static_cast<double>(exact),
                        static_cast<double>(pairs.size())),
                  "ratio");
  }
  {
    obs::Span span(tracer, "perfbench.replay.containment");
    const FlatGraphDatabase flat_db = FlatGraphDatabase::Build(db);
    std::vector<LabelDomains> domains;
    for (size_t g = 0; g < flat_db.size(); ++g) {
      domains.push_back(LabelDomains::Build(flat_db.view(g)));
    }
    std::vector<FlatGraph> flat_patterns;
    for (const Graph& p : patterns) flat_patterns.push_back(FlatGraph::Build(p));
    IsoOptions iso;
    iso.node_budget = SelectorOptions{}.iso_node_budget;
    std::vector<char> flat_found(patterns.size() * db.size());
    std::vector<char> nested_found(flat_found.size());
    const double flat_s = ReplaySeconds([&] {
      for (size_t p = 0; p < patterns.size(); ++p) {
        const FlatGraphView pv = flat_patterns[p].View();
        for (size_t g = 0; g < db.size(); ++g) {
          flat_found[p * db.size() + g] =
              FlatContainsSubgraph(pv, flat_db.view(g), &domains[g], iso);
        }
      }
    });
    const double nested_s = ReplaySeconds([&] {
      for (size_t p = 0; p < patterns.size(); ++p) {
        for (size_t g = 0; g < db.size(); ++g) {
          nested_found[p * db.size() + g] =
              ContainsSubgraph(patterns[p], db.graph(static_cast<GraphId>(g)), iso);
        }
      }
    });
    report.Check(flat_found == nested_found,
                 "flat and nested VF2 disagree on panel containment");
    const double calls = static_cast<double>(flat_found.size());
    report.Metric("iso.containment.calls", calls, "count");
    report.Metric("iso.flat_vf2.us_per_call", 1e6 * Ratio(flat_s, calls), "us");
    report.Metric("iso.vf2_nested.us_per_call", 1e6 * Ratio(nested_s, calls),
                  "us");
  }
}

// Counter-derived per-layer metrics of one traced pipeline run.
void ReportCounters(const obs::MetricsSnapshot& m, Report& report) {
  using obs::Counter;
  const auto c = [&m](Counter counter) {
    return static_cast<double>(m.counter(counter));
  };
  report.Metric("cluster.kmeans_iterations", c(Counter::kKmeansIterations),
                "count");
  report.Metric("cluster.fine_split_rounds", c(Counter::kFineSplitRounds),
                "count");
  report.Metric("csg.folds", c(Counter::kCsgFolds), "count");
  report.Metric("csg.dummy_pads", c(Counter::kCsgDummyPads), "count");
}

void ReportSelectionCounters(const obs::MetricsSnapshot& m, Report& report) {
  using obs::Counter;
  const auto c = [&m](Counter counter) {
    return static_cast<double>(m.counter(counter));
  };
  const double emitted = c(Counter::kPcpEmitted);
  const double lookups =
      c(Counter::kSelectorCacheHits) + c(Counter::kSelectorCacheMisses);
  const double div =
      c(Counter::kSelectorDivFolds) + c(Counter::kSelectorDivPruned);
  report.Metric("select.walk_steps", c(Counter::kWalkSteps), "count");
  report.Metric("select.pcp_emitted", emitted, "count");
  report.Metric("select.pcp_dedup_ratio",
                Ratio(c(Counter::kPcpDeduplicated), emitted), "ratio");
  report.Metric("select.cache_lookups", lookups, "count");
  report.Metric("select.cache_hit_ratio",
                Ratio(c(Counter::kSelectorCacheHits), lookups), "ratio");
  report.Metric("select.div_evaluations", div, "count");
  report.Metric("select.div_pruned_ratio",
                Ratio(c(Counter::kSelectorDivPruned), div), "ratio");
  report.Metric("iso.vf2.calls", c(Counter::kVf2Calls), "count");
  report.Metric("iso.vf2.nodes", c(Counter::kVf2Nodes), "count");
  report.Metric("iso.vf2.budget_exhausted", c(Counter::kVf2BudgetExhausted),
                "count");
}

std::string TracePath(const Args& args, const std::string& label) {
  return args.trace_out.empty() ? "" : args.trace_out + "." + label + ".json";
}

// --- Mine workloads ------------------------------------------------------

void RunMine(const Workload& w, const Args& args, Report& report) {
  const std::string path = WriteCorpus(w);
  std::vector<double> ingest_s;
  std::optional<GraphDatabase> db;
  const auto ingest_burst = [&] {
    const Clock::time_point burst = Clock::now();
    do {
      db.reset();
      const Clock::time_point start = Clock::now();
      db = Ingest(path);
      ingest_s.push_back(Since(start));
    } while (Since(burst) < kIngestBurstSeconds);
  };
  ingest_burst();
  const CatapultOptions options = ShippingOptions(w);

  if (!args.trace) {
    std::vector<double> panel_s;
    CatapultResult last;
    const Clock::time_point window = Clock::now();
    do {
      PanelRun run = RunPanel(*db, options, false, "");
      panel_s.push_back(run.seconds);
      CheckMinedPanel(*db, w, run.result, args.corrupt_panel && panel_s.size() == 1,
                      report);
      last = std::move(run.result);
      ingest_burst();
    } while (Since(window) < args.seconds);
    report.Metric("setup_s", Median(ingest_s), "s");
    report.Metric("panel_s", Median(panel_s), "s");
    std::string panels;
    for (double t : panel_s) panels += (panels.empty() ? "" : " ") + std::to_string(t);
    report.Note("panel_times_s", panels);

    // A mine workload serves one kind of request, a whole panel: its
    // request latencies are the panel builds of this run.
    report.Metric("req_p50_ms", 1e3 * Quantile(panel_s, 0.5), "ms");
    report.Metric("req_p90_ms", 1e3 * Quantile(panel_s, 0.9), "ms");
    ReportQuality(*db, last.selection.PatternGraphs(), report);
    return;
  }

  obs::Tracer replay_tracer;
  report.Metric("graph.ingest_s", Median(ingest_s), "s");
  const PanelRun plain = RunPanel(*db, options, false, "");
  CheckMinedPanel(*db, w, plain.result, false, report);
  PanelRun traced = RunPanel(*db, options, true, TracePath(args, "panel"));
  const size_t unsupported =
      CheckMinedPanel(*db, w, traced.result, false, report);
  const ExecutionReport& exec = traced.result.execution;

  double fine_s = SpanOr0(traced.spans, "clustering.fine");
  double csg_s = SpanOr0(traced.spans, "csg");
  double sharded_s = fine_s + csg_s;
  double inprocess_s = sharded_s;
  if (w.processes > 1) {
    // The sharded phase hides fine clustering and CSG folding inside the
    // workers; rerun in-process on as many threads to time them, and to
    // show the supervision overhead against the same phase.
    CatapultOptions inproc = options;
    inproc.processes = 0;
    inproc.threads = w.processes * w.threads;
    PanelRun local = RunPanel(*db, inproc, true, TracePath(args, "inprocess"));
    CheckMinedPanel(*db, w, local.result, false, report);
    fine_s = SpanOr0(local.spans, "clustering.fine");
    csg_s = SpanOr0(local.spans, "csg");
    sharded_s = SpanOr0(traced.spans, "dist.sharded_phases");
    inprocess_s = fine_s + csg_s;
  }
  const double select_s = SpanOr0(traced.spans, "selection");
  report.Metric("cluster.mining_s", SpanOr0(traced.spans, "clustering.mining"),
                "s");
  report.Metric("cluster.coarse_s", SpanOr0(traced.spans, "clustering.coarse"),
                "s");
  report.Metric("cluster.fine_s", fine_s, "s");
  report.Metric("cluster.fine_share",
                Ratio(w.processes > 1 ? sharded_s : fine_s, traced.seconds),
                "ratio");
  report.Metric("csg.build_s", csg_s, "s");
  ReportCounters(exec.metrics, report);
  report.Metric("select.s", select_s, "s");
  report.Metric("select.busy_s", exec.selection_parallel.busy_seconds, "s");
  report.Metric("select.parallelism",
                exec.selection_parallel.EffectiveParallelism(), "ratio");
  report.Metric("select.share", Ratio(select_s, traced.seconds), "ratio");
  ReportSelectionCounters(exec.metrics, report);
  report.Metric("select.unsupported_patterns", static_cast<double>(unsupported),
                "count");
  report.Metric("dist.sharded_s", sharded_s, "s");
  report.Metric("dist.inprocess_s", inprocess_s, "s");
  report.Metric("dist.workers_spawned",
                static_cast<double>(exec.dist.workers_spawned), "count");
  report.Metric("dist.retries", static_cast<double>(exec.dist.shard_retries),
                "count");
  report.Metric("serve.cache_hit_ratio", 0.0, "ratio");
  report.Metric("serve.shed", 0.0, "count");
  report.Metric("trace.overhead_pct",
                100.0 * (Ratio(traced.seconds, plain.seconds) - 1.0), "%");
  report.Note("traced_panel_s", std::to_string(traced.seconds));
  report.Note("untraced_panel_s", std::to_string(plain.seconds));
  ReportFormulate(*db, traced.result.selection.PatternGraphs(), report);
  ReplayKernels(*db, traced.result.selection.PatternGraphs(),
                traced.result.clusters, args.seed, &replay_tracer, report);
  if (!args.trace_out.empty()) {
    replay_tracer.WriteFile(TracePath(args, "replay"));
  }
}

// --- Serve workload ------------------------------------------------------

// Budget keys a client may ask for: every (eta_min, eta_max, gamma) with
// eta_max <= 6 and gamma <= 6 whose selection took 15-45 ms on the corpus
// when the benchmark was defined. Similar service times keep the latency
// percentiles steady from seed to seed; mixing 5 ms and 350 ms keys made
// p90 swing by 2x. The first key is the one whose panel is scored for
// query_steps / query_mp_pct.
std::vector<PatternBudget> KeyUniverse(bool tiny) {
  static constexpr size_t kKeys[][3] = {
      {4, 4, 6}, {3, 3, 4}, {3, 3, 5}, {3, 3, 6}, {3, 4, 2}, {3, 4, 3},
      {3, 4, 4}, {3, 5, 1}, {3, 5, 2}, {3, 5, 3}, {3, 6, 1}, {4, 4, 3},
      {4, 4, 4}, {4, 4, 5}, {4, 5, 1}, {4, 5, 2}, {4, 6, 1}, {4, 6, 2},
      {5, 5, 2}, {5, 5, 3}, {5, 6, 1}, {5, 6, 2}, {6, 6, 2}};
  std::vector<PatternBudget> keys;
  for (const auto& k : kKeys) {
    PatternBudget b;
    b.eta_min = k[0];
    b.eta_max = k[1];
    b.gamma = k[2];
    keys.push_back(b);
    if (tiny && keys.size() == 4) break;
  }
  return keys;
}

// Zipf(0.5) popularity over the universe. The ranking is fixed (a shuffle
// under a constant seed), so the workload seed draws arrivals and keys but
// never decides which keys are popular.
std::vector<double> KeyWeights(size_t n) {
  std::vector<size_t> rank(n);
  for (size_t i = 0; i < n; ++i) rank[i] = i;
  Rng rng(0x5EED);
  rng.Shuffle(rank);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) weights[rank[i]] = 1.0 / std::sqrt(1.0 + i);
  return weights;
}

struct Sent {
  size_t key = 0;
  bool bypass_cache = false;
  double due_s = 0.0;  // scheduled send, from the start of the window
  double sent_s = 0.0;
  double done_s = 0.0;
  serve::ServeClient::MineOutcome::Kind kind =
      serve::ServeClient::MineOutcome::Kind::kTransport;
  std::string panel;
};

// Share of requests that ask for a freshly computed panel (bypass_cache);
// the rest may be answered from the result cache.
constexpr double kBypassShare = 0.8;

// Poisson arrivals at `rate` per second over `seconds`, keys drawn by
// popularity, kBypassShare of them bypassing the cache; all from `seed`.
std::vector<Sent> Schedule(size_t num_keys, double rate, double seconds,
                           uint64_t seed) {
  Rng rng(seed);
  const std::vector<double> weights = KeyWeights(num_keys);
  std::vector<Sent> schedule;
  double t = -std::log(1.0 - rng.UniformReal()) / rate;
  while (t < seconds) {
    Sent s;
    s.due_s = t;
    s.key = rng.WeightedIndex(weights);
    s.bypass_cache = rng.UniformReal() < kBypassShare;
    schedule.push_back(s);
    t += -std::log(1.0 - rng.UniformReal()) / rate;
  }
  return schedule;
}

// Open loop: `clients` connections take the next scheduled request, wait
// for its due time, send it and wait for the reply. A request whose due
// time passes while every connection is busy goes out late; its latency
// still counts from the due time.
void Drive(const std::string& socket_path,
           const std::vector<PatternBudget>& keys, size_t clients,
           std::vector<Sent>& schedule) {
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto offset = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      serve::ServeClient client;
      const bool connected = client.Connect(socket_path).empty();
      for (size_t i = next++; i < schedule.size(); i = next++) {
        Sent& s = schedule[i];
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s.due_s)));
        s.sent_s = offset();
        if (connected) {
          serve::MineRequest request;
          request.eta_min = keys[s.key].eta_min;
          request.eta_max = keys[s.key].eta_max;
          request.gamma = keys[s.key].gamma;
          request.bypass_cache = s.bypass_cache;
          serve::ServeClient::MineOutcome out = client.Mine(request, 60000.0);
          s.kind = out.kind;
          s.panel = std::move(out.reply.panel);
        }
        s.done_s = offset();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// Quantiles of one numeric field over the request-log lines whose outcome
// is "ok" (worker-run selections).
std::vector<double> RequestLogField(const std::string& path,
                                    const std::string& field) {
  std::vector<double> values;
  std::ifstream in(path);
  std::string line;
  const std::string key = "\"" + field + "\":";
  while (std::getline(in, line)) {
    if (line.find("\"outcome\":\"ok\"") == std::string::npos) continue;
    const size_t at = line.find(key);
    if (at == std::string::npos) continue;
    values.push_back(std::strtod(line.c_str() + at + key.size(), nullptr));
  }
  return values;
}

struct References {
  std::vector<std::string> bytes;  // per key
  std::vector<std::vector<Graph>> patterns;
  double seconds = 0.0;
  double busy_seconds = 0.0;
  size_t unsupported = 0;  // patterns no data graph contains
  obs::MetricsSnapshot metrics;
};

// In-process RunCatapultSelection for every key of the universe on the
// server's own prepared corpus, one selection thread like a server worker.
References ComputeReferences(const GraphDatabase& db,
                             const PreparedCorpus& corpus,
                             const serve::ServeOptions& serve_options,
                             const std::vector<PatternBudget>& keys,
                             bool traced, Report& report) {
  References refs;
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  RunContext ctx = RunContext::NoLimit();
  if (traced) ctx = ctx.WithObservability(&registry, &tracer);
  for (const PatternBudget& key : keys) {
    CatapultOptions options = serve_options.pipeline;
    options.selector.budget = key;
    const Clock::time_point start = Clock::now();
    obs::Span span(traced ? &tracer : nullptr, "perfbench.reference");
    const CatapultResult r = RunCatapultSelection(db, corpus, options, ctx);
    span.Close();
    refs.seconds += Since(start);
    const bool degraded = !r.ok() || r.execution.Degraded();
    size_t unsupported = 0;
    const std::string why = CheckPanel(db, corpus.csgs, r.selection.patterns,
                                       key, degraded, &unsupported);
    report.Check(why.empty(), "reference " + BudgetLabel(key) + ": " + why);
    refs.unsupported += unsupported;
    refs.bytes.push_back(PanelBytes(db, r.selection.patterns, degraded));
    refs.patterns.push_back(r.selection.PatternGraphs());
    refs.busy_seconds += r.execution.selection_parallel.busy_seconds;
    report.Digest(BudgetLabel(key), refs.bytes.back());
  }
  if (traced) refs.metrics = registry.Snapshot();
  return refs;
}

void RunServe(const Workload& w, const Args& args, Report& report) {
  const std::string path = WriteCorpus(w);
  const std::vector<PatternBudget> keys = KeyUniverse(args.tiny);
  serve::ServeOptions options = ShippingServeOptions(w);
  // Relative to the working directory: AF_UNIX paths are limited to ~100
  // bytes.
  options.socket_path = "perfbench-serve.sock";
  const std::string request_log = "perfbench-requests.jsonl";
  if (args.trace) {
    std::remove(request_log.c_str());
    options.enable_tracing = true;
    options.request_log_path = request_log;
  }

  // Set-up: ingest + Server::Start (PrepareCorpus) until it serves. Three
  // starts, median reported; the last server stays up. panel_s: the whole
  // key universe selected in-process on the server's corpus, twice after
  // every start and twice after the traffic (median), so that one busy
  // moment of the host does not decide the figure.
  std::vector<double> pass_s;
  std::vector<double> setup_s;
  std::vector<double> ingest_s;
  std::unique_ptr<GraphDatabase> db;
  std::unique_ptr<serve::Server> server;
  const int starts = args.trace || args.tiny ? 1 : 3;
  for (int i = 0; i < starts; ++i) {
    server.reset();
    db.reset();
    const Clock::time_point start = Clock::now();
    db = std::make_unique<GraphDatabase>(Ingest(path));
    ingest_s.push_back(Since(start));
    server = std::make_unique<serve::Server>();
    const std::string error = server->Start(*db, options);
    setup_s.push_back(Since(start));
    if (!error.empty()) {
      std::fprintf(stderr, "perfbench: server start: %s\n", error.c_str());
      std::exit(1);
    }
    for (int pass = 0; pass < (args.trace ? 0 : 2); ++pass) {
      pass_s.push_back(
          ComputeReferences(*db, server->corpus(), options, keys, false, report)
              .seconds);
    }
  }

  // Rate: about half the workers' capacity, from the measured cost of
  // the seed commit's misses (README.md "serve_budgets").
  const double rate = args.tiny ? 20.0 : 36.0;
  std::vector<Sent> schedule = Schedule(keys.size(), rate, args.seconds, args.seed);
  const size_t clients = std::min<size_t>(
      4, std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN)));
  Drive(options.socket_path, keys, clients, schedule);
  server->Stop();
  const obs::MetricsSnapshot served = server->Metrics();
  std::map<std::string, double> prepare_spans = SpanSeconds(*server->tracer());

  const References refs = ComputeReferences(*db, server->corpus(), options,
                                            keys, false, report);
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  bool corrupt = args.corrupt_panel;
  for (Sent& s : schedule) {
    using Kind = serve::ServeClient::MineOutcome::Kind;
    if (corrupt && s.kind == Kind::kPanel && !s.panel.empty()) {
      s.panel.back() ^= 0x01;
      corrupt = false;
    }
    const bool ok = s.kind == Kind::kPanel && s.panel == refs.bytes[s.key];
    report.Check(ok, "served panel " + BudgetLabel(keys[s.key]) +
                         (s.kind == Kind::kPanel ? " differs from reference"
                                                 : " not served"));
    if (ok) latency_ms.push_back(1e3 * (s.done_s - s.due_s));
    lag_ms.push_back(1e3 * (s.sent_s - s.due_s));
  }
  report.Note("requests", std::to_string(schedule.size()));
  report.Note("clients", std::to_string(clients));
  report.Note("rate_per_s", std::to_string(rate));
  const std::vector<Graph>& quality_panel = refs.patterns.front();

  if (!args.trace) {
    pass_s.push_back(refs.seconds);
    pass_s.push_back(
        ComputeReferences(*db, server->corpus(), options, keys, false, report)
            .seconds);
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("panel_s", Median(pass_s), "s");
    report.Metric("req_p50_ms", Quantile(latency_ms, 0.5), "ms");
    report.Metric("req_p90_ms", Quantile(latency_ms, 0.9), "ms");
    ReportQuality(*db, quality_panel, report);
    return;
  }

  // Tracing overhead: untraced and traced universe passes, alternated.
  double untraced_s = refs.seconds;
  References traced_refs =
      ComputeReferences(*db, server->corpus(), options, keys, true, report);
  double traced_s = traced_refs.seconds;
  for (int pair = 0; pair < 2; ++pair) {
    untraced_s +=
        ComputeReferences(*db, server->corpus(), options, keys, false, report)
            .seconds;
    traced_refs =
        ComputeReferences(*db, server->corpus(), options, keys, true, report);
    traced_s += traced_refs.seconds;
  }
  using obs::Counter;
  const double requests =
      static_cast<double>(served.counter(Counter::kServeRequests));
  report.Metric("graph.ingest_s", Median(ingest_s), "s");
  report.Metric("cluster.mining_s", SpanOr0(prepare_spans, "clustering.mining"),
                "s");
  report.Metric("cluster.coarse_s", SpanOr0(prepare_spans, "clustering.coarse"),
                "s");
  const double fine_s = SpanOr0(prepare_spans, "clustering.fine");
  const double csg_s = SpanOr0(prepare_spans, "csg");
  report.Metric("cluster.fine_s", fine_s, "s");
  report.Metric("cluster.fine_share",
                Ratio(fine_s, SpanOr0(prepare_spans, "catapult.prepare")),
                "ratio");
  report.Metric("csg.build_s", csg_s, "s");
  ReportCounters(served, report);
  report.Metric("select.s", traced_refs.seconds, "s");
  report.Metric("select.busy_s", traced_refs.busy_seconds, "s");
  report.Metric("select.parallelism",
                Ratio(traced_refs.busy_seconds, traced_refs.seconds), "ratio");
  report.Metric("select.share", 1.0, "ratio");
  ReportSelectionCounters(traced_refs.metrics, report);
  report.Metric("select.unsupported_patterns",
                static_cast<double>(traced_refs.unsupported), "count");
  report.Metric("dist.sharded_s", fine_s + csg_s, "s");
  report.Metric("dist.inprocess_s", fine_s + csg_s, "s");
  report.Metric("dist.workers_spawned", 0.0, "count");
  report.Metric("dist.retries", 0.0, "count");
  report.Metric("serve.cache_hit_ratio",
                Ratio(static_cast<double>(served.counter(Counter::kServeCacheHits)),
                      requests),
                "ratio");
  report.Metric("serve.shed",
                static_cast<double>(served.counter(Counter::kServeShed)),
                "count");
  report.Metric("trace.overhead_pct",
                100.0 * (Ratio(traced_s, untraced_s) - 1.0), "%");
  // Serve-only timings: reported in the result file, not in BENCHMARK.json
  // (every per-layer metric there is measured on every workload).
  const std::vector<double> queue_ms = RequestLogField(request_log, "queue_wait_ms");
  const std::vector<double> run_ms = RequestLogField(request_log, "run_ms");
  report.Metric("serve.queue_wait_p50_ms", Quantile(queue_ms, 0.5), "ms");
  report.Metric("serve.queue_wait_p90_ms", Quantile(queue_ms, 0.9), "ms");
  report.Metric("serve.run_p50_ms", Quantile(run_ms, 0.5), "ms");
  report.Metric("serve.run_p90_ms", Quantile(run_ms, 0.9), "ms");
  report.Metric("serve.gen_lag_p90_ms", Quantile(lag_ms, 0.9), "ms");
  double busy_ms = 0.0;
  for (double ms : run_ms) busy_ms += ms;
  report.Metric("serve.worker_busy_ratio",
                Ratio(1e-3 * busy_ms,
                      args.seconds * static_cast<double>(options.worker_threads)),
                "ratio");
  report.Metric("serve.req_p50_ms", Quantile(latency_ms, 0.5), "ms");
  report.Metric("serve.req_p90_ms", Quantile(latency_ms, 0.9), "ms");
  ReportFormulate(*db, quality_panel, report);
  obs::Tracer replay_tracer;
  ReplayKernels(*db, quality_panel, server->corpus().clusters, args.seed,
                &replay_tracer, report);
  if (!args.trace_out.empty()) {
    replay_tracer.WriteFile(TracePath(args, "replay"));
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] "
               "[--corrupt-panel] [--trace-out PREFIX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-panel") {
      args.corrupt_panel = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.tiny = value == "tiny";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  const std::optional<Workload> workload = FindWorkload(args.workload, args.tiny);
  if (!workload) return Usage();

  Report report;
  if (workload->serve) {
    RunServe(*workload, args, report);
  } else {
    RunMine(*workload, args, report);
  }
  if (!args.trace) {
    report.Metric("ok_ratio",
                  Ratio(static_cast<double>(report.attempted() - report.failed()),
                        static_cast<double>(report.attempted())),
                  "ratio");
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  }
  std::printf("%s\n", report.Json(args).c_str());
  return 0;
}
