// Microbenchmarks of the NP-hard primitives underpinning Catapult
// (google-benchmark): VF2 subgraph isomorphism, MCCS, exact GED, the
// Definition 5.1 lower bound, diversity with vs without lower-bound
// pruning, CSG construction, and weighted random walks.

#include <benchmark/benchmark.h>

#include <limits>

#include "bench/bench_common.h"
#include "src/core/pattern_score.h"
#include "src/core/random_walk.h"
#include "src/core/score_table.h"
#include "src/graph/algorithms.h"
#include "src/graph/flat_graph.h"
#include "src/obs/metrics.h"
#include "src/csg/csg.h"
#include "src/iso/flat_vf2.h"
#include "src/iso/ged.h"
#include "src/iso/mcs.h"
#include "src/iso/vf2.h"

namespace catapult {
namespace {

GraphDatabase& SharedDb() {
  static GraphDatabase* db =
      new GraphDatabase(bench::MakeAidsLike(200, 1234));
  return *db;
}

std::vector<Graph>& SharedPatterns() {
  static std::vector<Graph>* patterns = [] {
    auto* p = new std::vector<Graph>();
    Rng rng(5);
    for (int i = 0; i < 8; ++i) {
      p->push_back(RandomConnectedSubgraph(
          SharedDb().graph(static_cast<GraphId>(i * 7)), 4 + i % 5, rng));
    }
    return p;
  }();
  return *patterns;
}

// The Graph entry point ContainsSubgraph: flattens pattern and target on
// every call, then runs the kernel. Before the kernels were merged this
// timed the nested-vector search; BENCH_micro.json keeps that recording.
void BM_Vf2Contains(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  Rng rng(1);
  Graph pattern = RandomConnectedSubgraph(
      db.graph(3), static_cast<size_t>(state.range(0)), rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ContainsSubgraph(pattern, db.graph(i % db.size())));
    ++i;
  }
}
BENCHMARK(BM_Vf2Contains)->Arg(3)->Arg(6)->Arg(9)->Arg(12);

// The kernel alone: the same containment tests driven off a database
// flattened once, with its label-domain bitsets (DESIGN.md §15) — what
// every scan pays per test. The gap to BM_Vf2Contains is the cost of
// flattening per call.
void BM_FlatVf2Contains(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  Rng rng(1);
  Graph pattern = RandomConnectedSubgraph(
      db.graph(3), static_cast<size_t>(state.range(0)), rng);
  FlatGraph flat_pattern = FlatGraph::Build(pattern);
  FlatGraphDatabase flat_db = FlatGraphDatabase::Build(db);
  size_t i = 0;
  for (auto _ : state) {
    size_t g = i % db.size();
    benchmark::DoNotOptimize(FlatContainsSubgraph(
        flat_pattern.View(), flat_db.view(g), &flat_db.domains(g)));
    ++i;
  }
}
BENCHMARK(BM_FlatVf2Contains)->Arg(3)->Arg(6)->Arg(9)->Arg(12);

// Cost of flattening: Graph -> CSR arrays + sorted permutation, the one-off
// build amortised over every later containment call against the graph.
void BM_FlatGraphBuild(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FlatGraph::Build(db.graph(i % db.size())));
    ++i;
  }
}
BENCHMARK(BM_FlatGraphBuild);

// One memoized greedy rescore: fold the diversity running-min forward over
// one newly selected pattern, vs folding the whole panel from (0, +inf)
// (what every iteration paid before the class cache, and what a fresh
// class or a deadline-tightened iteration still pays).
void BM_MemoizedRescore(benchmark::State& state) {
  const auto& patterns = SharedPatterns();
  std::vector<Graph> panel(patterns.begin() + 1, patterns.end());
  GedOptions ged;
  const bool memoized = state.range(0) != 0;
  const double inf = std::numeric_limits<double>::infinity();
  // Running minimum over all but the last panel member, as the memo would
  // carry it into the iteration that just selected the last member.
  double carried = FoldDiversity(
      patterns[0], {panel.begin(), panel.end() - 1}, 0, inf, ged, false);
  for (auto _ : state) {
    double d = memoized
                   ? FoldDiversity(patterns[0], panel, panel.size() - 1,
                                   carried, ged, false)
                   : FoldDiversity(patterns[0], panel, 0, inf, ged, false);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_MemoizedRescore)->Arg(0)->Arg(1);

void BM_Mccs(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  McsOptions options;
  options.node_budget = static_cast<uint64_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(McsSimilarity(
        db.graph(i % db.size()), db.graph((i + 17) % db.size()), options));
    ++i;
  }
}
BENCHMARK(BM_Mccs)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_GedExact(benchmark::State& state) {
  const auto& patterns = SharedPatterns();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GraphEditDistance(
        patterns[i % patterns.size()], patterns[(i + 3) % patterns.size()]));
    ++i;
  }
}
BENCHMARK(BM_GedExact);

void BM_GedLowerBound(benchmark::State& state) {
  const auto& patterns = SharedPatterns();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GedLowerBound(
        patterns[i % patterns.size()], patterns[(i + 3) % patterns.size()]));
    ++i;
  }
}
BENCHMARK(BM_GedLowerBound);

// Diversity of a pattern against a set, with the Definition 5.1 pruning
// (the library path) vs brute-force exact GED against every member.
void BM_DiversityPruned(benchmark::State& state) {
  const auto& patterns = SharedPatterns();
  std::vector<Graph> set(patterns.begin() + 1, patterns.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FoldDiversity(patterns[0], set, 0,
                      std::numeric_limits<double>::infinity(), GedOptions{},
                      /*approximate=*/false));
  }
}
BENCHMARK(BM_DiversityPruned);

void BM_DiversityBruteForce(benchmark::State& state) {
  const auto& patterns = SharedPatterns();
  std::vector<Graph> set(patterns.begin() + 1, patterns.end());
  for (auto _ : state) {
    double best = 1e18;
    for (const Graph& q : set) {
      best = std::min(best, GraphEditDistance(patterns[0], q).distance);
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_DiversityBruteForce);

void BM_BuildCsg(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  std::vector<GraphId> cluster;
  for (int64_t i = 0; i < state.range(0); ++i) {
    cluster.push_back(static_cast<GraphId>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildCsg(db, cluster));
  }
}
BENCHMARK(BM_BuildCsg)->Arg(5)->Arg(10)->Arg(20);

void BM_RandomWalkPcp(benchmark::State& state) {
  const GraphDatabase& db = SharedDb();
  std::vector<GraphId> cluster;
  for (GraphId i = 0; i < 20; ++i) cluster.push_back(i);
  ClusterSummaryGraph csg = BuildCsg(db, cluster);
  EdgeLabelWeights elw{LabelCoverageIndex(db)};
  WeightedCsg wcsg = MakeWeightedCsg(csg, elw);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GeneratePcp(wcsg, static_cast<size_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_RandomWalkPcp)->Arg(4)->Arg(8)->Arg(12);

// Console output plus a machine-readable BENCH_micro.json: every run's
// (name, real_time, cpu_time, iterations) plus the aggregate per-primitive
// metrics of the whole benchmark process (how many VF2 calls / nodes, GED
// calls, walk steps the suite actually performed), written through the
// shared bench::JsonWriter on exit.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  struct Run {
    std::string name;
    double real_time_ns = 0.0;
    double cpu_time_ns = 0.0;
    uint64_t iterations = 0;
  };

  void ReportRuns(const std::vector<benchmark::BenchmarkReporter::Run>& runs)
      override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      Run r;
      r.name = run.benchmark_name();
      r.real_time_ns = run.GetAdjustedRealTime();
      r.cpu_time_ns = run.GetAdjustedCPUTime();
      r.iterations = static_cast<uint64_t>(run.iterations);
      collected_.push_back(std::move(r));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  bool WriteJson(const std::string& path,
                 const obs::MetricsSnapshot& metrics) const {
    bench::JsonWriter json;
    json.BeginObject();
    json.Key("experiment").Value("micro_primitives");
    json.Key("time_unit").Value("ns");
    json.Key("benchmarks").BeginArray();
    for (const Run& r : collected_) {
      json.BeginObject();
      json.Key("name").Value(r.name);
      json.Key("real_time").Value(r.real_time_ns);
      json.Key("cpu_time").Value(r.cpu_time_ns);
      json.Key("iterations").Value(r.iterations);
      json.EndObject();
    }
    json.EndArray();
    json.Key("metrics").BeginObject();
    obs::RenderMetricsFields(metrics, json);
    json.EndObject();
    json.EndObject();
    return json.WriteFile(path);
  }

 private:
  std::vector<Run> collected_;
};

}  // namespace
}  // namespace catapult

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Count every primitive the suite exercises: the benchmarks run on this
  // thread, so one registry scope covers them all.
  catapult::obs::MetricsRegistry registry;
  catapult::obs::ScopedMetricsScope metrics_scope(&registry);
  catapult::JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const char* out_path = "BENCH_micro.json";
  if (reporter.WriteJson(out_path, registry.Snapshot())) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("failed to write %s\n", out_path);
  }
  return 0;
}
