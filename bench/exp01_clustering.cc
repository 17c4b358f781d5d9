// Exp 1 (Figure 7): small graph clustering strategies.
//
// Reproduces the comparison of (a) coarse-only (CC), (b) MCCS fine-only
// (mccsFC), (c) MCS fine-only (mcsFC), (d) hybrid with MCCS (mccsH) and
// (e) hybrid with MCS (mcsH) in terms of clustering time and CSG
// compactness xi_t for t in {0.4, 0.5, 0.6}, on an AIDS10K-like and an
// AIDS40K-like dataset (scaled; see bench_common.h). Next to the time, each
// row prints the MCS work behind it: `mcs.nodes`, the search-tree nodes
// counted against the budgets, and `mcs.nodes_walked`, the ones the
// searches entered (the connected search counts a mapping set it already
// explored without walking it again; src/iso/mcs.h).
//
// Paper shape: CC fastest but least compact; mccsFC most expensive; the
// hybrid mccsH reaches the best compactness at reasonable time.

#include "bench/bench_common.h"
#include "src/csg/csg.h"
#include "src/obs/metrics.h"

namespace catapult {
namespace {

using bench::PrintHeader;
using bench::Scaled;

struct Config {
  const char* name;
  ClusteringMode mode;
  bool connected_mcs;
};

void RunDataset(const char* dataset_name, const GraphDatabase& db) {
  std::printf("\n--- %s (%zu graphs) ---\n", dataset_name, db.size());
  std::printf("%-8s %12s %12s %12s %10s %10s %10s %10s\n", "config",
              "time(s)", "mcs.nodes", "walked", "clusters", "xi0.4", "xi0.5",
              "xi0.6");

  const Config configs[] = {
      {"CC", ClusteringMode::kCoarseOnly, true},
      {"mccsFC", ClusteringMode::kFineOnly, true},
      {"mcsFC", ClusteringMode::kFineOnly, false},
      {"mccsH", ClusteringMode::kHybrid, true},
      {"mcsH", ClusteringMode::kHybrid, false},
  };
  for (const Config& config : configs) {
    CatapultOptions options;
    options.clustering.mode = config.mode;
    options.clustering.max_cluster_size = 20;
    options.clustering.fine_mcs.connected = config.connected_mcs;
    options.clustering.fine_mcs.node_budget = 6000;
    options.seed = 42;
    obs::MetricsRegistry registry;
    const RunContext ctx =
        RunContext::NoLimit().WithObservability(&registry, nullptr);
    const PreparedCorpus corpus = PrepareCorpus(db, options, ctx);
    const obs::MetricsSnapshot metrics = registry.Snapshot();

    double xi[3] = {0, 0, 0};
    const double thresholds[3] = {0.4, 0.5, 0.6};
    size_t nonempty = 0;
    for (const ClusterSummaryGraph& csg : corpus.csgs) {
      if (csg.NumEdges() == 0) continue;
      ++nonempty;
      for (int t = 0; t < 3; ++t) xi[t] += csg.Compactness(thresholds[t]);
    }
    for (int t = 0; t < 3; ++t) {
      xi[t] = nonempty > 0 ? xi[t] / static_cast<double>(nonempty) : 0.0;
    }
    std::printf(
        "%-8s %12.2f %12llu %12llu %10zu %10.3f %10.3f %10.3f\n", config.name,
        corpus.clustering_seconds,
        static_cast<unsigned long long>(
            metrics.counter(obs::Counter::kMcsNodes)),
        static_cast<unsigned long long>(
            metrics.counter(obs::Counter::kMcsNodesWalked)),
        corpus.clusters.size(), xi[0], xi[1], xi[2]);
  }
}

}  // namespace
}  // namespace catapult

int main() {
  using namespace catapult;
  bench::PrintHeader(
      "Exp 1 (Fig. 7): clustering strategies - time & CSG compactness");
  GraphDatabase small = bench::MakeAidsLike(bench::Scaled(300), 1234);
  GraphDatabase large = bench::MakeAidsLike(bench::Scaled(800), 5678);
  RunDataset("AIDS10K-like", small);
  RunDataset("AIDS40K-like", large);
  std::printf(
      "\nexpected shape: CC fastest / least compact; mccsFC slowest;\n"
      "hybrid mccsH most compact at moderate time (paper Fig. 7).\n");
  return 0;
}
