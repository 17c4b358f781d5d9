// Quickstart: generate a molecule-like graph database, run the full
// Catapult pipeline, and print the selected canned patterns with their
// coverage / diversity / cognitive-load diagnostics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/formulate/evaluate.h"

int main() {
  using namespace catapult;

  // 1. A data source: 800 synthetic molecule-like graphs (stands in for an
  //    AIDS/PubChem-style repository; see DESIGN.md).
  MoleculeGeneratorOptions data_options;
  data_options.num_graphs = 500;
  data_options.seed = 2024;
  GraphDatabase db = GenerateMoleculeDatabase(data_options);
  DatabaseStats stats = db.Stats();
  std::printf("database: %zu graphs, avg |V|=%.1f avg |E|=%.1f, %zu labels\n",
              stats.num_graphs, stats.avg_vertices, stats.avg_edges,
              stats.num_vertex_labels);

  // 2. Configure Catapult: budget b = (eta_min=3, eta_max=8, gamma=12).
  CatapultOptions options;
  options.selector.budget = {.eta_min = 3, .eta_max = 8, .gamma = 12};
  options.selector.walks_per_candidate = 30;
  options.clustering.max_cluster_size = 20;
  options.seed = 7;

  // 3. Run the pipeline: clustering -> CSGs -> pattern selection.
  CatapultResult result = RunCatapult(db, options);
  std::printf("clusters: %zu  (clustering %.2fs, csg %.2fs, select %.2fs)\n",
              result.clusters.size(), result.clustering_seconds,
              result.csg_seconds, result.selection_seconds);

  // 4. Inspect the selected canned patterns.
  std::printf("\nselected %zu canned patterns:\n",
              result.selection.patterns.size());
  for (size_t i = 0; i < result.selection.patterns.size(); ++i) {
    const SelectedPattern& p = result.selection.patterns[i];
    std::printf(
        "  #%-2zu |V|=%zu |E|=%zu  score=%.4f ccov=%.3f lcov=%.3f div=%.1f "
        "cog=%.2f\n",
        i + 1, p.graph.NumVertices(), p.graph.NumEdges(), p.score, p.ccov,
        p.lcov, p.div, p.cog);
  }

  // 5. Coverage of the whole set.
  std::vector<Graph> patterns = result.Patterns();
  double scov = SubgraphCoverage(patterns, db, /*sample_cap=*/400);
  std::printf("\nscov(P, D) ~= %.3f   avg div=%.2f   avg cog=%.2f\n", scov,
              AverageSetDiversity(patterns), AverageCognitiveLoad(patterns));
  return 0;
}
