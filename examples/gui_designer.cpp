// GUI-designer workflow: build and persist a pattern panel for a dataset,
// and quantify how it compares against (a) a manually-curated unlabelled
// panel (PubChem-style) and (b) top-frequent-edge "patterns".
//
// Demonstrates the serialisation round-trip a real deployment would use:
// the miner runs offline, writes the panel to disk, and the GUI loads it.
//
//   ./build/examples/gui_designer

#include <cstdio>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/data/query_generator.h"
#include "src/formulate/evaluate.h"
#include "src/formulate/qft.h"
#include "src/graph/io.h"
#include "src/mining/frequent_edges.h"

int main() {
  using namespace catapult;

  MoleculeGeneratorOptions gen;
  gen.num_graphs = 400;
  gen.scaffold_families = 16;
  gen.seed = 2718;
  GraphDatabase db = GenerateMoleculeDatabase(gen);

  // Mine the panel.
  CatapultOptions options;
  options.selector.budget = {.eta_min = 3, .eta_max = 8, .gamma = 12};
  options.seed = 2718;
  CatapultResult result = RunCatapult(db, options);
  std::vector<Graph> patterns = result.Patterns();

  // Persist the panel in the same text format as the data graphs, so the
  // GUI layer can load it without linking the miner.
  GraphDatabase panel_db;
  panel_db.labels() = db.labels();
  for (const Graph& p : patterns) panel_db.Add(p);
  const char* path = "/tmp/catapult_panel.txt";
  if (IoStatus status = WriteDatabaseToFile(panel_db, path); !status) {
    std::printf("failed to write %s: %s\n", path, status.message().c_str());
    return 1;
  }
  auto reloaded = ReadDatabaseFromFile(path);
  std::printf("panel: %zu patterns mined, %zu reloaded from %s\n",
              patterns.size(), reloaded ? reloaded->size() : 0, path);

  // Compare three panels on the same workload.
  QueryWorkloadOptions wl;
  wl.count = 120;
  wl.min_edges = 4;
  wl.max_edges = 25;
  wl.seed = 31;
  std::vector<Graph> queries = GenerateQueryWorkload(db, wl);

  GuiModel catapult_gui = MakeCatapultGui(patterns);
  GuiModel manual_gui = MakePubChemGui(db.labels().Intern("C"));
  GuiModel edges_gui = MakeCatapultGui(TopFrequentEdgePatterns(db, 12));
  edges_gui.name = "top-edges";

  QftModel qft_model;
  std::printf("\n%-12s %8s %8s %10s %9s %9s %9s\n", "panel", "MP%",
              "avg_mu%", "avg_steps", "avg_cog", "avg_div", "avg_QFT");
  Rng qft_rng(99);
  for (const GuiModel* gui : {&catapult_gui, &manual_gui, &edges_gui}) {
    WorkloadReport report = EvaluateGui(queries, *gui);
    double qft_sum = 0.0;
    for (size_t i = 0; i < queries.size(); i += 4) {  // subsample for speed
      qft_sum += AverageQft(queries[i], *gui, qft_model, 3, qft_rng);
    }
    double avg_qft = qft_sum / static_cast<double>((queries.size() + 3) / 4);
    std::printf("%-12s %8.1f %8.1f %10.1f %9.2f %9.2f %9.1f\n",
                gui->name.c_str(), report.mp_percent, report.avg_mu * 100,
                report.avg_steps, AverageCognitiveLoad(gui->patterns),
                AverageSetDiversity(gui->patterns), avg_qft);
  }
  std::printf(
      "\n(top-edge patterns tile any query - step counts look good - but\n"
      "every placement is a separate visual-search episode, so the\n"
      "simulated formulation time (QFT) favours the larger, low-cog\n"
      "Catapult patterns: the paper's core point about coverage alone\n"
      "being insufficient.)\n");
  return 0;
}
