// Budget-exploration workflow: a GUI designer wants to decide how many
// patterns to show and in which size window, given limited panel space.
// This example reuses one clustering across many (eta_min, eta_max, gamma)
// budgets - the intended "interactive" use of the library API, where
// clustering is the one-time cost and selection is re-run per budget.
//
//   ./build/examples/incremental_budget

#include <cstdio>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/data/query_generator.h"
#include "src/formulate/evaluate.h"
#include "src/obs/clock.h"

int main() {
  using namespace catapult;

  MoleculeGeneratorOptions gen;
  gen.num_graphs = 300;
  gen.scaffold_families = 12;
  gen.seed = 99;
  GraphDatabase db = GenerateMoleculeDatabase(gen);

  // One-time cost: clustering, CSGs and their indices.
  CatapultOptions options;
  options.seed = 99;
  WallTimer clustering_timer;
  const PreparedCorpus corpus =
      PrepareCorpus(db, options, RunContext::NoLimit());
  std::printf("one-time clustering: %.1fs, %zu clusters\n",
              clustering_timer.ElapsedSeconds(), corpus.clusters.size());

  QueryWorkloadOptions wl;
  wl.count = 80;
  wl.min_edges = 4;
  wl.max_edges = 20;
  wl.seed = 7;
  std::vector<Graph> queries = GenerateQueryWorkload(db, wl);

  struct BudgetChoice {
    const char* label;
    PatternBudget budget;
  };
  const BudgetChoice choices[] = {
      {"compact panel", {.eta_min = 3, .eta_max = 5, .gamma = 6}},
      {"default panel", {.eta_min = 3, .eta_max = 8, .gamma = 12}},
      {"large panel", {.eta_min = 3, .eta_max = 10, .gamma = 24}},
      {"big-motifs only", {.eta_min = 6, .eta_max = 10, .gamma = 10}},
  };

  std::printf("\n%-16s %4s | %8s %8s %8s %9s\n", "panel", "|P|", "MP%",
              "avg_mu%", "avg_cog", "select(s)");
  for (const BudgetChoice& choice : choices) {
    SelectorOptions selector;
    selector.budget = choice.budget;
    // Interactive loop: the polynomial assignment-based GED oracle keeps
    // re-selection snappy at large gamma (see exp14_ablation_ged).
    selector.approximate_diversity = true;
    Rng selection_rng(17);
    WallTimer timer;
    SelectionResult selection =
        FindCannedPatternSet(db, corpus, selector, selection_rng);
    double seconds = timer.ElapsedSeconds();
    GuiModel gui = MakeCatapultGui(selection.PatternGraphs());
    WorkloadReport report = EvaluateGui(queries, gui);
    std::printf("%-16s %4zu | %8.1f %8.1f %8.2f %9.2f\n", choice.label,
                gui.patterns.size(), report.mp_percent, report.avg_mu * 100,
                AverageCognitiveLoad(gui.patterns), seconds);
  }
  std::printf(
      "\n(the 'big-motifs only' row shows the paper's Exp 8 effect: raising\n"
      "eta_min inflates MP because large patterns rarely fit queries.)\n");
  return 0;
}
