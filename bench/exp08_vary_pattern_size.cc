// Exp 8 (Figures 14, 15, 16): effect of the pattern-size budget.
//
// Part A sweeps eta_min in {3, 5, 7, 9} at eta_max = 12; part B sweeps
// eta_max in {5, 7, 9, 12} at eta_min = 3. Reports max/avg mu, MP, PGT,
// and the diversity/cognitive-load side effects (Figure 16).
//
// Paper shape: growing eta_min sharply raises MP and lowers avg mu (big
// patterns rarely fit a query) and lowers PGT; growing eta_max barely
// moves MP but raises PGT; div rises with eta_min and falls with |P|;
// cog stays roughly constant.

#include "bench/bench_common.h"
#include "src/obs/clock.h"

namespace catapult {
namespace {

struct Sweep {
  const char* title;
  std::vector<PatternBudget> budgets;
};

void RunSweep(const GraphDatabase& db, const SelectionCorpus& corpus,
              const std::vector<Graph>& queries, const Sweep& sweep,
              uint64_t seed) {
  std::printf("\n--- %s ---\n", sweep.title);
  std::printf("%5s %5s | %8s %8s %7s %8s %7s %7s\n", "emin", "emax",
              "max_mu%", "avg_mu%", "MP%", "PGT(s)", "div", "cog");
  for (const PatternBudget& budget : sweep.budgets) {
    SelectorOptions selector;
    selector.budget = budget;
    selector.walks_per_candidate = 15;
    // eta_max = 12 makes candidates large; the polynomial GED oracle keeps
    // the 8-budget sweep tractable on one core (see exp14_ablation_ged for
    // the exact-vs-approximate comparison: near-identical panels).
    selector.approximate_diversity = true;
    Rng rng(seed);
    WallTimer timer;
    SelectionResult selection =
        FindCannedPatternSet(db, corpus, selector, rng);
    double pgt = timer.ElapsedSeconds();
    GuiModel gui = MakeCatapultGui(selection.PatternGraphs());
    WorkloadReport report = EvaluateGui(queries, gui);
    std::printf("%5zu %5zu | %8.1f %8.1f %7.1f %8.2f %7.2f %7.2f\n",
                budget.eta_min, budget.eta_max, report.max_mu * 100,
                report.avg_mu * 100, report.mp_percent, pgt,
                AverageSetDiversity(gui.patterns),
                AverageCognitiveLoad(gui.patterns));
  }
}

}  // namespace
}  // namespace catapult

int main() {
  using namespace catapult;
  bench::PrintHeader("Exp 8 (Fig. 14-16): varying eta_min / eta_max");

  GraphDatabase db = bench::MakeAidsLike(bench::Scaled(350), 1234);
  CatapultOptions base = bench::DefaultPipeline(
      {.eta_min = 3, .eta_max = 12, .gamma = 12}, 101);
  const PreparedCorpus corpus = PrepareCorpus(db, base, RunContext::NoLimit());
  std::vector<Graph> queries =
      bench::StandardQueries(db, bench::Scaled(80), 103, 4, 30);

  Sweep sweep_min{"vary eta_min (eta_max = 12, gamma = 12)", {}};
  for (size_t emin : {size_t{3}, size_t{5}, size_t{7}, size_t{9}}) {
    sweep_min.budgets.push_back({.eta_min = emin, .eta_max = 12, .gamma = 12});
  }
  RunSweep(db, corpus, queries, sweep_min, 107);

  Sweep sweep_max{"vary eta_max (eta_min = 3, gamma = 12)", {}};
  for (size_t emax : {size_t{5}, size_t{7}, size_t{9}, size_t{12}}) {
    sweep_max.budgets.push_back({.eta_min = 3, .eta_max = emax, .gamma = 12});
  }
  RunSweep(db, corpus, queries, sweep_max, 109);

  std::printf(
      "\nexpected shape: raising eta_min sharply raises MP and lowers avg\n"
      "mu while div rises; raising eta_max barely moves MP and raises PGT\n"
      "(paper Figs. 14-16).\n");
  return 0;
}
