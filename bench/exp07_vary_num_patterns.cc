// Exp 7 (Figure 13): effect of the number of canned patterns |P|.
//
// Runs selection at |P| in {5, 10, 20, 30, 40} over a fixed clustering and
// reports max/avg mu, MP, and PGT on four dataset stand-ins would be
// excessive for one core; we use the AIDS-like and PubChem-like pair.
//
// Paper shape: mu is largely flat in |P|; MP drops (~50% from |P|=10 to
// 40); PGT grows with |P|; avg cog stays in [1.65, 1.97].

#include "bench/bench_common.h"
#include "src/obs/clock.h"

namespace catapult {
namespace {

void RunDataset(const char* name, const GraphDatabase& db, uint64_t seed) {
  // Cluster once; rerun only the selection per |P| (PGT is selection time).
  CatapultOptions base = bench::DefaultPipeline(
      {.eta_min = 3, .eta_max = 8, .gamma = 5}, seed);
  const PreparedCorpus corpus = PrepareCorpus(db, base, RunContext::NoLimit());
  std::vector<Graph> queries =
      bench::StandardQueries(db, bench::Scaled(80), seed + 1, 4, 30);

  std::printf("\n--- %s (%zu graphs, %zu clusters) ---\n", name, db.size(),
              corpus.clusters.size());
  std::printf("%4s | %8s %8s %7s %8s %8s\n", "|P|", "max_mu%", "avg_mu%",
              "MP%", "PGT(s)", "avg_cog");
  for (size_t gamma : {size_t{5}, size_t{10}, size_t{20}, size_t{30},
                       size_t{40}}) {
    SelectorOptions selector = base.selector;
    selector.budget.gamma = gamma;
    Rng selection_rng(seed + 2);
    WallTimer timer;
    SelectionResult selection =
        FindCannedPatternSet(db, corpus, selector, selection_rng);
    double pgt = timer.ElapsedSeconds();
    GuiModel gui = MakeCatapultGui(selection.PatternGraphs());
    WorkloadReport report = EvaluateGui(queries, gui);
    std::printf("%4zu | %8.1f %8.1f %7.1f %8.2f %8.2f\n", gamma,
                report.max_mu * 100, report.avg_mu * 100, report.mp_percent,
                pgt, AverageCognitiveLoad(gui.patterns));
  }
}

}  // namespace
}  // namespace catapult

int main() {
  using namespace catapult;
  bench::PrintHeader("Exp 7 (Fig. 13): varying |P|");
  GraphDatabase aids = bench::MakeAidsLike(bench::Scaled(350), 1234);
  RunDataset("AIDS-like", aids, 91);
  GraphDatabase pubchem = bench::MakePubChemLike(bench::Scaled(300), 999);
  RunDataset("PubChem-like", pubchem, 95);
  std::printf(
      "\nexpected shape: mu roughly flat; MP falls as |P| grows; PGT rises\n"
      "with |P|; avg cog stays low (~1.6-2.0) (paper Fig. 13).\n");
  return 0;
}
