// Substructure search session: the end-to-end loop a PubChem-style site
// runs. A user formulates a query visually with the mined pattern panel
// (printed as an Example 1.1-style step script), and the filter-and-verify
// search engine retrieves the matching compounds.
//
//   ./build/examples/substructure_search

#include <cstdio>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/data/query_generator.h"
#include "src/formulate/session.h"
#include "src/search/search_engine.h"
#include "src/obs/clock.h"

int main() {
  using namespace catapult;

  MoleculeGeneratorOptions gen;
  gen.num_graphs = 500;
  gen.scaffold_families = 12;
  gen.seed = 1618;
  GraphDatabase db = GenerateMoleculeDatabase(gen);

  // Offline: mine the panel and build the search index.
  CatapultOptions options;
  options.selector.budget = {.eta_min = 3, .eta_max = 6, .gamma = 8};
  options.seed = 1618;
  CatapultResult mined = RunCatapult(db, options);
  GuiModel panel = MakeCatapultGui(mined.Patterns());
  SubgraphSearchEngine engine(db);

  // Online: the user draws a query (here: a random real substructure).
  Rng rng(27);
  QueryWorkloadOptions wl;
  wl.count = 1;
  wl.min_edges = 6;
  wl.max_edges = 8;
  wl.seed = 27;
  Graph query = GenerateQueryWorkload(db, wl).front();

  std::printf("query: %s\n\n", query.DebugString().c_str());
  FormulationPlan plan = PlanFormulation(query, panel);
  std::printf("formulation script (%zu steps vs %zu edge-at-a-time):\n%s\n",
              plan.steps.size(), query.NumVertices() + query.NumEdges(),
              DescribePlan(plan, query, panel, &db.labels()).c_str());

  // Execute the subgraph search.
  WallTimer timer;
  std::vector<GraphId> matches = engine.Search(query);
  double filter_only =
      static_cast<double>(engine.FilterCandidates(query).Count());
  std::printf(
      "search: %zu matching compounds out of %zu (%.2f ms; edge-label "
      "filter kept %.0f candidates)\n",
      matches.size(), db.size(), timer.ElapsedMillis(), filter_only);
  std::printf("first matches:");
  for (size_t i = 0; i < matches.size() && i < 8; ++i) {
    std::printf(" G%u", matches[i]);
  }
  std::printf("\n");
  return 0;
}
