// Drug-discovery scenario (mirrors Example 1.1 of the paper).
//
// A medicinal-chemistry team curates a repository of compounds around a
// shared functional core (here: the urea-like N-C(=O)-N motif family from
// the synthetic generator). They want their visual query tool's pattern
// panel to surface that core automatically, so that a tmad-style query
// takes ~3 pattern-level steps instead of ~17 edge-level steps.
//
//   ./build/examples/drug_discovery

#include <cstdio>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/formulate/evaluate.h"
#include "src/formulate/steps.h"
#include "src/graph/algorithms.h"
#include "src/iso/vf2.h"
#include "src/mining/frequent_edges.h"
#include "src/util/rng.h"

int main() {
  using namespace catapult;

  // A repository dominated by urea-like compounds (scaffold family 3 is
  // the N-C(-O)-N star; see src/data/molecule_generator.cc): ~60% urea
  // derivatives plus a backdrop of ring/chain compounds.
  MoleculeGeneratorOptions urea_gen;
  urea_gen.num_graphs = 240;
  urea_gen.scaffold_family_offset = 3;  // urea-like star
  urea_gen.scaffold_families = 1;
  urea_gen.min_vertices = 8;
  urea_gen.max_vertices = 20;
  urea_gen.seed = 404;
  GraphDatabase db = GenerateMoleculeDatabase(urea_gen);
  MoleculeGeneratorOptions backdrop_gen = urea_gen;
  backdrop_gen.num_graphs = 160;
  backdrop_gen.scaffold_family_offset = 0;
  backdrop_gen.scaffold_families = 3;  // benzene / pyridine / furan-like
  backdrop_gen.seed = 405;
  GraphDatabase backdrop = GenerateMoleculeDatabase(backdrop_gen);
  // Both databases intern the same atom alphabet in the same order, so
  // labels are directly compatible.
  for (const Graph& g : backdrop.graphs()) db.Add(g);

  // Mine the pattern panel: 8 patterns, sizes 3-6 edges.
  CatapultOptions options;
  options.selector.budget = {.eta_min = 3, .eta_max = 6, .gamma = 8};
  options.seed = 404;
  CatapultResult result = RunCatapult(db, options);

  // Does the panel contain a urea-like pattern (N-C(-O)-N present)?
  Label C = db.labels().Find("C");
  Label O = db.labels().Find("O");
  Label N = db.labels().Find("N");
  Graph urea;
  VertexId c = urea.AddVertex(C);
  VertexId n1 = urea.AddVertex(N);
  VertexId n2 = urea.AddVertex(N);
  VertexId o = urea.AddVertex(O);
  urea.AddEdge(c, n1);
  urea.AddEdge(c, n2);
  urea.AddEdge(c, o);

  std::printf("panel of %zu patterns:\n", result.selection.patterns.size());
  bool panel_has_urea = false;
  for (size_t i = 0; i < result.selection.patterns.size(); ++i) {
    const Graph& p = result.selection.patterns[i].graph;
    bool contains_urea = ContainsSubgraph(urea, p);
    panel_has_urea |= contains_urea;
    std::printf("  P%zu: %s%s\n", i + 1, p.DebugString().c_str(),
                contains_urea ? "   <-- urea-like core" : "");
  }
  std::printf("urea-like motif on the panel: %s\n",
              panel_has_urea ? "yes" : "no");

  // A TMAD-style query: two urea cores joined by a bond.
  Graph query;
  VertexId qc1 = query.AddVertex(C);
  VertexId qn1 = query.AddVertex(N);
  VertexId qn2 = query.AddVertex(N);
  VertexId qo1 = query.AddVertex(O);
  query.AddEdge(qc1, qn1);
  query.AddEdge(qc1, qn2);
  query.AddEdge(qc1, qo1);
  VertexId qc2 = query.AddVertex(C);
  VertexId qn3 = query.AddVertex(N);
  VertexId qn4 = query.AddVertex(N);
  VertexId qo2 = query.AddVertex(O);
  query.AddEdge(qc2, qn3);
  query.AddEdge(qc2, qn4);
  query.AddEdge(qc2, qo2);
  query.AddEdge(qn2, qn3);  // the bridge

  // A real GUI also exposes basic patterns (top-m labelled edges and
  // 2-paths; Section 3.2 remark) below the canned patterns. Combine both.
  std::vector<Graph> panel_patterns = result.Patterns();
  for (Graph& basic : TopBasicPatterns(db, 6)) {
    panel_patterns.push_back(std::move(basic));
  }
  GuiModel panel = MakeCatapultGui(std::move(panel_patterns));
  QueryFormulation with_panel = FormulateQuery(query, panel);
  std::printf(
      "\nTMAD-style query (|V|=%zu, |E|=%zu):\n"
      "  edge-at-a-time: %zu steps\n"
      "  with the panel (canned + basic patterns): %zu steps "
      "(%zu placements), mu = %.0f%%\n",
      query.NumVertices(), query.NumEdges(), with_panel.steps_total,
      with_panel.steps_patterns, with_panel.patterns_used,
      with_panel.mu * 100);

  // And a realistic repository query (a 12-edge substructure of an actual
  // urea derivative, decorations included).
  Rng rng(406);
  Graph realistic = RandomConnectedSubgraph(db.graph(3), 12, rng);
  QueryFormulation f = FormulateQuery(realistic, panel);
  std::printf(
      "repository query (|V|=%zu, |E|=%zu):\n"
      "  edge-at-a-time: %zu steps\n"
      "  with the panel: %zu steps (%zu placements), mu = %.0f%%\n",
      realistic.NumVertices(), realistic.NumEdges(), f.steps_total,
      f.steps_patterns, f.patterns_used, f.mu * 100);
  return 0;
}
