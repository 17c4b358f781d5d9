// Cross-module invariants: monotonicity and consistency properties that
// connect independently implemented components.

#include <gtest/gtest.h>

#include "src/csg/csg.h"
#include "src/data/molecule_generator.h"
#include "src/formulate/evaluate.h"
#include "src/iso/mcs.h"
#include "src/search/search_engine.h"
#include "src/graph/algorithms.h"

namespace catapult {
namespace {

class InvariantProperty : public ::testing::TestWithParam<int> {};

TEST_P(InvariantProperty, CsgCompactnessIsMonotoneInThreshold) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 12;
  gen.scaffold_families = 1 + seed % 4;
  gen.seed = 700 + seed;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  std::vector<GraphId> cluster;
  for (GraphId i = 0; i < db.size(); ++i) cluster.push_back(i);
  ClusterSummaryGraph csg = BuildCsg(db, cluster);
  double previous = 1.0;
  for (double t : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    double xi = csg.Compactness(t);
    EXPECT_LE(xi, previous + 1e-12) << "xi must fall as t rises";
    EXPECT_GE(xi, 0.0);
    EXPECT_LE(xi, 1.0);
    previous = xi;
  }
}

TEST_P(InvariantProperty, McsBudgetMonotonicity) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 2;
  gen.min_vertices = 8;
  gen.max_vertices = 14;
  gen.seed = 800 + seed;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  const Graph& a = db.graph(0);
  const Graph& b = db.graph(1);
  size_t previous = 0;
  for (uint64_t budget : {500u, 5000u, 50000u}) {
    McsOptions options;
    options.node_budget = budget;
    McsResult r = MaxCommonSubgraph(a, b, options);
    EXPECT_GE(r.common_edges, previous)
        << "anytime result must not degrade with a larger budget";
    previous = r.common_edges;
  }
}

TEST_P(InvariantProperty, SearchEngineAgreesWithSubgraphCoverage) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 30;
  gen.seed = 900 + seed;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  SubgraphSearchEngine engine(db);
  Rng rng(1000 + seed);
  std::vector<Graph> patterns;
  for (int i = 0; i < 3; ++i) {
    Graph p = RandomConnectedSubgraph(
        db.graph(static_cast<GraphId>(rng.UniformInt(db.size()))),
        3 + rng.UniformInt(3), rng);
    if (p.NumEdges() > 0) patterns.push_back(std::move(p));
  }
  // Full-scan coverage (sample_cap = 0) must equal the union of the
  // engine's match sets.
  DynamicBitset covered(db.size());
  for (const Graph& p : patterns) {
    for (GraphId id : engine.Search(p)) covered.Set(id);
  }
  EXPECT_DOUBLE_EQ(SubgraphCoverage(patterns, db, 0),
                   static_cast<double>(covered.Count()) /
                       static_cast<double>(db.size()));
}

TEST_P(InvariantProperty, McsOfSubgraphIsTheSubgraph) {
  // For p subgraph-of g, the MCCS of (p, g) is all of p.
  uint64_t seed = static_cast<uint64_t>(GetParam());
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 1;
  gen.min_vertices = 10;
  gen.max_vertices = 16;
  gen.seed = 1100 + seed;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  const Graph& g = db.graph(0);
  Rng rng(1200 + seed);
  Graph p = RandomConnectedSubgraph(g, 4, rng);
  if (p.NumEdges() == 0) return;
  McsOptions options;
  options.node_budget = 200000;
  McsResult r = MaxCommonSubgraph(p, g, options);
  if (r.exact) {
    EXPECT_EQ(r.common_edges, p.NumEdges());
    EXPECT_DOUBLE_EQ(McsSimilarity(p, g, options), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace catapult
