// Unit tests of FindCannedPatternSet (Algorithm 4) on small controlled
// inputs, including the strategy and weight-decay options.

#include "src/core/selector.h"

#include <gtest/gtest.h>

#include "src/csg/csg.h"
#include "src/data/molecule_generator.h"
#include "src/graph/algorithms.h"
#include "src/iso/vf2.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

struct SelectorEnv {
  GraphDatabase db;
  SelectionCorpus corpus;
};

SelectorEnv MakeSetup(size_t num_graphs = 60, uint64_t seed = 13) {
  SelectorEnv setup;
  MoleculeGeneratorOptions gen;
  gen.num_graphs = num_graphs;
  gen.min_vertices = 8;
  gen.max_vertices = 16;
  gen.scaffold_families = 4;
  gen.seed = seed;
  setup.db = GenerateMoleculeDatabase(gen);
  // Simple contiguous clusters of 10.
  for (GraphId start = 0; start < setup.db.size(); start += 10) {
    std::vector<GraphId> cluster;
    for (GraphId i = start; i < std::min<GraphId>(start + 10, setup.db.size());
         ++i) {
      cluster.push_back(i);
    }
    setup.corpus.clusters.push_back(std::move(cluster));
  }
  setup.corpus.csgs = BuildCsgs(setup.db, setup.corpus.clusters);
  BuildCorpusIndices(setup.db, &setup.corpus);
  return setup;
}

TEST(SelectorTest, RespectsGamma) {
  SelectorEnv setup = MakeSetup();
  SelectorOptions options;
  options.budget = {.eta_min = 3, .eta_max = 5, .gamma = 6};
  options.walks_per_candidate = 8;
  Rng rng(1);
  SelectionResult result =
      FindCannedPatternSet(setup.db, setup.corpus, options, rng);
  EXPECT_LE(result.patterns.size(), 6u);
  EXPECT_GE(result.patterns.size(), 1u);
}

TEST(SelectorTest, PatternsConnectedAndInSizeWindow) {
  SelectorEnv setup = MakeSetup();
  SelectorOptions options;
  options.budget = {.eta_min = 3, .eta_max = 6, .gamma = 8};
  options.walks_per_candidate = 8;
  Rng rng(2);
  SelectionResult result =
      FindCannedPatternSet(setup.db, setup.corpus, options, rng);
  for (const SelectedPattern& p : result.patterns) {
    EXPECT_TRUE(IsConnected(p.graph));
    EXPECT_GE(p.graph.NumEdges(), 3u);
    EXPECT_LE(p.graph.NumEdges(), 6u);
    EXPECT_GT(p.cog, 0.0);
    EXPECT_GE(p.ccov, 0.0);
    EXPECT_LE(p.lcov, 1.0);
  }
}

TEST(SelectorTest, EmptyCsgListYieldsNothing) {
  SelectorEnv setup = MakeSetup();
  SelectorOptions options;
  Rng rng(3);
  SelectionResult result =
      FindCannedPatternSet(setup.db, SelectionCorpus{}, options, rng);
  EXPECT_TRUE(result.patterns.empty());
}

TEST(SelectorTest, GreedyBfsStrategyProducesPatterns) {
  SelectorEnv setup = MakeSetup();
  SelectorOptions options;
  options.budget = {.eta_min = 3, .eta_max = 5, .gamma = 5};
  options.strategy = CandidateStrategy::kGreedyBfs;
  Rng rng(4);
  SelectionResult result =
      FindCannedPatternSet(setup.db, setup.corpus, options, rng);
  EXPECT_GE(result.patterns.size(), 1u);
}

TEST(SelectorTest, NoDecayStillTerminates) {
  SelectorEnv setup = MakeSetup();
  SelectorOptions options;
  options.budget = {.eta_min = 3, .eta_max = 5, .gamma = 6};
  options.weight_decay = 1.0;
  options.walks_per_candidate = 8;
  Rng rng(5);
  SelectionResult result =
      FindCannedPatternSet(setup.db, setup.corpus, options, rng);
  EXPECT_LE(result.patterns.size(), 6u);
}

TEST(SelectorTest, SourceCsgIsValid) {
  SelectorEnv setup = MakeSetup();
  SelectorOptions options;
  options.budget = {.eta_min = 3, .eta_max = 5, .gamma = 4};
  options.walks_per_candidate = 8;
  Rng rng(6);
  SelectionResult result =
      FindCannedPatternSet(setup.db, setup.corpus, options, rng);
  for (const SelectedPattern& p : result.patterns) {
    ASSERT_LT(p.source_csg, setup.corpus.csgs.size());
    // The proposing CSG must contain the pattern.
    Graph summary = setup.corpus.csgs[p.source_csg].ToGraph();
    EXPECT_TRUE(ContainsSubgraph(p.graph, summary));
  }
}

TEST(SelectorTest, PatternGraphsViewMatches) {
  SelectorEnv setup = MakeSetup();
  SelectorOptions options;
  options.budget = {.eta_min = 3, .eta_max = 5, .gamma = 4};
  options.walks_per_candidate = 8;
  Rng rng(7);
  SelectionResult result =
      FindCannedPatternSet(setup.db, setup.corpus, options, rng);
  std::vector<Graph> view = result.PatternGraphs();
  ASSERT_EQ(view.size(), result.patterns.size());
  for (size_t i = 0; i < view.size(); ++i) {
    EXPECT_TRUE(StructurallyEqual(view[i], result.patterns[i].graph));
  }
}

// Parameterized sweep over budgets: the per-size uniform cap of
// Definition 3.1 must hold for any budget shape.
struct BudgetCase {
  size_t eta_min;
  size_t eta_max;
  size_t gamma;
};

class SelectorBudgetSweep : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(SelectorBudgetSweep, UniformSizeDistributionHolds) {
  BudgetCase param = GetParam();
  SelectorEnv setup = MakeSetup();
  SelectorOptions options;
  options.budget = {.eta_min = param.eta_min,
                    .eta_max = param.eta_max,
                    .gamma = param.gamma};
  options.walks_per_candidate = 6;
  Rng rng(8);
  SelectionResult result =
      FindCannedPatternSet(setup.db, setup.corpus, options, rng);
  EXPECT_LE(result.patterns.size(), param.gamma);
  std::map<size_t, size_t> per_size;
  for (const SelectedPattern& p : result.patterns) {
    EXPECT_GE(p.graph.NumEdges(), param.eta_min);
    EXPECT_LE(p.graph.NumEdges(), param.eta_max);
    ++per_size[p.graph.NumEdges()];
  }
  for (const auto& [size, count] : per_size) {
    EXPECT_LE(count, options.budget.MaxPerSize() + 1)
        << "size " << size << " overfilled";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, SelectorBudgetSweep,
    ::testing::Values(BudgetCase{3, 5, 3}, BudgetCase{3, 6, 8},
                      BudgetCase{4, 7, 4}, BudgetCase{3, 3, 2},
                      BudgetCase{3, 8, 12}));

}  // namespace
}  // namespace catapult
