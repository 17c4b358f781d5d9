// Tests for the Psi_dist size-distribution extension (Section 5 remark).

#include <gtest/gtest.h>

#include <numeric>

#include "src/core/budget.h"
#include "src/core/selector.h"
#include "src/csg/csg.h"
#include "src/data/molecule_generator.h"

namespace catapult {
namespace {

TEST(PerSizeCapsTest, UniformWhenUnset) {
  PatternBudget b{.eta_min = 3, .eta_max = 5, .gamma = 9};
  std::vector<size_t> caps = b.PerSizeCaps();
  EXPECT_EQ(caps, (std::vector<size_t>{3, 3, 3}));
}

TEST(PerSizeCapsTest, ProportionalApportionment) {
  PatternBudget b{.eta_min = 3, .eta_max = 5, .gamma = 10};
  b.size_distribution = {1.0, 1.0, 3.0};
  std::vector<size_t> caps = b.PerSizeCaps();
  ASSERT_EQ(caps.size(), 3u);
  EXPECT_EQ(std::accumulate(caps.begin(), caps.end(), size_t{0}), 10u);
  EXPECT_EQ(caps[2], 6u);
  EXPECT_EQ(caps[0], 2u);
  EXPECT_EQ(caps[1], 2u);
}

TEST(PerSizeCapsTest, ZeroWeightExcludesSize) {
  PatternBudget b{.eta_min = 3, .eta_max = 5, .gamma = 6};
  b.size_distribution = {1.0, 0.0, 1.0};
  std::vector<size_t> caps = b.PerSizeCaps();
  EXPECT_EQ(caps[1], 0u);
  EXPECT_EQ(caps[0] + caps[2], 6u);
}

TEST(PerSizeCapsTest, LargestRemainderSumsToGamma) {
  PatternBudget b{.eta_min = 3, .eta_max = 6, .gamma = 7};
  b.size_distribution = {1.0, 1.0, 1.0, 1.0};
  std::vector<size_t> caps = b.PerSizeCaps();
  EXPECT_EQ(std::accumulate(caps.begin(), caps.end(), size_t{0}), 7u);
}

TEST(OpenPatternSizesTest, ExcludedSizeNeverOpens) {
  PatternBudget b{.eta_min = 3, .eta_max = 5, .gamma = 6};
  b.size_distribution = {1.0, 0.0, 1.0};
  std::vector<size_t> open = OpenPatternSizes(b, {0, 0, 0});
  EXPECT_EQ(open, (std::vector<size_t>{3, 5}));
  // Even when everything else is capped, size 4 stays closed.
  open = OpenPatternSizes(b, {3, 0, 2});
  for (size_t s : open) EXPECT_NE(s, 4u);
}

TEST(SelectorWithDistTest, SkewedDistributionHolds) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 50;
  gen.scaffold_families = 4;
  gen.seed = 71;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  SelectionCorpus corpus;
  for (GraphId start = 0; start < db.size(); start += 10) {
    std::vector<GraphId> cluster;
    for (GraphId i = start; i < start + 10; ++i) cluster.push_back(i);
    corpus.clusters.push_back(std::move(cluster));
  }
  corpus.csgs = BuildCsgs(db, corpus.clusters);
  BuildCorpusIndices(db, &corpus);

  SelectorOptions options;
  options.budget = {.eta_min = 3, .eta_max = 5, .gamma = 6};
  options.budget.size_distribution = {4.0, 1.0, 1.0};  // mostly size 3
  options.walks_per_candidate = 8;
  Rng rng(3);
  SelectionResult result = FindCannedPatternSet(db, corpus, options, rng);
  size_t size3 = 0;
  for (const SelectedPattern& p : result.patterns) {
    EXPECT_GE(p.graph.NumEdges(), 3u);
    EXPECT_LE(p.graph.NumEdges(), 5u);
    if (p.graph.NumEdges() == 3) ++size3;
  }
  // At least half of a full panel must be 3-edge patterns.
  if (result.patterns.size() >= 4) {
    EXPECT_GE(size3 * 2, result.patterns.size());
  }
}

TEST(BudgetValidateTest, RejectsWrongDistLength) {
  PatternBudget b{.eta_min = 3, .eta_max = 5, .gamma = 6};
  b.size_distribution = {1.0};
  EXPECT_DEATH(b.Validate(), "Psi_dist");
}

TEST(BudgetValidateTest, RejectsAllZeroDist) {
  PatternBudget b{.eta_min = 3, .eta_max = 4, .gamma = 6};
  b.size_distribution = {0.0, 0.0};
  EXPECT_DEATH(b.Validate(), "positive");
}

TEST(BudgetValidateTest, RejectsTinyEtaMin) {
  PatternBudget b{.eta_min = 2, .eta_max = 5, .gamma = 6};
  EXPECT_DEATH(b.Validate(), "eta_min");
}

}  // namespace
}  // namespace catapult
