#include <gtest/gtest.h>

#include "src/formulate/cover.h"
#include "src/formulate/evaluate.h"
#include "src/formulate/gui.h"
#include "src/formulate/qft.h"
#include "src/formulate/steps.h"
#include "src/graph/algorithms.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

// Two disjoint triangles joined by a single bridge edge.
Graph TwoTriangles() {
  Graph g = Ring(3);
  VertexId a = g.AddVertex(0);
  VertexId b = g.AddVertex(0);
  VertexId c = g.AddVertex(0);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(c, a);
  g.AddEdge(0, a);
  return g;
}

TEST(CoverTest, SinglePatternCoversWholeQuery) {
  Graph query = Ring(5);
  QueryCover cover = MaxPatternCover(query, {Ring(5)});
  ASSERT_EQ(cover.uses.size(), 1u);
  EXPECT_EQ(cover.covered_vertices, 5u);
  EXPECT_EQ(cover.covered_edges, 5u);
}

TEST(CoverTest, PatternUsedTwiceOnDisjointRegions) {
  Graph query = TwoTriangles();
  QueryCover cover = MaxPatternCover(query, {Ring(3)});
  EXPECT_EQ(cover.uses.size(), 2u);
  EXPECT_EQ(cover.covered_vertices, 6u);
  EXPECT_EQ(cover.covered_edges, 6u);
}

TEST(CoverTest, OverlappingEmbeddingsConflict) {
  // A triangle query and a triangle pattern: only one use possible.
  QueryCover cover = MaxPatternCover(Ring(3), {Ring(3)});
  EXPECT_EQ(cover.uses.size(), 1u);
}

TEST(CoverTest, NoMatchingPattern) {
  QueryCover cover = MaxPatternCover(Path(3), {Ring(3)});
  EXPECT_TRUE(cover.uses.empty());
  EXPECT_EQ(cover.covered_vertices, 0u);
}

TEST(CoverTest, PrefersLargerPattern) {
  Graph query = Ring(6);
  // Both C6 and an edge match; the 6-ring covers more.
  QueryCover cover = MaxPatternCover(query, {Path(2), Ring(6)});
  ASSERT_GE(cover.uses.size(), 1u);
  EXPECT_EQ(cover.uses[0].pattern_index, 1u);
  EXPECT_EQ(cover.covered_vertices, 6u);
}

TEST(StepsTest, EdgeAtATime) {
  EXPECT_EQ(StepsEdgeAtATime(Ring(5)), 10u);
  EXPECT_EQ(StepsEdgeAtATime(Path(4)), 7u);
}

TEST(StepsTest, FullCoverIsOneStep) {
  Graph query = Ring(5);
  std::vector<Graph> patterns = {Ring(5)};
  QueryCover cover = MaxPatternCover(query, patterns);
  EXPECT_EQ(StepsWithPatterns(query, patterns, cover, false), 1u);
}

TEST(StepsTest, PartialCoverAddsRemainder) {
  Graph query = TwoTriangles();  // 6 vertices, 7 edges
  std::vector<Graph> patterns = {Ring(3)};
  QueryCover cover = MaxPatternCover(query, patterns);
  // 2 pattern placements + 0 remaining vertices + 1 bridge edge.
  EXPECT_EQ(StepsWithPatterns(query, patterns, cover, false), 3u);
}

TEST(StepsTest, UnlabelledChargesRelabelling) {
  Graph query = Ring(5);
  std::vector<Graph> patterns = {Ring(5)};
  QueryCover cover = MaxPatternCover(query, patterns);
  // 1 placement + 5 relabels.
  EXPECT_EQ(StepsWithPatterns(query, patterns, cover, true), 6u);
}

TEST(StepsTest, ReductionRatio) {
  EXPECT_DOUBLE_EQ(ReductionRatio(10, 1), 0.9);
  EXPECT_DOUBLE_EQ(ReductionRatio(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(ReductionRatio(0, 5), 0.0);
}

TEST(StepsTest, RelativeReduction) {
  EXPECT_DOUBLE_EQ(RelativeReduction(20, 5), 0.75);
  EXPECT_LT(RelativeReduction(5, 10), 0.0);  // baseline better -> negative
}

TEST(GuiTest, PubChemPanelShape) {
  GuiModel gui = MakePubChemGui(0);
  EXPECT_EQ(gui.patterns.size(), 12u);
  EXPECT_TRUE(gui.unlabelled);
  for (const Graph& p : gui.patterns) {
    EXPECT_GE(p.NumEdges(), 3u);
    EXPECT_LE(p.NumEdges(), 8u);
    EXPECT_TRUE(IsConnected(p));
  }
}

TEST(GuiTest, EMolPanelShape) {
  GuiModel gui = MakeEMolGui(0);
  EXPECT_EQ(gui.patterns.size(), 6u);
  for (const Graph& p : gui.patterns) {
    EXPECT_GE(p.NumEdges(), 3u);
    EXPECT_LE(p.NumEdges(), 8u);
  }
}

TEST(GuiTest, CatapultGuiIsLabelled) {
  GuiModel gui = MakeCatapultGui({Ring(3, 2)});
  EXPECT_FALSE(gui.unlabelled);
  EXPECT_EQ(gui.patterns.size(), 1u);
}

TEST(FormulateTest, LabelledPatternBeatsEdgeAtATime) {
  Graph query = Ring(6, 3);
  GuiModel gui = MakeCatapultGui({Ring(6, 3)});
  QueryFormulation f = FormulateQuery(query, gui);
  EXPECT_EQ(f.steps_patterns, 1u);
  EXPECT_GT(f.mu, 0.9);
}

TEST(FormulateTest, UnlabelledGuiPaysRelabelling) {
  Graph query = Ring(6, 3);  // query labelled 3 everywhere
  GuiModel unlabelled = MakePubChemGui(0);
  QueryFormulation f = FormulateQuery(query, unlabelled);
  // C6 matches after normalisation: 1 placement + 6 relabels = 7 steps.
  EXPECT_EQ(f.steps_patterns, 7u);
  EXPECT_GT(f.patterns_used, 0u);
}

TEST(FormulateTest, MismatchedLabelsUseNoPatterns) {
  Graph query = Ring(6, 3);
  GuiModel gui = MakeCatapultGui({Ring(6, 4)});  // wrong labels
  QueryFormulation f = FormulateQuery(query, gui);
  EXPECT_EQ(f.patterns_used, 0u);
  EXPECT_EQ(f.steps_patterns, StepsEdgeAtATime(query));
  EXPECT_DOUBLE_EQ(f.mu, 0.0);
}

TEST(EvaluateTest, WorkloadAggregates) {
  std::vector<Graph> queries = {Ring(6, 3), Ring(6, 3), Path(4, 9)};
  GuiModel gui = MakeCatapultGui({Ring(6, 3)});
  std::vector<QueryFormulation> details;
  WorkloadReport report = EvaluateGui(queries, gui, {}, &details);
  EXPECT_EQ(report.num_queries, 3u);
  ASSERT_EQ(details.size(), 3u);
  // Two ring queries formulate in 1 step; the chain misses.
  EXPECT_NEAR(report.mp_percent, 100.0 / 3.0, 1e-9);
  EXPECT_GT(report.max_mu, 0.9);
}

TEST(EvaluateTest, SubgraphCoverage) {
  GraphDatabase db;
  db.Add(Ring(6, 1));
  db.Add(Ring(5, 1));
  db.Add(Path(3, 2));
  double scov = SubgraphCoverage({Ring(5, 1)}, db);
  EXPECT_NEAR(scov, 1.0 / 3.0, 1e-9);  // only the C5 ring contains it
  double scov2 = SubgraphCoverage({Path(3, 1)}, db);
  EXPECT_NEAR(scov2, 2.0 / 3.0, 1e-9);  // both rings contain a path
}

TEST(EvaluateTest, DiversityAndCogAverages) {
  std::vector<Graph> patterns = {Ring(3, 0), Path(5, 0)};
  EXPECT_GT(AverageSetDiversity(patterns), 0.0);
  EXPECT_GT(AverageCognitiveLoad(patterns), 0.0);
  EXPECT_DOUBLE_EQ(AverageSetDiversity({Ring(3, 0)}), 0.0);
}

TEST(QftTest, MoreStepsTakeLonger) {
  QftModel model;
  model.noise_stddev = 0.0;
  GuiModel gui = MakeCatapultGui({Ring(6, 3)});
  Rng rng(1);
  double t_small = SimulateQft(Ring(6, 3), gui, model, rng);
  double t_large = SimulateQft(Ring(12, 3), gui, model, rng);
  EXPECT_LT(t_small, t_large);
}

TEST(QftTest, PatternGuiFasterThanNone) {
  QftModel model;
  model.noise_stddev = 0.0;
  Rng rng(2);
  Graph query = Ring(6, 3);
  double with_patterns =
      SimulateQft(query, MakeCatapultGui({Ring(6, 3)}), model, rng);
  double without =
      SimulateQft(query, MakeCatapultGui({}), model, rng);
  EXPECT_LT(with_patterns, without);
}

TEST(QftTest, AverageIsDeterministicGivenSeed) {
  QftModel model;
  GuiModel gui = MakeCatapultGui({Ring(6, 3)});
  Rng rng1(3);
  Rng rng2(3);
  EXPECT_DOUBLE_EQ(AverageQft(Ring(6, 3), gui, model, 5, rng1),
                   AverageQft(Ring(6, 3), gui, model, 5, rng2));
}

TEST(QftTest, DecisionTimeGrowsWithCognitiveLoad) {
  QftModel model;
  model.noise_stddev = 0.0;
  Rng rng(4);
  Graph sparse = Path(6, 0);
  Graph dense;  // K4
  for (int i = 0; i < 4; ++i) dense.AddVertex(0);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      dense.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(j));
    }
  }
  EXPECT_LT(SimulateDecisionTime(sparse, model, rng),
            SimulateDecisionTime(dense, model, rng));
}

}  // namespace
}  // namespace catapult
