#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/core/budget.h"
#include "src/core/pattern_score.h"
#include "src/core/random_walk.h"
#include "src/core/score_table.h"
#include "src/core/weights.h"
#include "src/csg/csg.h"
#include "src/graph/algorithms.h"
#include "src/iso/vf2.h"

namespace catapult {
namespace {

GraphDatabase WeightsDb() {
  GraphDatabase db;
  Label C = db.labels().Intern("C");
  Label O = db.labels().Intern("O");
  Label N = db.labels().Intern("N");
  // 4 graphs: all contain C-O; half contain C-N.
  for (int i = 0; i < 4; ++i) {
    Graph g;
    VertexId c = g.AddVertex(C);
    VertexId o = g.AddVertex(O);
    g.AddEdge(c, o);
    if (i < 2) {
      VertexId n = g.AddVertex(N);
      g.AddEdge(c, n);
    }
    db.Add(std::move(g));
  }
  return db;
}

TEST(BudgetTest, NumSizesAndPerSizeCap) {
  PatternBudget b{.eta_min = 3, .eta_max = 12, .gamma = 30};
  EXPECT_EQ(b.NumSizes(), 10u);
  EXPECT_EQ(b.MaxPerSize(), 3u);
}

TEST(BudgetTest, PerSizeCapAtLeastOne) {
  PatternBudget b{.eta_min = 3, .eta_max = 12, .gamma = 5};
  EXPECT_EQ(b.MaxPerSize(), 1u);
}

TEST(BudgetTest, OpenSizesShrinkAsSelected) {
  PatternBudget b{.eta_min = 3, .eta_max = 5, .gamma = 6};
  std::vector<size_t> selected = {2, 0, 1};  // size 3 capped (cap = 2)
  std::vector<size_t> open = OpenPatternSizes(b, selected);
  EXPECT_EQ(open, (std::vector<size_t>{4, 5}));
}

TEST(BudgetTest, AllCappedReopensForRemainder) {
  PatternBudget b{.eta_min = 3, .eta_max = 5, .gamma = 7};  // cap = 2, 7 > 6
  std::vector<size_t> selected = {2, 2, 2};
  std::vector<size_t> open = OpenPatternSizes(b, selected);
  EXPECT_EQ(open.size(), 3u);  // everything reopens for the remainder
}

TEST(BudgetTest, GammaReachedClosesAll) {
  PatternBudget b{.eta_min = 3, .eta_max = 5, .gamma = 3};
  std::vector<size_t> selected = {1, 1, 1};
  EXPECT_TRUE(OpenPatternSizes(b, selected).empty());
}

TEST(EdgeLabelWeightsTest, InitialisedFromCoverage) {
  GraphDatabase db = WeightsDb();
  EdgeLabelWeights elw{LabelCoverageIndex(db)};
  Label C = db.labels().Find("C");
  Label O = db.labels().Find("O");
  Label N = db.labels().Find("N");
  EXPECT_DOUBLE_EQ(elw.Get(MakeEdgeLabelKey(C, O)), 1.0);
  EXPECT_DOUBLE_EQ(elw.Get(MakeEdgeLabelKey(C, N)), 0.5);
  EXPECT_DOUBLE_EQ(elw.Get(MakeEdgeLabelKey(O, N)), 0.0);
}

TEST(EdgeLabelWeightsTest, DecayHalves) {
  GraphDatabase db = WeightsDb();
  EdgeLabelWeights elw{LabelCoverageIndex(db)};
  Label C = db.labels().Find("C");
  Label O = db.labels().Find("O");
  Graph pattern;
  pattern.AddVertex(C);
  pattern.AddVertex(O);
  pattern.AddEdge(0, 1);
  elw.DecayForPattern(pattern);
  EXPECT_DOUBLE_EQ(elw.Get(MakeEdgeLabelKey(C, O)), 0.5);
  elw.DecayForPattern(pattern);
  EXPECT_DOUBLE_EQ(elw.Get(MakeEdgeLabelKey(C, O)), 0.25);
}

TEST(ClusterWeightsTest, ProportionalToSize) {
  ClusterWeights cw({{0, 1, 2}, {3}}, 4);
  EXPECT_DOUBLE_EQ(cw.Get(0), 0.75);
  EXPECT_DOUBLE_EQ(cw.Get(1), 0.25);
  cw.Decay(0);
  EXPECT_DOUBLE_EQ(cw.Get(0), 0.375);
}

TEST(LabelCoverageIndexTest, PatternCoverage) {
  GraphDatabase db = WeightsDb();
  LabelCoverageIndex index(db);
  Label C = db.labels().Find("C");
  Label N = db.labels().Find("N");
  Graph cn;
  cn.AddVertex(C);
  cn.AddVertex(N);
  cn.AddEdge(0, 1);
  EXPECT_DOUBLE_EQ(index.PatternLabelCoverage(cn), 0.5);
}

TEST(LabelCoverageIndexTest, SetCoverageUnions) {
  GraphDatabase db = WeightsDb();
  LabelCoverageIndex index(db);
  Label C = db.labels().Find("C");
  Label O = db.labels().Find("O");
  Label N = db.labels().Find("N");
  Graph cn;
  cn.AddVertex(C);
  cn.AddVertex(N);
  cn.AddEdge(0, 1);
  Graph co;
  co.AddVertex(C);
  co.AddVertex(O);
  co.AddEdge(0, 1);
  EXPECT_DOUBLE_EQ(index.SetLabelCoverage({cn, co}), 1.0);
  EXPECT_DOUBLE_EQ(index.SetLabelCoverage({cn}), 0.5);
  EXPECT_DOUBLE_EQ(index.SetLabelCoverage({}), 0.0);
}

TEST(CognitiveLoadTest, PaperFormula) {
  // Triangle: |E| = 3, density 1 -> cog = 3.
  Graph triangle;
  triangle.AddVertex(0);
  triangle.AddVertex(0);
  triangle.AddVertex(0);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(2, 0);
  EXPECT_DOUBLE_EQ(CognitiveLoad(triangle), 3.0);
  EXPECT_DOUBLE_EQ(CognitiveLoadDegreeSum(triangle), 6.0);
  EXPECT_DOUBLE_EQ(CognitiveLoadAvgDegree(triangle), 2.0);
}

TEST(CognitiveLoadTest, SparserIsLighter) {
  Graph path;
  for (int i = 0; i < 4; ++i) path.AddVertex(0);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  path.AddEdge(2, 3);
  Graph clique;
  for (int i = 0; i < 4; ++i) clique.AddVertex(0);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      clique.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(j));
    }
  }
  EXPECT_LT(CognitiveLoad(path), CognitiveLoad(clique));
}

// FoldDiversity(p, S, 0, +inf) is div(p, S) = min over q in S of GED(p, q).
double Div(const Graph& p, const std::vector<Graph>& selected) {
  return FoldDiversity(p, selected, 0,
                       std::numeric_limits<double>::infinity(), GedOptions{},
                       /*approximate=*/false);
}

TEST(DiversityTest, EmptySetIsNeutral) {
  // Folding nothing leaves the running minimum where it was.
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddEdge(0, 1);
  EXPECT_EQ(Div(g, {}), std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(FoldDiversity(g, {}, 0, 3.0, GedOptions{}, false), 3.0);
}

TEST(DiversityTest, MinOverSet) {
  Graph p2;
  p2.AddVertex(0);
  p2.AddVertex(0);
  p2.AddEdge(0, 1);
  Graph p3 = p2;
  p3.AddVertex(0);
  p3.AddEdge(1, 2);
  Graph p4 = p3;
  p4.AddVertex(0);
  p4.AddEdge(2, 3);
  // div(p2, {p3, p4}) = GED(p2, p3) = 2 (one vertex + one edge).
  EXPECT_DOUBLE_EQ(Div(p2, {p3, p4}), 2.0);
}

TEST(DiversityTest, IdenticalPatternGivesZero) {
  Graph p;
  p.AddVertex(1);
  p.AddVertex(2);
  p.AddEdge(0, 1);
  EXPECT_DOUBLE_EQ(Div(p, {p}), 0.0);
}

TEST(WeightedCsgTest, WeightsCombineGlobalAndLocal) {
  GraphDatabase db = WeightsDb();
  // Cluster = all four graphs. Summary has C-O (support 4) and C-N (2).
  ClusterSummaryGraph csg = BuildCsg(db, {0, 1, 2, 3});
  EdgeLabelWeights elw{LabelCoverageIndex(db)};
  WeightedCsg wcsg = MakeWeightedCsg(csg, elw);
  ASSERT_EQ(wcsg.edge_weights.size(), csg.NumEdges());
  Label C = db.labels().Find("C");
  Label O = db.labels().Find("O");
  for (size_t i = 0; i < csg.NumEdges(); ++i) {
    const auto& e = csg.edges()[i];
    EdgeLabelKey key =
        MakeEdgeLabelKey(csg.VertexLabel(e.u), csg.VertexLabel(e.v));
    if (key == MakeEdgeLabelKey(C, O)) {
      EXPECT_DOUBLE_EQ(wcsg.edge_weights[i], 1.0);  // 1.0 * 4/4
    } else {
      EXPECT_DOUBLE_EQ(wcsg.edge_weights[i], 0.25);  // 0.5 * 2/4
    }
  }
}

TEST(RandomWalkTest, PcpIsConnectedAndSized) {
  GraphDatabase db = WeightsDb();
  ClusterSummaryGraph csg = BuildCsg(db, {0, 1, 2, 3});
  EdgeLabelWeights elw{LabelCoverageIndex(db)};
  WeightedCsg wcsg = MakeWeightedCsg(csg, elw);
  Rng rng(4);
  Pcp pcp = GeneratePcp(wcsg, 2, rng);
  EXPECT_EQ(pcp.size(), 2u);
  Graph pattern = PatternFromCsgEdges(csg, pcp);
  EXPECT_TRUE(IsConnected(pattern));
  EXPECT_EQ(pattern.NumEdges(), 2u);
}

TEST(RandomWalkTest, PcpCapsAtCsgSize) {
  GraphDatabase db = WeightsDb();
  ClusterSummaryGraph csg = BuildCsg(db, {0, 1, 2, 3});
  EdgeLabelWeights elw{LabelCoverageIndex(db)};
  WeightedCsg wcsg = MakeWeightedCsg(csg, elw);
  Rng rng(4);
  Pcp pcp = GeneratePcp(wcsg, 50, rng);
  EXPECT_EQ(pcp.size(), csg.NumEdges());
}

TEST(RandomWalkTest, SeedEdgeIsHeaviest) {
  GraphDatabase db = WeightsDb();
  ClusterSummaryGraph csg = BuildCsg(db, {0, 1, 2, 3});
  EdgeLabelWeights elw{LabelCoverageIndex(db)};
  WeightedCsg wcsg = MakeWeightedCsg(csg, elw);
  Rng rng(4);
  Pcp pcp = GeneratePcp(wcsg, 1, rng);
  ASSERT_EQ(pcp.size(), 1u);
  // The single chosen edge must be a maximum-weight edge.
  double max_weight = 0;
  for (double w : wcsg.edge_weights) max_weight = std::max(max_weight, w);
  EXPECT_DOUBLE_EQ(wcsg.edge_weights[pcp[0]], max_weight);
}

TEST(RandomWalkTest, FcpPicksMostFrequentEdges) {
  GraphDatabase db = WeightsDb();
  ClusterSummaryGraph csg = BuildCsg(db, {0, 1, 2, 3});
  // Library: edge 0 appears twice, edge 1 once; FCP of size 1 = edge 0.
  std::vector<Pcp> library = {{0}, {0, 1}};
  Pcp fcp = GenerateFcp(csg, library, 1);
  ASSERT_EQ(fcp.size(), 1u);
  EXPECT_EQ(fcp[0], 0u);
}

TEST(RandomWalkTest, FcpIsConnected) {
  GraphDatabase db = WeightsDb();
  ClusterSummaryGraph csg = BuildCsg(db, {0, 1, 2, 3});
  EdgeLabelWeights elw{LabelCoverageIndex(db)};
  WeightedCsg wcsg = MakeWeightedCsg(csg, elw);
  Rng rng(5);
  std::vector<Pcp> library;
  for (int i = 0; i < 20; ++i) library.push_back(GeneratePcp(wcsg, 2, rng));
  Pcp fcp = GenerateFcp(csg, library, 2);
  ASSERT_FALSE(fcp.empty());
  EXPECT_TRUE(IsConnected(PatternFromCsgEdges(csg, fcp)));
}

TEST(CoverageTest, CcovSumsCoveredWeights) {
  GraphDatabase db = WeightsDb();
  std::vector<std::vector<GraphId>> clusters = {{0, 1}, {2, 3}};
  FlatGraphDatabase index = BuildFlatSummaryIndex(BuildCsgs(db, clusters));
  ClusterWeights cw(clusters, db.size());
  // ccov(p) = sum of cluster weights over the CSGs containing p.
  auto ccov = [&](const Graph& p) {
    uint64_t covered = 0;
    CoveredCsgsFlat(p, index, 0, nullptr, &covered);
    return ((covered & 1) ? cw.Get(0) : 0.0) +
           ((covered & 2) ? cw.Get(1) : 0.0);
  };
  Label C = db.labels().Find("C");
  Label N = db.labels().Find("N");
  Graph cn;
  cn.AddVertex(C);
  cn.AddVertex(N);
  cn.AddEdge(0, 1);
  // C-N occurs only in graphs 0,1 -> only cluster 0's summary contains it.
  EXPECT_DOUBLE_EQ(ccov(cn), 0.5);
  Label O = db.labels().Find("O");
  Graph co;
  co.AddVertex(C);
  co.AddVertex(O);
  co.AddEdge(0, 1);
  EXPECT_DOUBLE_EQ(ccov(co), 1.0);
}

}  // namespace
}  // namespace catapult
