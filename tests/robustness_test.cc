// Tests of the deadline-aware execution layer: Deadline/RunContext
// arithmetic, the failpoint facility, parse-error diagnostics, and the
// degradation ladder each phase takes when its time runs out. Failpoints
// let the tests force expiry at exact sites deterministically instead of
// racing the wall clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <thread>

#include "src/core/catapult.h"
#include "src/csg/csg.h"
#include "src/data/molecule_generator.h"
#include "src/graph/algorithms.h"
#include "src/graph/io.h"
#include "src/iso/vf2.h"
#include "src/util/deadline.h"
#include "src/util/failpoint.h"

namespace catapult {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

GraphDatabase SmallDb(uint64_t seed = 31, size_t n = 60) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = n;
  gen.min_vertices = 8;
  gen.max_vertices = 16;
  gen.seed = seed;
  return GenerateMoleculeDatabase(gen);
}

CatapultOptions FastOptions() {
  CatapultOptions options;
  options.selector.budget.eta_min = 3;
  options.selector.budget.eta_max = 6;
  options.selector.budget.gamma = 6;
  options.selector.walks_per_candidate = 8;
  options.clustering.max_cluster_size = 12;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 99;
  return options;
}

// ---------------------------------------------------------------------------
// Deadline / RunContext arithmetic.

TEST_F(RobustnessTest, DeadlineDefaultsToInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingSeconds(),
            std::numeric_limits<double>::infinity());
  // Slicing infinity stays infinite.
  EXPECT_TRUE(d.Fraction(0.25).infinite());
}

TEST_F(RobustnessTest, DeadlineExpires) {
  Deadline d = Deadline::AfterMillis(1);
  EXPECT_FALSE(d.infinite());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingSeconds(), 0.0);
}

TEST_F(RobustnessTest, DeadlineFractionIsEarlier) {
  Deadline d = Deadline::AfterSeconds(10.0);
  Deadline slice = d.Fraction(0.1);
  EXPECT_FALSE(slice.infinite());
  // The slice covers ~1s of the ~10s allowance.
  EXPECT_LE(slice.RemainingSeconds(), 1.01);
  EXPECT_GT(slice.RemainingSeconds(), 0.5);
  EXPECT_LE(slice.RemainingSeconds(), d.RemainingSeconds());
}

TEST_F(RobustnessTest, DeadlineEarliestPicksSooner) {
  Deadline a = Deadline::AfterSeconds(10.0);
  Deadline b = Deadline::AfterSeconds(1.0);
  EXPECT_LE(Deadline::Earliest(a, b).RemainingSeconds(), 1.01);
  EXPECT_LE(Deadline::Earliest(b, a).RemainingSeconds(), 1.01);
  // Infinite loses against any finite deadline.
  EXPECT_FALSE(Deadline::Earliest(Deadline::Infinite(), b).infinite());
  EXPECT_TRUE(Deadline::Earliest(Deadline::Infinite(), Deadline::Infinite())
                  .infinite());
}

TEST_F(RobustnessTest, CancelTokenIsSharedAcrossCopies) {
  RunContext ctx = RunContext::NoLimit();
  RunContext copy = ctx.Slice(0.5);
  EXPECT_FALSE(copy.StopRequested());
  ctx.Cancel();
  EXPECT_TRUE(copy.StopRequested());
  EXPECT_TRUE(ctx.StopRequested());
}

TEST_F(RobustnessTest, TightenNodeBudgetIsIdentityWhenUnlimited) {
  RunContext ctx = RunContext::NoLimit();
  EXPECT_EQ(ctx.TightenNodeBudget(0), 0u);  // 0 = unlimited convention
  EXPECT_EQ(ctx.TightenNodeBudget(5000), 5000u);
}

TEST_F(RobustnessTest, TightenNodeBudgetShrinksNearDeadline) {
  RunContext ctx(Deadline::AfterMillis(50));
  // 50ms at 2e6 nodes/s affords ~1e5 nodes; a huge configured budget must
  // come back tightened, and never below 1.
  uint64_t tightened = ctx.TightenNodeBudget(1000000000);
  EXPECT_LT(tightened, 1000000000u);
  EXPECT_GE(tightened, 1u);

  RunContext expired(Deadline::AfterSeconds(0.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(expired.TightenNodeBudget(5000), 1u);
}

// ---------------------------------------------------------------------------
// Failpoints.

TEST_F(RobustnessTest, FailpointFiresOnlyWhenArmed) {
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_FALSE(CATAPULT_FAILPOINT("robustness.test.site"));
  failpoint::Arm("robustness.test.site");
  EXPECT_TRUE(failpoint::AnyArmed());
  EXPECT_TRUE(CATAPULT_FAILPOINT("robustness.test.site"));
  EXPECT_FALSE(CATAPULT_FAILPOINT("robustness.other.site"));
  failpoint::Disarm("robustness.test.site");
  EXPECT_FALSE(CATAPULT_FAILPOINT("robustness.test.site"));
  // Hit counts survive disarming for post-hoc assertions.
  EXPECT_EQ(failpoint::HitCount("robustness.test.site"), 1u);
}

TEST_F(RobustnessTest, FailpointCountLimitsFirings) {
  failpoint::Arm("robustness.counted", 2);
  EXPECT_TRUE(CATAPULT_FAILPOINT("robustness.counted"));
  EXPECT_TRUE(CATAPULT_FAILPOINT("robustness.counted"));
  EXPECT_FALSE(CATAPULT_FAILPOINT("robustness.counted"));
  EXPECT_EQ(failpoint::HitCount("robustness.counted"), 2u);
}

TEST_F(RobustnessTest, ScopedFailpointDisarmsOnExit) {
  {
    failpoint::ScopedFailpoint fp("robustness.scoped");
    EXPECT_TRUE(CATAPULT_FAILPOINT("robustness.scoped"));
  }
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_FALSE(CATAPULT_FAILPOINT("robustness.scoped"));
}

TEST_F(RobustnessTest, StopRequestedHonoursFailpointSite) {
  RunContext ctx = RunContext::NoLimit();
  EXPECT_FALSE(ctx.StopRequested("robustness.stop"));
  failpoint::ScopedFailpoint fp("robustness.stop");
  EXPECT_TRUE(ctx.StopRequested("robustness.stop"));
  EXPECT_FALSE(ctx.StopRequested("robustness.unrelated"));
}

// ---------------------------------------------------------------------------
// Parse diagnostics.

TEST_F(RobustnessTest, ParseErrorReportsLineAndReason) {
  std::istringstream in("t # 0\nv 0 C\nv 1 N\ne 0 1\ne 0 7\n");
  ParseError error;
  EXPECT_FALSE(ReadDatabase(in, &error).has_value());
  EXPECT_EQ(error.line, 5u);
  EXPECT_NE(error.message.find("out of range"), std::string::npos);
}

TEST_F(RobustnessTest, ParseErrorReportsDuplicateEdge) {
  std::istringstream in("t # 0\nv 0 C\nv 1 N\ne 0 1\ne 1 0\n");
  ParseError error;
  EXPECT_FALSE(ReadDatabase(in, &error).has_value());
  EXPECT_EQ(error.line, 5u);
  EXPECT_NE(error.message.find("duplicate edge"), std::string::npos);
}

TEST_F(RobustnessTest, ParseErrorInjectedByFailpoint) {
  failpoint::ScopedFailpoint fp("io.parse", 1);
  std::istringstream in("t # 0\nv 0 C\nv 1 N\ne 0 1\n");
  ParseError error;
  EXPECT_FALSE(ReadDatabase(in, &error).has_value());
  EXPECT_GT(error.line, 0u);
  EXPECT_EQ(failpoint::HitCount("io.parse"), 1u);
}

TEST_F(RobustnessTest, UnreadableFileReportsLineZero) {
  ParseError error;
  EXPECT_FALSE(
      ReadDatabaseFromFile("/nonexistent/x.txt", &error).has_value());
  EXPECT_EQ(error.line, 0u);
  EXPECT_FALSE(error.message.empty());
}

// ---------------------------------------------------------------------------
// Per-phase degradation.

TEST_F(RobustnessTest, ClusteringFallsBackToValidPartitionOnExpiry) {
  GraphDatabase db = SmallDb();
  failpoint::ScopedFailpoint fp("cluster.coarse");
  CatapultResult result = RunCatapult(db, FastOptions());
  EXPECT_FALSE(result.execution.clustering_complete);
  // Degraded or not, the clusters must still partition the database.
  std::set<GraphId> seen;
  for (const auto& cluster : result.clusters) {
    for (GraphId id : cluster) {
      EXPECT_TRUE(seen.insert(id).second) << "graph in two clusters";
      EXPECT_LT(id, db.size());
    }
  }
  EXPECT_EQ(seen.size(), db.size());
}

TEST_F(RobustnessTest, CsgDegradesButKeepsOnePerCluster) {
  GraphDatabase db = SmallDb();
  std::vector<std::vector<GraphId>> clusters = {
      {0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9, 10}};
  failpoint::ScopedFailpoint fp("csg.fold_member");
  size_t degraded = 0;
  std::vector<ClusterSummaryGraph> csgs =
      BuildCsgs(db, clusters, RunContext::NoLimit(), &degraded);
  ASSERT_EQ(csgs.size(), clusters.size());
  EXPECT_GT(degraded, 0u);
  // Every summary folded at least its first member, so none is empty.
  for (const ClusterSummaryGraph& csg : csgs) {
    EXPECT_GT(csg.NumEdges(), 0u);
  }
}

// A served selection reports its corpus's degradation exactly as the
// one-shot run does, not one folded completeness flag.
TEST_F(RobustnessTest, PreparedCorpusReportsDegradationLikeOneShotRun) {
  GraphDatabase db = SmallDb();
  const CatapultOptions options = FastOptions();
  failpoint::ScopedFailpoint fp("csg.fold_member");
  const CatapultResult one_shot = RunCatapult(db, options);
  const PreparedCorpus corpus =
      PrepareCorpus(db, options, RunContext::NoLimit());
  const CatapultResult served =
      RunCatapultSelection(db, corpus, options, RunContext::NoLimit());
  ASSERT_GT(one_shot.execution.degraded_csgs, 0u);
  EXPECT_TRUE(one_shot.execution.clustering_complete);
  EXPECT_FALSE(one_shot.execution.csg_complete);
  EXPECT_FALSE(corpus.Complete());
  EXPECT_EQ(served.execution.clustering_complete,
            one_shot.execution.clustering_complete);
  EXPECT_EQ(served.execution.csg_complete, one_shot.execution.csg_complete);
  EXPECT_EQ(served.execution.degraded_csgs, one_shot.execution.degraded_csgs);
  EXPECT_EQ(served.execution.clustering_coarse_only,
            one_shot.execution.clustering_coarse_only);
  EXPECT_TRUE(served.execution.Degraded());
}

TEST_F(RobustnessTest, SelectionFallsBackToFrequentEdgePatterns) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  failpoint::ScopedFailpoint fp("selector.iteration");
  CatapultResult result = RunCatapult(db, options);
  EXPECT_FALSE(result.selection.complete);
  EXPECT_FALSE(result.execution.selection_complete);
  EXPECT_GT(result.selection.fallback_patterns, 0u);
  EXPECT_FALSE(result.selection.patterns.empty());
  // Fallback patterns still respect the pattern budget of Definition 3.1.
  for (const SelectedPattern& p : result.selection.patterns) {
    EXPECT_GE(p.graph.NumEdges(), options.selector.budget.eta_min);
    EXPECT_LE(p.graph.NumEdges(), options.selector.budget.eta_max);
    EXPECT_TRUE(IsConnected(p.graph));
    EXPECT_TRUE(p.fallback);
  }
  EXPECT_TRUE(result.execution.Degraded());
}

TEST_F(RobustnessTest, ExpiredDeadlineStillProducesConformingPanel) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  // Already-expired context: every phase takes its shortest path.
  RunContext ctx(Deadline::AfterSeconds(0.0));
  CatapultResult result = RunCatapult(db, options, ctx);
  EXPECT_TRUE(result.execution.deadline_set);
  EXPECT_TRUE(result.execution.Degraded());
  EXPECT_EQ(result.csgs.size(), result.clusters.size());
  for (const SelectedPattern& p : result.selection.patterns) {
    EXPECT_GE(p.graph.NumEdges(), options.selector.budget.eta_min);
    EXPECT_LE(p.graph.NumEdges(), options.selector.budget.eta_max);
  }
}

TEST_F(RobustnessTest, CancellationStopsThePipeline) {
  GraphDatabase db = SmallDb();
  RunContext ctx = RunContext::NoLimit();
  ctx.Cancel();  // cancelled before the run even starts
  CatapultResult result = RunCatapult(db, FastOptions(), ctx);
  EXPECT_TRUE(result.execution.Degraded());
}

TEST_F(RobustnessTest, TinyIsoBudgetIsCountedAsExhausted) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  options.selector.iso_node_budget = 1;  // every coverage VF2 call truncates
  CatapultResult result = RunCatapult(db, options);
  EXPECT_GT(result.selection.iso_budget_exhausted, 0u);
  EXPECT_EQ(result.execution.iso_budget_exhausted,
            result.selection.iso_budget_exhausted);
}

// ---------------------------------------------------------------------------
// Determinism: without a deadline the machinery must be invisible.

TEST_F(RobustnessTest, NoDeadlineIsDeterministicAndUndegraded) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  CatapultResult a = RunCatapult(db, options);
  CatapultResult b = RunCatapult(db, options, RunContext::NoLimit());
  EXPECT_FALSE(a.execution.deadline_set);
  EXPECT_FALSE(a.execution.Degraded());
  ASSERT_EQ(a.selection.patterns.size(), b.selection.patterns.size());
  for (size_t i = 0; i < a.selection.patterns.size(); ++i) {
    const Graph& ga = a.selection.patterns[i].graph;
    const Graph& gb = b.selection.patterns[i].graph;
    ASSERT_EQ(ga.NumVertices(), gb.NumVertices());
    ASSERT_EQ(ga.NumEdges(), gb.NumEdges());
    EXPECT_EQ(a.selection.patterns[i].score, b.selection.patterns[i].score);
    EXPECT_TRUE(AreIsomorphic(ga, gb));
  }
}

}  // namespace
}  // namespace catapult
