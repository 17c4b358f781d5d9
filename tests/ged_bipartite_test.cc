#include "src/iso/ged_bipartite.h"

#include <gtest/gtest.h>

#include "src/graph/algorithms.h"
#include "src/iso/ged.h"
#include "src/util/rng.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

TEST(AssignmentTest, IdentityMatrix) {
  // Cost 0 on the diagonal, 1 elsewhere: optimum picks the diagonal.
  std::vector<double> cost = {0, 1, 1, 1, 0, 1, 1, 1, 0};
  std::vector<size_t> assignment;
  EXPECT_DOUBLE_EQ(SolveAssignment(cost, 3, &assignment), 0.0);
  EXPECT_EQ(assignment, (std::vector<size_t>{0, 1, 2}));
}

TEST(AssignmentTest, ForcedPermutation) {
  // Row i must take column (i+1) % 3.
  std::vector<double> cost = {9, 1, 9, 9, 9, 1, 1, 9, 9};
  std::vector<size_t> assignment;
  EXPECT_DOUBLE_EQ(SolveAssignment(cost, 3, &assignment), 3.0);
  EXPECT_EQ(assignment, (std::vector<size_t>{1, 2, 0}));
}

TEST(AssignmentTest, EmptyProblem) {
  EXPECT_DOUBLE_EQ(SolveAssignment({}, 0), 0.0);
}

TEST(AssignmentTest, OneByOne) {
  EXPECT_DOUBLE_EQ(SolveAssignment({7.0}, 1), 7.0);
}

TEST(BipartiteGedTest, IdenticalGraphsZero) {
  Graph g = Ring(5, 2);
  EXPECT_DOUBLE_EQ(BipartiteGed(g, g), 0.0);
}

TEST(BipartiteGedTest, UpperBoundsExactGed) {
  Rng rng(61);
  for (int trial = 0; trial < 25; ++trial) {
    Graph base = Ring(6, static_cast<Label>(trial % 3));
    Graph a = RandomConnectedSubgraph(base, 3 + trial % 4, rng);
    Graph b = RandomConnectedSubgraph(base, 2 + trial % 5, rng);
    if (a.NumEdges() == 0 || b.NumEdges() == 0) continue;
    GedResult exact = GraphEditDistance(a, b);
    double approx = BipartiteGed(a, b);
    if (exact.exact) {
      EXPECT_GE(approx + 1e-9, exact.distance)
          << a.DebugString() << " vs " << b.DebugString();
    }
    EXPECT_GE(approx + 1e-9, GedLowerBound(a, b));
  }
}

TEST(BipartiteGedTest, ExactOnSimpleCases) {
  // One edge difference: the assignment method finds the tight bound here.
  EXPECT_DOUBLE_EQ(BipartiteGed(Path(4), Ring(4)), 1.0);
  // One extra vertex+edge.
  EXPECT_DOUBLE_EQ(BipartiteGed(Path(3), Path(4)), 2.0);
}

TEST(BipartiteGedTest, SymmetricOnSmallCases) {
  Graph a = Ring(5);
  Graph b = Path(4);
  EXPECT_DOUBLE_EQ(BipartiteGed(a, b), BipartiteGed(b, a));
}

TEST(BipartiteGedTest, LabelMismatchCosts) {
  Graph a = Path(3, 0);
  Graph b = Path(3, 0);
  b.SetVertexLabel(1, 5);
  EXPECT_DOUBLE_EQ(BipartiteGed(a, b), 1.0);
}

TEST(BipartiteGedTest, DisjointLabelGraphs) {
  // Completely different labels: everything is deleted + inserted.
  Graph a = Path(3, 0);
  Graph b = Path(3, 9);
  // 3 relabels (cheapest) and edges align: exact GED is 3.
  double approx = BipartiteGed(a, b);
  EXPECT_GE(approx, 3.0 - 1e-9);
}

}  // namespace
}  // namespace catapult
