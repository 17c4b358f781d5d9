// Property-based sweeps over randomly generated inputs (parameterized
// gtest): algebraic invariants that must hold for every input, not just
// handcrafted cases.

#include <gtest/gtest.h>

#include "src/csg/csg.h"
#include "src/data/molecule_generator.h"
#include "src/formulate/evaluate.h"
#include "src/formulate/steps.h"
#include "src/graph/algorithms.h"
#include "src/iso/canonical_code.h"
#include "src/iso/ged.h"
#include "src/iso/mcs.h"
#include "src/iso/vf2.h"
#include "src/tree/canonical.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

// A deterministic random labelled connected graph for a given seed.
Graph RandomGraph(uint64_t seed, size_t min_v = 5, size_t max_v = 14) {
  Rng rng(seed * 2654435761ULL + 17);
  size_t n = min_v + rng.UniformInt(max_v - min_v + 1);
  Graph g;
  g.AddVertex(static_cast<Label>(rng.UniformInt(4)));
  for (size_t v = 1; v < n; ++v) {
    VertexId parent = static_cast<VertexId>(rng.UniformInt(v));
    VertexId child = g.AddVertex(static_cast<Label>(rng.UniformInt(4)));
    g.AddEdge(parent, child);
  }
  // A few extra edges (may close cycles).
  size_t extra = rng.UniformInt(3);
  for (size_t e = 0; e < extra; ++e) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(n));
    VertexId v = static_cast<VertexId>(rng.UniformInt(n));
    if (u != v && !g.HasEdge(u, v)) g.AddEdge(u, v);
  }
  return g;
}

class GraphProperty : public ::testing::TestWithParam<int> {};

TEST_P(GraphProperty, RandomSubgraphIsContained) {
  Graph g = RandomGraph(static_cast<uint64_t>(GetParam()));
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  Graph sub = RandomConnectedSubgraph(g, 1 + rng.UniformInt(5), rng);
  if (sub.NumVertices() == 0) return;
  EXPECT_TRUE(ContainsSubgraph(sub, g));
}

TEST_P(GraphProperty, PermutedCopyIsIsomorphic) {
  Graph g = RandomGraph(static_cast<uint64_t>(GetParam()));
  Rng rng(static_cast<uint64_t>(GetParam()) + 2000);
  Graph p = Permuted(g, rng);
  EXPECT_TRUE(AreIsomorphic(g, p));
  EXPECT_EQ(CanonicalCode(g), CanonicalCode(p));
}

TEST_P(GraphProperty, GedSelfIsZeroAndSymmetric) {
  Graph a = RandomGraph(static_cast<uint64_t>(GetParam()), 4, 8);
  Graph b = RandomGraph(static_cast<uint64_t>(GetParam()) + 5000, 4, 8);
  EXPECT_DOUBLE_EQ(GraphEditDistance(a, a).distance, 0.0);
  GedResult ab = GraphEditDistance(a, b);
  GedResult ba = GraphEditDistance(b, a);
  if (ab.exact && ba.exact) {
    EXPECT_DOUBLE_EQ(ab.distance, ba.distance);
  }
  EXPECT_GE(ab.distance + 1e-9, GedLowerBound(a, b));
}

TEST_P(GraphProperty, GedOfPermutedCopyIsZero) {
  Graph g = RandomGraph(static_cast<uint64_t>(GetParam()), 4, 8);
  Rng rng(static_cast<uint64_t>(GetParam()) + 3000);
  Graph p = Permuted(g, rng);
  GedResult r = GraphEditDistance(g, p);
  if (r.exact) {
    EXPECT_DOUBLE_EQ(r.distance, 0.0);
  }
}

TEST_P(GraphProperty, MccsSimilarityBoundsAndIdentity) {
  Graph a = RandomGraph(static_cast<uint64_t>(GetParam()), 4, 9);
  Graph b = RandomGraph(static_cast<uint64_t>(GetParam()) + 7000, 4, 9);
  McsOptions options;
  options.node_budget = 50000;
  double self = McsSimilarity(a, a, options);
  EXPECT_DOUBLE_EQ(self, 1.0);
  double sim = McsSimilarity(a, b, options);
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0);
  // MCCS (connected) can never beat unconstrained MCS.
  McsOptions unconnected = options;
  unconnected.connected = false;
  EXPECT_LE(sim, McsSimilarity(a, b, unconnected) + 1e-9);
}

TEST_P(GraphProperty, CsgContainsAllMembers) {
  // Build a little cluster of permuted/decorated variants of one graph.
  Graph base = RandomGraph(static_cast<uint64_t>(GetParam()), 6, 10);
  Rng rng(static_cast<uint64_t>(GetParam()) + 9000);
  GraphDatabase db;
  for (int i = 0; i < 4; ++i) {
    Graph variant = Permuted(base, rng);
    if (rng.Bernoulli(0.5)) {
      VertexId host = static_cast<VertexId>(
          rng.UniformInt(variant.NumVertices()));
      VertexId leaf = variant.AddVertex(static_cast<Label>(rng.UniformInt(4)));
      variant.AddEdge(host, leaf);
    }
    db.Add(std::move(variant));
  }
  std::vector<GraphId> cluster = {0, 1, 2, 3};
  ClusterSummaryGraph csg = BuildCsg(db, cluster);
  Graph summary = csg.ToGraph();
  for (GraphId id : cluster) {
    EXPECT_TRUE(ContainsSubgraph(db.graph(id), summary))
        << "member " << id << " lost by the closure";
  }
  // Supports are consistent: every edge supported by at least one member,
  // no support exceeding the cluster size.
  for (const auto& e : csg.edges()) {
    EXPECT_GE(e.support.Count(), 1u);
    EXPECT_LE(e.support.Count(), cluster.size());
  }
}

TEST_P(GraphProperty, CanonicalStringMatchesIsomorphismForTrees) {
  // Equal canonical strings <=> isomorphic, for random trees.
  Rng rng(static_cast<uint64_t>(GetParam()) + 11000);
  auto RandomTree = [&](uint64_t seed) {
    Rng local(seed);
    size_t n = 3 + local.UniformInt(8);
    Graph t;
    t.AddVertex(static_cast<Label>(local.UniformInt(3)));
    for (size_t v = 1; v < n; ++v) {
      VertexId parent = static_cast<VertexId>(local.UniformInt(v));
      t.AddEdge(parent, t.AddVertex(static_cast<Label>(local.UniformInt(3))));
    }
    return t;
  };
  Graph a = RandomTree(static_cast<uint64_t>(GetParam()) * 31 + 1);
  Graph b = RandomTree(static_cast<uint64_t>(GetParam()) * 37 + 2);
  bool same_string = CanonicalTreeString(a) == CanonicalTreeString(b);
  bool isomorphic = AreIsomorphic(a, b);
  EXPECT_EQ(same_string, isomorphic);
  (void)rng;
}

TEST_P(GraphProperty, FormulationNeverWorseThanEdgeAtATime) {
  // With a labelled panel, step_P <= step_total always (a pattern is only
  // used when it saves steps... actually using any k-edge pattern with
  // k >= 2 strictly saves steps; with no usable pattern the counts equal).
  Graph query = RandomGraph(static_cast<uint64_t>(GetParam()), 6, 12);
  std::vector<Graph> panel;
  Rng rng(static_cast<uint64_t>(GetParam()) + 13000);
  panel.push_back(RandomConnectedSubgraph(query, 3, rng));
  panel.push_back(RandomConnectedSubgraph(query, 4, rng));
  GuiModel gui = MakeCatapultGui(panel);
  QueryFormulation f = FormulateQuery(query, gui);
  EXPECT_LE(f.steps_patterns, f.steps_total);
  EXPECT_GE(f.mu, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace catapult
