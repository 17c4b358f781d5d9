#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/data/molecule_generator.h"
#include "src/iso/canonical_code.h"
#include "src/iso/ged.h"
#include "src/iso/mcs.h"
#include "src/iso/vf2.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "src/graph/algorithms.h"
#include "tests/reference_ged.h"
#include "tests/reference_mcs.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

// Labelled molecule-ish target: C-C(-O)-N ring with tail.
Graph LabelledTarget() {
  Graph g;
  VertexId c1 = g.AddVertex(0);  // C
  VertexId c2 = g.AddVertex(0);  // C
  VertexId o = g.AddVertex(1);   // O
  VertexId n = g.AddVertex(2);   // N
  VertexId c3 = g.AddVertex(0);  // C
  g.AddEdge(c1, c2);
  g.AddEdge(c2, o);
  g.AddEdge(c2, n);
  g.AddEdge(n, c3);
  g.AddEdge(c3, c1);
  return g;
}

TEST(Vf2Test, PathInRing) {
  EXPECT_TRUE(ContainsSubgraph(Path(3), Ring(5)));
  EXPECT_TRUE(ContainsSubgraph(Path(5), Ring(5)));
}

TEST(Vf2Test, RingNotInPath) {
  EXPECT_FALSE(ContainsSubgraph(Ring(3), Path(5)));
}

TEST(Vf2Test, LargerPatternNeverContained) {
  EXPECT_FALSE(ContainsSubgraph(Ring(6), Ring(5)));
}

TEST(Vf2Test, LabelsMustMatch) {
  Graph pattern;
  pattern.AddVertex(0);
  pattern.AddVertex(1);
  pattern.AddEdge(0, 1);
  Graph target;
  target.AddVertex(0);
  target.AddVertex(2);
  target.AddEdge(0, 1);
  EXPECT_FALSE(ContainsSubgraph(pattern, target));
  target.AddVertex(1);
  target.AddEdge(0, 2);
  EXPECT_TRUE(ContainsSubgraph(pattern, target));
}

TEST(Vf2Test, LabelledPatternInTarget) {
  Graph pattern;  // O-C-N star
  VertexId c = pattern.AddVertex(0);
  VertexId o = pattern.AddVertex(1);
  VertexId n = pattern.AddVertex(2);
  pattern.AddEdge(c, o);
  pattern.AddEdge(c, n);
  EXPECT_TRUE(ContainsSubgraph(pattern, LabelledTarget()));
}

TEST(Vf2Test, InducedModeRejectsExtraEdges) {
  // P3 (path) embeds in a triangle non-induced but not induced.
  IsoOptions induced;
  induced.induced = true;
  EXPECT_TRUE(ContainsSubgraph(Path(3), Ring(3)));
  EXPECT_FALSE(ContainsSubgraph(Path(3), Ring(3), induced));
}

TEST(Vf2Test, CountEmbeddingsOfEdgeInTriangle) {
  // An unlabelled edge has 6 embeddings in a triangle (3 edges x 2
  // orientations).
  EXPECT_EQ(FindEmbeddings(Path(2), Ring(3), 0).size(), 6u);
}

TEST(Vf2Test, CountRespectsCap) {
  EXPECT_EQ(FindEmbeddings(Path(2), Ring(3), 4).size(), 4u);
}

TEST(Vf2Test, EnumerateProducesValidEmbeddings) {
  Graph pattern = Path(3);
  Graph target = Ring(4);
  std::vector<Embedding> embeddings = FindEmbeddings(pattern, target, 0);
  for (const Embedding& e : embeddings) {
    // Each pattern edge must be realised.
    for (const Edge& pe : pattern.EdgeList()) {
      EXPECT_TRUE(target.HasEdge(e[pe.u], e[pe.v]));
    }
  }
  EXPECT_GT(embeddings.size(), 0u);
}

TEST(Vf2Test, MatchEdgeLabels) {
  Graph pattern;
  pattern.AddVertex(0);
  pattern.AddVertex(0);
  pattern.AddEdge(0, 1, 5);
  Graph target;
  target.AddVertex(0);
  target.AddVertex(0);
  target.AddEdge(0, 1, 6);
  IsoOptions options;
  options.match_edge_labels = true;
  EXPECT_FALSE(ContainsSubgraph(pattern, target, options));
  EXPECT_TRUE(ContainsSubgraph(pattern, target));  // default ignores them
}

TEST(Vf2Test, BudgetExhaustionReported) {
  bool exhausted = false;
  IsoOptions options;
  options.node_budget = 2;
  options.budget_exhausted = &exhausted;
  EXPECT_FALSE(ContainsSubgraph(Ring(6), Ring(12), options));
  EXPECT_TRUE(exhausted);
}

TEST(AreIsomorphicTest, RingsOfEqualSize) {
  EXPECT_TRUE(AreIsomorphic(Ring(5), Ring(5)));
  EXPECT_FALSE(AreIsomorphic(Ring(5), Ring(6)));
}

TEST(AreIsomorphicTest, DetectsRelabelledIsomorphs) {
  Graph a = LabelledTarget();
  // Same structure, built in different vertex order.
  Graph b;
  VertexId n = b.AddVertex(2);
  VertexId c3 = b.AddVertex(0);
  VertexId c1 = b.AddVertex(0);
  VertexId c2 = b.AddVertex(0);
  VertexId o = b.AddVertex(1);
  b.AddEdge(c2, c1);
  b.AddEdge(o, c2);
  b.AddEdge(n, c2);
  b.AddEdge(c3, n);
  b.AddEdge(c1, c3);
  EXPECT_TRUE(AreIsomorphic(a, b));
}

TEST(AreIsomorphicTest, SameCountsDifferentStructure) {
  // Star K1,3 vs path P4: both 4 vertices 3 edges.
  Graph star;
  VertexId c = star.AddVertex(0);
  for (int i = 0; i < 3; ++i) star.AddEdge(c, star.AddVertex(0));
  EXPECT_FALSE(AreIsomorphic(star, Path(4)));
}

TEST(CanonicalCodeTest, InvariantUnderRelabelling) {
  Graph a = LabelledTarget();
  Graph b;
  VertexId n = b.AddVertex(2);
  VertexId c3 = b.AddVertex(0);
  VertexId c1 = b.AddVertex(0);
  VertexId c2 = b.AddVertex(0);
  VertexId o = b.AddVertex(1);
  b.AddEdge(c2, c1);
  b.AddEdge(o, c2);
  b.AddEdge(n, c2);
  b.AddEdge(c3, n);
  b.AddEdge(c1, c3);
  EXPECT_EQ(CanonicalCode(a), CanonicalCode(b));
}

TEST(CanonicalCodeTest, DistinguishesStarFromPath) {
  Graph star;
  VertexId c = star.AddVertex(0);
  for (int i = 0; i < 3; ++i) star.AddEdge(c, star.AddVertex(0));
  EXPECT_NE(CanonicalCode(star), CanonicalCode(Path(4)));
}

// A random connected graph: a random tree on `n` vertices plus `extra`
// further edges (at most the tree's non-edges), labels in [0, labels).
Graph RandomConnected(Rng& rng, size_t n, size_t extra, uint64_t labels) {
  Graph g;
  g.AddVertex(static_cast<Label>(rng.UniformInt(labels)));
  for (size_t v = 1; v < n; ++v) {
    VertexId child = g.AddVertex(static_cast<Label>(rng.UniformInt(labels)));
    g.AddEdge(static_cast<VertexId>(rng.UniformInt(v)), child);
  }
  while (extra > 0) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(n));
    VertexId v = static_cast<VertexId>(rng.UniformInt(n));
    if (u == v || g.HasEdge(u, v)) continue;
    g.AddEdge(u, v);
    --extra;
  }
  return g;
}

// Equal codes exactly when VF2 finds an isomorphism, over trees and cyclic
// graphs of 1-10 vertices with 1-3 labels: a third of the pairs are
// permuted copies, the rest independent draws with the same vertex and
// edge counts (isomorphic by chance often enough at these sizes).
TEST(CanonicalCodeTest, EqualCodesIffIsomorphic) {
  Rng rng(2014);
  size_t isomorphic = 0;
  size_t distinct = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    const size_t n = 1 + rng.UniformInt(10);
    const uint64_t labels = 1 + rng.UniformInt(3);
    const size_t non_tree = n * (n - 1) / 2 - (n - 1);
    const size_t extra =
        trial % 2 == 0 ? 0 : rng.UniformInt(std::min<size_t>(non_tree, 5) + 1);
    Graph a = RandomConnected(rng, n, extra, labels);
    Graph b = trial % 3 == 0 ? Permuted(a, rng)
                             : RandomConnected(rng, n, extra, labels);
    const bool iso = AreIsomorphic(a, b);
    EXPECT_EQ(CanonicalCode(a) == CanonicalCode(b), iso)
        << "trial " << trial << ": " << a.DebugString() << " vs "
        << b.DebugString();
    if (trial % 3 != 0) ++(iso ? isomorphic : distinct);
  }
  // Both sides of the equivalence were exercised by independent pairs.
  EXPECT_GT(isomorphic, 200u);
  EXPECT_GT(distinct, 200u);
}

Graph FromEdges(size_t n, const std::vector<std::pair<int, int>>& edges) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex(0);
  for (const auto& [u, v] : edges) {
    g.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return g;
}

// Shapes colour refinement cannot split on its own, where the code depends
// on the search: vertex-transitive ones (rings, K3xK3, cube, Petersen),
// twins (the star), fused rings, and the Frucht graph, a cubic graph with
// no symmetry at all, whose every leaf encodes differently.
TEST(CanonicalCodeTest, InvariantUnderPermutationOnSymmetricShapes) {
  std::vector<std::pair<std::string, Graph>> shapes;
  shapes.emplace_back(std::string("C6"), Ring(6));
  shapes.emplace_back(std::string("C12"), Ring(12));
  Graph alternating = Ring(12);
  for (VertexId v = 0; v < 12; v += 2) alternating.SetVertexLabel(v, 1);
  shapes.emplace_back("C12 alternating labels", alternating);
  Graph star;
  VertexId centre = star.AddVertex(0);
  for (int i = 0; i < 8; ++i) star.AddEdge(centre, star.AddVertex(0));
  shapes.emplace_back("K1,8", star);
  std::vector<std::pair<int, int>> rook, cube, petersen, frucht;
  for (int a = 0; a < 9; ++a) {
    for (int b = a + 1; b < 9; ++b) {
      if (a / 3 == b / 3 || a % 3 == b % 3) rook.emplace_back(a, b);
    }
  }
  shapes.emplace_back("K3xK3", FromEdges(9, rook));
  for (int a = 0; a < 8; ++a) {
    for (int bit = 1; bit < 8; bit <<= 1) {
      if ((a & bit) == 0) cube.emplace_back(a, a | bit);
    }
  }
  shapes.emplace_back("cube", FromEdges(8, cube));
  for (int i = 0; i < 5; ++i) {
    petersen.emplace_back(i, (i + 1) % 5);
    petersen.emplace_back(5 + i, 5 + (i + 2) % 5);
    petersen.emplace_back(i, 5 + i);
  }
  shapes.emplace_back("Petersen", FromEdges(10, petersen));
  shapes.emplace_back(
      "naphthalene", FromEdges(10, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                                    {5, 0}, {5, 6}, {6, 7}, {7, 8}, {8, 9},
                                    {9, 4}}));
  shapes.emplace_back(
      "anthracene",
      FromEdges(14, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
                     {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 4}, {8, 10},
                     {10, 11}, {11, 12}, {12, 13}, {13, 7}}));
  const int lcf[12] = {-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2};
  for (int i = 0; i < 12; ++i) {
    frucht.emplace_back(i, (i + 1) % 12);
    const int chord = (i + lcf[i] + 12) % 12;
    if (i < chord) frucht.emplace_back(i, chord);
  }
  shapes.emplace_back("Frucht", FromEdges(12, frucht));

  Rng rng(99);
  for (const auto& [name, shape] : shapes) {
    const std::string code = CanonicalCode(shape);
    for (int trial = 0; trial < 30; ++trial) {
      EXPECT_EQ(CanonicalCode(Permuted(shape, rng)), code)
          << name << " permutation " << trial;
    }
  }
}

TEST(CanonicalCodeTest, IgnoresEdgeLabelsNotVertexLabels) {
  Graph plain = LabelledTarget();
  Graph bonded;
  for (VertexId v = 0; v < plain.NumVertices(); ++v) {
    bonded.AddVertex(plain.VertexLabel(v));
  }
  Label bond = 1;
  for (const Edge& e : plain.EdgeList()) bonded.AddEdge(e.u, e.v, bond++);
  EXPECT_TRUE(AreIsomorphic(plain, bonded));
  EXPECT_EQ(CanonicalCode(plain), CanonicalCode(bonded));

  Graph relabelled = plain;
  relabelled.SetVertexLabel(2, 7);
  EXPECT_FALSE(AreIsomorphic(plain, relabelled));
  EXPECT_NE(CanonicalCode(plain), CanonicalCode(relabelled));

  Graph lone_a, lone_b;
  lone_a.AddVertex(3);
  lone_b.AddVertex(4);
  EXPECT_NE(CanonicalCode(lone_a), CanonicalCode(lone_b));
  EXPECT_EQ(CanonicalCode(Graph()), CanonicalCode(Graph()));
  EXPECT_NE(CanonicalCode(Graph()), CanonicalCode(lone_a));
}

TEST(McsTest, IdenticalGraphsFullOverlap) {
  Graph g = LabelledTarget();
  McsResult r = MaxCommonSubgraph(g, g);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.common_edges, g.NumEdges());
}

TEST(McsTest, SimilarityOfIdenticalIsOne) {
  Graph g = Ring(5);
  EXPECT_DOUBLE_EQ(McsSimilarity(g, g), 1.0);
}

TEST(McsTest, DisjointLabelsShareNothing) {
  EXPECT_DOUBLE_EQ(McsSimilarity(Ring(4, 0), Ring(4, 1)), 0.0);
}

TEST(McsTest, PathInRingOverlap) {
  // MCCS of P4 and C6 (all labels equal) is P4 itself: 3 edges.
  McsResult r = MaxCommonSubgraph(Path(4), Ring(6));
  EXPECT_EQ(r.common_edges, 3u);
}

TEST(McsTest, ConnectedVsUnconnected) {
  // Two triangles joined by nothing vs one triangle + far apart pieces:
  // a: triangle + disjoint edge is not constructible (we require connected
  // graphs), so instead compare a "bowtie-ish" shape.
  // a: two triangles sharing a vertex. b: two triangles joined by a long
  // path. The unconnected MCS can pick both triangles (6 edges); the
  // connected MCCS at most one triangle plus path stubs.
  Graph a;  // bowtie
  VertexId shared = a.AddVertex(0);
  VertexId a1 = a.AddVertex(0);
  VertexId a2 = a.AddVertex(0);
  VertexId a3 = a.AddVertex(0);
  VertexId a4 = a.AddVertex(0);
  a.AddEdge(shared, a1);
  a.AddEdge(a1, a2);
  a.AddEdge(a2, shared);
  a.AddEdge(shared, a3);
  a.AddEdge(a3, a4);
  a.AddEdge(a4, shared);

  Graph b;  // two triangles joined by a 3-edge path
  VertexId b0 = b.AddVertex(0);
  VertexId b1 = b.AddVertex(0);
  VertexId b2 = b.AddVertex(0);
  b.AddEdge(b0, b1);
  b.AddEdge(b1, b2);
  b.AddEdge(b2, b0);
  VertexId p1 = b.AddVertex(0);
  VertexId p2 = b.AddVertex(0);
  b.AddEdge(b0, p1);
  b.AddEdge(p1, p2);
  VertexId c0 = b.AddVertex(0);
  VertexId c1 = b.AddVertex(0);
  VertexId c2 = b.AddVertex(0);
  b.AddEdge(p2, c0);
  b.AddEdge(c0, c1);
  b.AddEdge(c1, c2);
  b.AddEdge(c2, c0);

  McsOptions unconnected;
  unconnected.connected = false;
  McsResult mcs = MaxCommonSubgraph(a, b, unconnected);
  McsOptions connected;
  connected.connected = true;
  McsResult mccs = MaxCommonSubgraph(a, b, connected);
  EXPECT_GE(mcs.common_edges, mccs.common_edges);
  EXPECT_GE(mccs.common_edges, 3u);  // at least one triangle
}

TEST(McsTest, AnytimeUnderTinyBudget) {
  McsOptions options;
  options.node_budget = 3;
  McsResult r = MaxCommonSubgraph(Ring(6), Ring(6), options);
  EXPECT_FALSE(r.exact);
  // Still returns something sane.
  EXPECT_LE(r.common_edges, 6u);
}

TEST(GedLowerBoundTest, IdenticalGraphsZero) {
  Graph g = LabelledTarget();
  EXPECT_DOUBLE_EQ(GedLowerBound(g, g), 0.0);
}

TEST(GedLowerBoundTest, CountsSizeAndLabelDifferences) {
  // a: P2 labels {0,0}; b: P3 labels {0,1,2}.
  Graph a = Path(2, 0);
  Graph b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  // |V| term: |2-3| + min(2,3) - |{0} multiset ^| = 1 + 2 - 1 = 2.
  // |E| term: |1-2| = 1. Total 3.
  EXPECT_DOUBLE_EQ(GedLowerBound(a, b), 3.0);
}

TEST(GedTest, IdenticalGraphsZero) {
  Graph g = LabelledTarget();
  GedResult r = GraphEditDistance(g, g);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
}

TEST(GedTest, SingleVertexRelabel) {
  Graph a = Path(3, 0);
  Graph b = Path(3, 0);
  b.SetVertexLabel(2, 1);
  EXPECT_DOUBLE_EQ(GraphEditDistance(a, b).distance, 1.0);
}

TEST(GedTest, SingleEdgeInsertion) {
  // C4 vs P4: one edge difference.
  EXPECT_DOUBLE_EQ(GraphEditDistance(Path(4), Ring(4)).distance, 1.0);
}

TEST(GedTest, VertexInsertion) {
  // P3 -> P4: one vertex + one edge.
  EXPECT_DOUBLE_EQ(GraphEditDistance(Path(3), Path(4)).distance, 2.0);
}

TEST(GedTest, Symmetry) {
  Graph a = Ring(5);
  Graph b = Path(4);
  EXPECT_DOUBLE_EQ(GraphEditDistance(a, b).distance,
                   GraphEditDistance(b, a).distance);
}

TEST(GedTest, AlwaysAtLeastLowerBound) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    // Random small labelled graphs.
    Graph base = Ring(5, static_cast<Label>(trial % 3));
    Graph a = RandomConnectedSubgraph(base, 3 + trial % 3, rng);
    Graph b = RandomConnectedSubgraph(base, 2 + trial % 4, rng);
    if (a.NumEdges() == 0 || b.NumEdges() == 0) continue;
    GedResult r = GraphEditDistance(a, b);
    EXPECT_GE(r.distance + 1e-9, GedLowerBound(a, b));
  }
}

// Random graph on `n` vertices with vertex labels from {0, 1, 2}; each
// vertex pair is joined with probability `density` under edge label 0 or 1.
Graph RandomLabelledGraph(size_t n, Rng& rng, double density = 0.45) {
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddVertex(static_cast<Label>(rng.UniformInt(3)));
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(density)) {
        g.AddEdge(u, v, static_cast<Label>(rng.UniformInt(2)));
      }
    }
  }
  return g;
}

// The branch-and-bound kernel against full enumeration (tests/reference_ged.h)
// on pairs of at most 6 vertices: random labelled graphs, edge labels and
// disconnected ones included, connected patterns cut from a generated
// molecule database, and dense graphs against sparse ones both ways round,
// whose edge counts differ enough for the bound's edge term to prune. Each
// pair runs unbudgeted and cut at 20 nodes: an exact result equals the
// optimum, and a truncated one lies between the optimum and the greedy
// bound the search starts from.
TEST(GedTest, ExactValuesMatchFullEnumeration) {
  Rng rng(57);
  std::vector<std::pair<Graph, Graph>> pairs;
  for (int i = 0; i < 200; ++i) {
    Graph a = RandomLabelledGraph(1 + rng.UniformInt(6), rng);
    Graph b = RandomLabelledGraph(1 + rng.UniformInt(6), rng);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 20;
  gen.seed = 3;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  for (GraphId i = 0; i < db.size(); ++i) {
    Graph a = RandomConnectedSubgraph(db.graph(i), 2 + i % 4, rng);
    Graph b = RandomConnectedSubgraph(db.graph((i + 7) % db.size()),
                                      1 + (i * 3) % 5, rng);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  for (int i = 0; i < 60; ++i) {
    Graph dense = RandomLabelledGraph(4 + rng.UniformInt(3), rng, 0.8);
    Graph sparse = RandomLabelledGraph(3 + rng.UniformInt(4), rng, 0.2);
    if (i % 2 == 0) {
      pairs.emplace_back(std::move(dense), std::move(sparse));
    } else {
      pairs.emplace_back(std::move(sparse), std::move(dense));
    }
  }
  size_t far_apart = 0;
  size_t truncated = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [a, b] = pairs[i];
    ASSERT_LE(a.NumVertices(), 6u);
    ASSERT_LE(b.NumVertices(), 6u);
    if (a.NumEdges() >= b.NumEdges() + 3 || b.NumEdges() >= a.NumEdges() + 3) {
      ++far_apart;
    }
    const double optimum = reference::ReferenceGed(a, b);
    const double greedy = GedGreedyUpperBound(a, b);
    for (uint64_t budget : {0, 20}) {
      GedOptions options;
      options.node_budget = budget;
      const GedResult r = GraphEditDistance(a, b, options);
      const std::string where = "pair " + std::to_string(i) + " budget " +
                                std::to_string(budget) + ": " +
                                a.DebugString() + " vs " + b.DebugString();
      if (budget == 0) {
        EXPECT_TRUE(r.exact) << where;
      }
      if (r.exact) {
        EXPECT_EQ(r.distance, optimum) << where;
      } else {
        ++truncated;
        EXPECT_GE(r.distance, optimum) << where;
        EXPECT_LE(r.distance, greedy) << where;
      }
    }
  }
  EXPECT_GE(far_apart, 100u) << "too few pairs whose edge counts differ by 3+";
  EXPECT_GT(truncated, 0u) << "the 20-node budget never cut a search";
}

// The MCS kernel against full enumeration (tests/reference_mcs.h) on pairs
// of at most 7 vertices, connected and not, with and without edge-label
// matching, unbudgeted and cut at 20 nodes. Every reported mapping is
// injective, keeps labels, realises the reported counts and, for MCCS, is
// connected; an exact result equals the optimum and a truncated one never
// exceeds it.
TEST(McsTest, ResultsMatchFullEnumeration) {
  Rng rng(91);
  std::vector<std::pair<Graph, Graph>> pairs;
  for (int i = 0; i < 120; ++i) {
    Graph a = RandomLabelledGraph(1 + rng.UniformInt(7), rng);
    Graph b = RandomLabelledGraph(1 + rng.UniformInt(7), rng);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 20;
  gen.seed = 5;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  for (GraphId i = 0; i < db.size(); ++i) {
    Graph a = RandomConnectedSubgraph(db.graph(i), 3 + i % 4, rng);
    Graph b = RandomConnectedSubgraph(db.graph(i / 2), 2 + (i * 3) % 5, rng);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  size_t truncated = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [a, b] = pairs[i];
    ASSERT_LE(a.NumVertices(), 7u);
    ASSERT_LE(b.NumVertices(), 7u);
    for (bool connected : {true, false}) {
      for (bool match_edge_labels : {false, true}) {
        const size_t optimum = reference::ReferenceMcsEdges(
            a, b, connected, match_edge_labels);
        for (uint64_t budget : {0, 20}) {
          McsOptions options;
          options.connected = connected;
          options.match_edge_labels = match_edge_labels;
          options.node_budget = budget;
          const McsResult r = MaxCommonSubgraph(a, b, options);
          const std::string where =
              "pair " + std::to_string(i) + (connected ? " mccs" : " mcs") +
              (match_edge_labels ? " +el" : "") + " budget " +
              std::to_string(budget) + ": " + a.DebugString() + " vs " +
              b.DebugString();
          const std::vector<VertexId> map =
              reference::MapFromPairs(a, b, r.mapping);
          ASSERT_EQ(map.size(), a.NumVertices()) << where;
          EXPECT_EQ(r.common_vertices, r.mapping.size()) << where;
          EXPECT_EQ(r.common_edges,
                    reference::CommonEdgeCount(a, b, map, match_edge_labels))
              << where;
          if (connected) {
            EXPECT_TRUE(reference::CommonSubgraphConnected(
                a, b, map, match_edge_labels))
                << where;
          }
          if (budget == 0) {
            EXPECT_TRUE(r.exact) << where;
          }
          if (r.exact) {
            EXPECT_EQ(r.common_edges, optimum) << where;
          } else {
            ++truncated;
            EXPECT_LE(r.common_edges, optimum) << where;
          }
        }
      }
    }
  }
  EXPECT_GT(truncated, 0u) << "the 20-node budget never cut a search";
}

// Symmetric pairs, one vertex label, where the connected search reaches
// each mapping set from many insertion orders. A set reached again is
// counted from the memo instead of walked (src/iso/mcs.cc), so fewer nodes
// are walked than counted, and every count matches a plain walk's: the
// unlimited counts below were recorded before the memo existed. A budget
// cuts the search where a walk would: after min(budget, N) nodes, N being
// the unlimited count, and exact only when N fits. In the first six pairs
// the optimum stays below min(|Ea|, |Eb|), so no search stops early; in the
// last (a triangle with three tails against a tree) the optimum equals it
// and is found with reused sets still waiting on the search's stack.
TEST(McsTest, RevisitedMappingSetsAreCountedNotWalked) {
  const Graph ring = Ring(6);
  const Graph tree =
      FromEdges(7, {{0, 1}, {1, 2}, {2, 3}, {1, 4}, {4, 5}, {2, 6}});
  const Graph ladder = FromEdges(
      6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4}, {2, 5}});
  const Graph k4 =
      FromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  const Graph triangle =
      FromEdges(6, {{0, 1}, {0, 3}, {1, 2}, {1, 4}, {1, 3}, {3, 5}});
  const Graph fork = FromEdges(6, {{0, 1}, {1, 2}, {1, 4}, {2, 3}, {2, 5}});
  struct Case {
    const Graph* a;
    const Graph* b;
    uint64_t nodes;  // unlimited, recorded by a plain walk
  };
  const Case cases[] = {{&ring, &tree, 1482},  {&tree, &ring, 1482},
                        {&ladder, &tree, 7906}, {&k4, &ring, 1896},
                        {&ring, &k4, 1896},     {&ladder, &k4, 3648},
                        {&triangle, &fork, 164}};
  size_t truncated = 0;
  for (size_t i = 0; i < std::size(cases); ++i) {
    const Graph& a = *cases[i].a;
    const Graph& b = *cases[i].b;
    const uint64_t n = cases[i].nodes;
    const size_t optimum = reference::ReferenceMcsEdges(a, b, true, false);
    for (uint64_t budget : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{5},
                            uint64_t{13}, uint64_t{34}, uint64_t{89}, n - 1, n,
                            n + 1}) {
      McsOptions options;
      options.node_budget = budget;
      obs::MetricsRegistry registry;
      McsResult r;
      {
        obs::ScopedMetricsScope scope(&registry);
        r = MaxCommonSubgraph(a, b, options);
      }
      const obs::MetricsSnapshot snapshot = registry.Snapshot();
      const uint64_t nodes = snapshot.counter(obs::Counter::kMcsNodes);
      const uint64_t walked = snapshot.counter(obs::Counter::kMcsNodesWalked);
      const std::string where =
          "pair " + std::to_string(i) + " budget " + std::to_string(budget);
      const std::vector<VertexId> map =
          reference::MapFromPairs(a, b, r.mapping);
      ASSERT_EQ(map.size(), a.NumVertices()) << where;
      EXPECT_EQ(r.common_edges, reference::CommonEdgeCount(a, b, map, false))
          << where;
      EXPECT_TRUE(reference::CommonSubgraphConnected(a, b, map, false))
          << where;
      EXPECT_EQ(nodes, budget == 0 ? n : std::min(budget, n)) << where;
      EXPECT_EQ(r.exact, budget == 0 || n <= budget) << where;
      if (budget == 0) {
        EXPECT_LT(walked, nodes) << where << ": no mapping set was reused";
      } else {
        EXPECT_LE(walked, nodes) << where;
      }
      if (r.exact) {
        EXPECT_EQ(r.common_edges, optimum) << where;
      } else {
        ++truncated;
        EXPECT_LE(r.common_edges, optimum) << where;
      }
    }
  }
  EXPECT_GT(truncated, 0u) << "no budget cut a search";
}

TEST(GedTest, TriangleInequalitySpotCheck) {
  Graph a = Path(3);
  Graph b = Ring(3);
  Graph c = Ring(4);
  double ab = GraphEditDistance(a, b).distance;
  double bc = GraphEditDistance(b, c).distance;
  double ac = GraphEditDistance(a, c).distance;
  EXPECT_LE(ac, ab + bc + 1e-9);
}

}  // namespace
}  // namespace catapult
