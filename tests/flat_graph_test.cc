// FlatGraph construction invariants (DESIGN.md §15): the CSR layout must
// reproduce the source Graph exactly — labels, degrees, insertion-order
// adjacency, round-tripped edge lists — its binary-search lookups must agree
// with the adjacency scan on every vertex pair, and a FlatGraphDatabase must
// slice out the same graphs and label domains as standalone builds.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/flat_graph.h"
#include "src/util/rng.h"

namespace catapult {
namespace {

// A deterministic random labelled connected graph for a given seed.
Graph RandomGraph(uint64_t seed, size_t min_v = 5, size_t max_v = 14,
                  size_t num_labels = 4) {
  Rng rng(seed * 2654435761ULL + 17);
  size_t n = min_v + rng.UniformInt(max_v - min_v + 1);
  Graph g;
  g.AddVertex(static_cast<Label>(rng.UniformInt(num_labels)));
  for (size_t v = 1; v < n; ++v) {
    VertexId parent = static_cast<VertexId>(rng.UniformInt(v));
    VertexId child =
        g.AddVertex(static_cast<Label>(rng.UniformInt(num_labels)));
    g.AddEdge(parent, child, static_cast<Label>(rng.UniformInt(2)));
  }
  size_t extra = rng.UniformInt(4);
  for (size_t e = 0; e < extra; ++e) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(n));
    VertexId v = static_cast<VertexId>(rng.UniformInt(n));
    if (u != v && !g.HasEdge(u, v)) {
      g.AddEdge(u, v, static_cast<Label>(rng.UniformInt(2)));
    }
  }
  return g;
}

std::vector<std::tuple<VertexId, VertexId, Label>> SortedEdges(
    const std::vector<Edge>& edges) {
  std::vector<std::tuple<VertexId, VertexId, Label>> out;
  for (const Edge& e : edges) out.emplace_back(e.u, e.v, e.label);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FlatGraphTest, EmptyGraph) {
  FlatGraph flat = FlatGraph::Build(Graph());
  EXPECT_EQ(flat.NumVertices(), 0u);
  EXPECT_EQ(flat.NumEdges(), 0u);
  FlatGraphView view = flat.View();
  EXPECT_EQ(view.NumVertices(), 0u);
  EXPECT_EQ(view.NumEdges(), 0u);
}

TEST(FlatGraphTest, SingleVertex) {
  Graph g;
  g.AddVertex(7);
  FlatGraphView view;
  FlatGraph flat = FlatGraph::Build(g);
  view = flat.View();
  EXPECT_EQ(view.NumVertices(), 1u);
  EXPECT_EQ(view.NumEdges(), 0u);
  EXPECT_EQ(view.VertexLabel(0), 7u);
  EXPECT_EQ(view.Degree(0), 0u);
  EXPECT_EQ(view.NeighborsBegin(0), view.NeighborsEnd(0));
  EXPECT_FALSE(view.HasEdge(0, 0));
}

TEST(FlatGraphTest, RoundTripPreservesStructure) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Graph g = RandomGraph(seed);
    FlatGraph flat = FlatGraph::Build(g);
    FlatGraphView view = flat.View();
    ASSERT_EQ(view.NumVertices(), g.NumVertices());
    ASSERT_EQ(view.NumEdges(), g.NumEdges());

    // Rebuild a Graph from the flat adjacency and compare edge lists.
    Graph rebuilt;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      rebuilt.AddVertex(view.VertexLabel(v));
    }
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (const FlatNeighbor* n = view.NeighborsBegin(v);
           n != view.NeighborsEnd(v); ++n) {
        if (v < n->to) rebuilt.AddEdge(v, n->to, n->edge_label);
      }
    }
    EXPECT_EQ(SortedEdges(rebuilt.EdgeList()), SortedEdges(g.EdgeList()));
  }
}

TEST(FlatGraphTest, AdjacencyKeepsInsertionOrder) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Graph g = RandomGraph(seed);
    FlatGraphView view;
    FlatGraph flat = FlatGraph::Build(g);
    view = flat.View();
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const std::vector<Graph::Neighbor>& ref = g.Neighbors(v);
      ASSERT_EQ(view.Degree(v), ref.size());
      const FlatNeighbor* fn = view.NeighborsBegin(v);
      for (const Graph::Neighbor& n : ref) {
        EXPECT_EQ(fn->to, n.to);
        EXPECT_EQ(fn->edge_label, n.edge_label);
        EXPECT_EQ(fn->to_label, g.VertexLabel(n.to));
        ++fn;
      }
    }
  }
}

TEST(FlatGraphTest, BinarySearchAgreesWithLinearScan) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Graph g = RandomGraph(seed);
    FlatGraph flat = FlatGraph::Build(g);
    FlatGraphView view = flat.View();
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        ASSERT_EQ(view.HasEdge(u, v), g.HasEdge(u, v))
            << "seed " << seed << " pair " << u << "," << v;
        if (g.HasEdge(u, v)) {
          EXPECT_EQ(view.EdgeLabel(u, v), g.EdgeLabel(u, v));
        }
      }
    }
  }
}

TEST(FlatGraphDatabaseTest, ArenaViewsEqualStandaloneBuilds) {
  std::vector<Graph> graphs;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    graphs.push_back(RandomGraph(seed));
  }
  graphs.push_back(Graph());  // empty graph mid-arena must slice cleanly
  Graph single;
  single.AddVertex(2);
  graphs.push_back(single);

  FlatGraphDatabase arena = FlatGraphDatabase::Build(graphs);
  ASSERT_EQ(arena.size(), graphs.size());
  for (size_t id = 0; id < graphs.size(); ++id) {
    FlatGraph standalone = FlatGraph::Build(graphs[id]);
    FlatGraphView a = arena.view(id);
    FlatGraphView b = standalone.View();
    ASSERT_EQ(a.NumVertices(), b.NumVertices());
    ASSERT_EQ(a.NumEdges(), b.NumEdges());
    LabelDomains own = LabelDomains::Build(b);
    for (VertexId v = 0; v < a.NumVertices(); ++v) {
      EXPECT_EQ(a.VertexLabel(v), b.VertexLabel(v));
      EXPECT_EQ(arena.domains(id).CountOf(b.VertexLabel(v)),
                own.CountOf(b.VertexLabel(v)));
      ASSERT_EQ(a.Degree(v), b.Degree(v));
      const FlatNeighbor* na = a.NeighborsBegin(v);
      const FlatNeighbor* nb = b.NeighborsBegin(v);
      for (; nb != b.NeighborsEnd(v); ++na, ++nb) {
        EXPECT_EQ(na->to, nb->to);
        EXPECT_EQ(na->to_label, nb->to_label);
        EXPECT_EQ(na->edge_label, nb->edge_label);
      }
      for (VertexId u = 0; u < a.NumVertices(); ++u) {
        EXPECT_EQ(a.HasEdge(v, u), b.HasEdge(v, u));
      }
    }
  }
}

TEST(LabelDomainsTest, DomainsMatchDirectCount) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Graph g = RandomGraph(seed);
    FlatGraph flat = FlatGraph::Build(g);
    LabelDomains domains = LabelDomains::Build(flat.View());
    EXPECT_EQ(domains.num_vertices(), g.NumVertices());
    for (Label l = 0; l < 5; ++l) {
      std::vector<VertexId> expected;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.VertexLabel(v) == l) expected.push_back(v);
      }
      EXPECT_EQ(domains.CountOf(l), expected.size());
      const uint64_t* words = domains.Words(l);
      if (expected.empty()) {
        EXPECT_EQ(words, nullptr);
        continue;
      }
      ASSERT_NE(words, nullptr);
      std::vector<VertexId> got;
      for (size_t w = 0; w < domains.words_per_domain(); ++w) {
        uint64_t bits = words[w];
        while (bits != 0) {
          got.push_back(static_cast<VertexId>(
              (w << 6) + static_cast<size_t>(__builtin_ctzll(bits))));
          bits &= bits - 1;
        }
      }
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(LabelDomainsTest, EmptyGraphHasNoDomains) {
  FlatGraph flat = FlatGraph::Build(Graph());
  LabelDomains domains = LabelDomains::Build(flat.View());
  EXPECT_EQ(domains.num_labels(), 0u);
  EXPECT_EQ(domains.Words(0), nullptr);
  EXPECT_EQ(domains.CountOf(0), 0u);
}

}  // namespace
}  // namespace catapult
