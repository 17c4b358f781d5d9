#include "src/graph/graph.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/graph/algorithms.h"
#include "src/graph/graph_database.h"
#include "src/graph/io.h"
#include "src/graph/label_map.h"
#include "src/util/rng.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

Graph MakeTriangle(Label a = 0, Label b = 1, Label c = 2) {
  Graph g;
  VertexId va = g.AddVertex(a);
  VertexId vb = g.AddVertex(b);
  VertexId vc = g.AddVertex(c);
  g.AddEdge(va, vb);
  g.AddEdge(vb, vc);
  g.AddEdge(vc, va);
  return g;
}

Graph MakePath(size_t n, Label label = 0) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex(label);
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  return g;
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Size(), 0u);
  EXPECT_EQ(g.id(), kInvalidGraphId);
}

TEST(GraphTest, AddVertexAssignsConsecutiveIds) {
  Graph g;
  EXPECT_EQ(g.AddVertex(5), 0u);
  EXPECT_EQ(g.AddVertex(7), 1u);
  EXPECT_EQ(g.AddVertex(5), 2u);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.VertexLabel(0), 5u);
  EXPECT_EQ(g.VertexLabel(1), 7u);
}

TEST(GraphTest, AddEdgeIsUndirected) {
  Graph g = MakeTriangle();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 2u);
}

TEST(GraphTest, SizeIsEdgeCount) {
  Graph g = MakePath(4);
  EXPECT_EQ(g.Size(), 3u);
}

TEST(GraphTest, EdgeListReportsEachEdgeOnce) {
  Graph g = MakeTriangle();
  std::vector<Edge> edges = g.EdgeList();
  ASSERT_EQ(edges.size(), 3u);
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(GraphTest, DensityOfTriangleIsOne) {
  EXPECT_DOUBLE_EQ(MakeTriangle().Density(), 1.0);
}

TEST(GraphTest, DensityOfPath) {
  // path of 4 vertices: 2*3 / (4*3) = 0.5
  EXPECT_DOUBLE_EQ(MakePath(4).Density(), 0.5);
}

TEST(GraphTest, SetVertexLabel) {
  Graph g = MakePath(2, 0);
  g.SetVertexLabel(1, 9);
  EXPECT_EQ(g.VertexLabel(1), 9u);
}

TEST(GraphTest, EdgeLabelStored) {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(1);
  g.AddEdge(0, 1, 42);
  EXPECT_EQ(g.EdgeLabel(0, 1), 42u);
  EXPECT_EQ(g.EdgeLabel(1, 0), 42u);
}

TEST(GraphTest, EdgeKeyIsOrderIndependent) {
  Graph g;
  g.AddVertex(7);
  g.AddVertex(3);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.EdgeKey(0, 1), g.EdgeKey(1, 0));
  EXPECT_EQ(g.EdgeKey(0, 1), MakeEdgeLabelKey(3, 7));
}

TEST(MakeEdgeLabelKeyTest, Canonicalises) {
  EXPECT_EQ(MakeEdgeLabelKey(2, 9), MakeEdgeLabelKey(9, 2));
  EXPECT_NE(MakeEdgeLabelKey(2, 9), MakeEdgeLabelKey(2, 8));
}

TEST(LabelMapTest, InternIsIdempotent) {
  LabelMap labels;
  Label c = labels.Intern("C");
  EXPECT_EQ(labels.Intern("C"), c);
  EXPECT_EQ(labels.Name(c), "C");
  EXPECT_EQ(labels.size(), 1u);
}

TEST(LabelMapTest, FindMissingReturnsUnknown) {
  LabelMap labels;
  EXPECT_EQ(labels.Find("Xx"), LabelMap::kUnknown);
  labels.Intern("Xx");
  EXPECT_NE(labels.Find("Xx"), LabelMap::kUnknown);
}

TEST(AlgorithmsTest, IsConnected) {
  EXPECT_TRUE(IsConnected(MakeTriangle()));
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  EXPECT_FALSE(IsConnected(g));
  g.AddEdge(0, 1);
  EXPECT_TRUE(IsConnected(g));
}

TEST(AlgorithmsTest, IsTree) {
  EXPECT_TRUE(IsTree(MakePath(5)));
  EXPECT_FALSE(IsTree(MakeTriangle()));
}

TEST(AlgorithmsTest, BfsOrderVisitsComponent) {
  Graph g = MakePath(5);
  std::vector<VertexId> order = BfsOrder(g, 2);
  EXPECT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 2u);
}

TEST(AlgorithmsTest, RandomConnectedSubgraphIsConnectedSubgraph) {
  Rng rng(99);
  Graph g = MakeTriangle();
  for (int trial = 0; trial < 10; ++trial) {
    Graph sub = RandomConnectedSubgraph(g, 2, rng);
    EXPECT_EQ(sub.NumEdges(), 2u);
    EXPECT_TRUE(IsConnected(sub));
  }
}

TEST(AlgorithmsTest, RandomConnectedSubgraphCapsAtGraphSize) {
  Rng rng(1);
  Graph g = MakePath(4);
  Graph sub = RandomConnectedSubgraph(g, 100, rng);
  EXPECT_EQ(sub.NumEdges(), 3u);
}

TEST(AlgorithmsTest, RelabelAllVertices) {
  Graph g = MakeTriangle(1, 2, 3);
  Graph r = RelabelAllVertices(g, 9);
  for (VertexId v = 0; v < r.NumVertices(); ++v) {
    EXPECT_EQ(r.VertexLabel(v), 9u);
  }
  EXPECT_EQ(r.NumEdges(), g.NumEdges());
}

TEST(AlgorithmsTest, StructurallyEqual) {
  EXPECT_TRUE(StructurallyEqual(MakeTriangle(), MakeTriangle()));
  EXPECT_FALSE(StructurallyEqual(MakeTriangle(), MakePath(3)));
  EXPECT_FALSE(StructurallyEqual(MakeTriangle(0, 1, 2),
                                 MakeTriangle(0, 1, 3)));
}

TEST(GraphDatabaseTest, AddAssignsIds) {
  GraphDatabase db;
  GraphId id0 = db.Add(MakeTriangle());
  GraphId id1 = db.Add(MakePath(3));
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(db.graph(0).id(), 0u);
  EXPECT_EQ(db.size(), 2u);
}

TEST(GraphDatabaseTest, SubsetReindexes) {
  GraphDatabase db;
  db.Add(MakeTriangle());
  db.Add(MakePath(3));
  db.Add(MakePath(4));
  GraphDatabase subset = db.Subset({2, 0});
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_EQ(subset.graph(0).NumVertices(), 4u);
  EXPECT_EQ(subset.graph(1).NumVertices(), 3u);
  EXPECT_EQ(subset.graph(0).id(), 0u);
}

TEST(GraphDatabaseTest, StatsAggregates) {
  GraphDatabase db;
  db.Add(MakeTriangle(0, 0, 0));
  db.Add(MakePath(5, 0));
  DatabaseStats stats = db.Stats();
  EXPECT_EQ(stats.num_graphs, 2u);
  EXPECT_EQ(stats.total_vertices, 8u);
  EXPECT_EQ(stats.total_edges, 7u);
  EXPECT_EQ(stats.max_vertices, 5u);
  EXPECT_EQ(stats.num_vertex_labels, 1u);
  EXPECT_DOUBLE_EQ(stats.avg_vertices, 4.0);
}

TEST(IoTest, RoundTrip) {
  GraphDatabase db;
  Graph g;
  g.AddVertex(db.labels().Intern("C"));
  g.AddVertex(db.labels().Intern("N"));
  g.AddVertex(db.labels().Intern("C"));
  g.AddEdge(0, 1, 2);
  g.AddEdge(1, 2);
  db.Add(std::move(g));
  db.Add(MakePath(2, db.labels().Intern("O")));

  std::stringstream stream;
  WriteDatabase(db, stream);
  auto loaded = ReadDatabase(stream);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  const Graph& g0 = loaded->graph(0);
  EXPECT_EQ(g0.NumVertices(), 3u);
  EXPECT_EQ(g0.NumEdges(), 2u);
  EXPECT_EQ(g0.EdgeLabel(0, 1), 2u);
  EXPECT_EQ(loaded->labels().Name(g0.VertexLabel(1)), "N");
}

TEST(IoTest, RejectsDanglingEdge) {
  std::stringstream stream("t # 0\nv 0 C\ne 0 5\n");
  EXPECT_FALSE(ReadDatabase(stream).has_value());
}

TEST(IoTest, RejectsEdgeBeforeGraph) {
  std::stringstream stream("e 0 1\n");
  EXPECT_FALSE(ReadDatabase(stream).has_value());
}

TEST(IoTest, SkipsCommentsAndBlankLines) {
  std::stringstream stream("# header\n\nt # 0\nv 0 C\nv 1 C\ne 0 1\n");
  auto loaded = ReadDatabase(stream);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 1u);
}

TEST(IoTest, RejectsDuplicateEdge) {
  std::stringstream stream("t # 0\nv 0 C\nv 1 C\ne 0 1\ne 1 0\n");
  EXPECT_FALSE(ReadDatabase(stream).has_value());
}

}  // namespace
}  // namespace catapult
