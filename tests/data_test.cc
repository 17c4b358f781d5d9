#include <gtest/gtest.h>

#include <set>

#include "src/data/molecule_generator.h"
#include "src/data/query_generator.h"
#include "src/graph/algorithms.h"
#include "src/iso/vf2.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

TEST(MoleculeGeneratorTest, ProducesRequestedCount) {
  MoleculeGeneratorOptions options;
  options.num_graphs = 25;
  options.seed = 1;
  GraphDatabase db = GenerateMoleculeDatabase(options);
  EXPECT_EQ(db.size(), 25u);
}

TEST(MoleculeGeneratorTest, GraphsAreConnectedSimpleAndBounded) {
  MoleculeGeneratorOptions options;
  options.num_graphs = 50;
  options.min_vertices = 8;
  options.max_vertices = 20;
  options.seed = 2;
  GraphDatabase db = GenerateMoleculeDatabase(options);
  for (const Graph& g : db.graphs()) {
    EXPECT_TRUE(IsConnected(g));
    EXPECT_GE(g.NumVertices(), 5u);  // scaffold size floor
    EXPECT_LE(g.NumVertices(), 22u);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_LE(g.Degree(v), 4u) << "molecule degree cap";
    }
  }
}

TEST(MoleculeGeneratorTest, Deterministic) {
  MoleculeGeneratorOptions options;
  options.num_graphs = 10;
  options.seed = 42;
  GraphDatabase a = GenerateMoleculeDatabase(options);
  GraphDatabase b = GenerateMoleculeDatabase(options);
  ASSERT_EQ(a.size(), b.size());
  for (GraphId i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(StructurallyEqual(a.graph(i), b.graph(i)));
  }
}

TEST(MoleculeGeneratorTest, CarbonDominates) {
  MoleculeGeneratorOptions options;
  options.num_graphs = 100;
  options.seed = 3;
  GraphDatabase db = GenerateMoleculeDatabase(options);
  Label carbon = db.labels().Find("C");
  ASSERT_NE(carbon, LabelMap::kUnknown);
  size_t carbon_count = 0;
  size_t total = 0;
  for (const Graph& g : db.graphs()) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ++total;
      if (g.VertexLabel(v) == carbon) ++carbon_count;
    }
  }
  EXPECT_GT(static_cast<double>(carbon_count) / static_cast<double>(total),
            0.5);
}

TEST(MoleculeGeneratorTest, ScaffoldFamiliesShareMotifs) {
  // With a single family, all graphs contain the family scaffold.
  MoleculeGeneratorOptions options;
  options.num_graphs = 10;
  options.scaffold_families = 1;  // benzene-like C6 ring
  options.seed = 4;
  GraphDatabase db = GenerateMoleculeDatabase(options);
  Label C = db.labels().Find("C");
  Graph six_ring;
  for (int i = 0; i < 6; ++i) six_ring.AddVertex(C);
  for (int i = 0; i < 6; ++i) {
    six_ring.AddEdge(static_cast<VertexId>(i),
                     static_cast<VertexId>((i + 1) % 6));
  }
  for (const Graph& g : db.graphs()) {
    EXPECT_TRUE(ContainsSubgraph(six_ring, g));
  }
}

TEST(QueryWorkloadTest, SizesWithinRange) {
  GraphDatabase db = GenerateMoleculeDatabase(
      {.num_graphs = 30, .min_vertices = 12, .max_vertices = 25, .seed = 5});
  QueryWorkloadOptions options;
  options.count = 40;
  options.min_edges = 4;
  options.max_edges = 10;
  std::vector<Graph> queries = GenerateQueryWorkload(db, options);
  EXPECT_EQ(queries.size(), 40u);
  for (const Graph& q : queries) {
    EXPECT_TRUE(IsConnected(q));
    EXPECT_GE(q.NumEdges(), 1u);
    EXPECT_LE(q.NumEdges(), 10u);
  }
}

TEST(QueryWorkloadTest, QueriesAreSubgraphsOfSomeDataGraph) {
  GraphDatabase db = GenerateMoleculeDatabase(
      {.num_graphs = 15, .seed = 6});
  QueryWorkloadOptions options;
  options.count = 10;
  options.min_edges = 3;
  options.max_edges = 6;
  options.seed = 9;
  for (const Graph& q : GenerateQueryWorkload(db, options)) {
    bool contained = false;
    for (const Graph& g : db.graphs()) {
      if (ContainsSubgraph(q, g)) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained);
  }
}

TEST(QueryMixTest, RespectsCountAndSizes) {
  GraphDatabase db = GenerateMoleculeDatabase(
      {.num_graphs = 40, .seed = 7});
  // Frequent pool: a handful of small subgraphs of the db.
  Rng rng(3);
  std::vector<Graph> pool;
  for (int i = 0; i < 5; ++i) {
    pool.push_back(RandomConnectedSubgraph(db.graph(0), 5, rng));
  }
  QueryMixOptions options;
  options.count = 20;
  options.infrequent_fraction = 0.3;
  options.verification_sample = 20;
  std::vector<Graph> mix = GenerateQueryMix(db, pool, options);
  EXPECT_EQ(mix.size(), 20u);
  for (const Graph& q : mix) {
    EXPECT_GE(q.NumEdges(), options.min_edges);
  }
}

TEST(QueryMixTest, ZeroInfrequentDrawsOnlyFromPool) {
  GraphDatabase db = GenerateMoleculeDatabase(
      {.num_graphs = 20, .seed = 8});
  Graph pool_graph;
  Label c = db.labels().Find("C");
  for (int i = 0; i < 5; ++i) pool_graph.AddVertex(c);
  for (int i = 0; i + 1 < 5; ++i) {
    pool_graph.AddEdge(static_cast<VertexId>(i),
                       static_cast<VertexId>(i + 1));
  }
  QueryMixOptions options;
  options.count = 8;
  options.infrequent_fraction = 0.0;
  std::vector<Graph> mix = GenerateQueryMix(db, {pool_graph}, options);
  ASSERT_EQ(mix.size(), 8u);
  for (const Graph& q : mix) {
    EXPECT_TRUE(StructurallyEqual(q, pool_graph));
  }
}

}  // namespace
}  // namespace catapult

namespace catapult {
namespace {

TEST(MoleculeGeneratorTest, ExtendedAlphabet) {
  MoleculeGeneratorOptions options;
  options.num_graphs = 60;
  options.alphabet_size = 20;
  options.seed = 9;
  GraphDatabase db = GenerateMoleculeDatabase(options);
  // Tail labels appear...
  EXPECT_NE(db.labels().Find("X8"), LabelMap::kUnknown);
  // ...and the database actually uses more than the 8 core labels.
  EXPECT_GT(db.Stats().num_vertex_labels, 8u);
}

TEST(MoleculeGeneratorTest, AlphabetClampedToAtLeastTwo) {
  MoleculeGeneratorOptions options;
  options.num_graphs = 5;
  options.alphabet_size = 1;  // clamped to 2
  options.seed = 10;
  GraphDatabase db = GenerateMoleculeDatabase(options);
  EXPECT_EQ(db.size(), 5u);
}

}  // namespace
}  // namespace catapult
