#include <gtest/gtest.h>

#include "src/data/molecule_generator.h"
#include "src/graph/algorithms.h"
#include "src/iso/vf2.h"
#include "src/mining/frequent_edges.h"
#include "src/mining/subgraph_miner.h"
#include "src/mining/subtree_miner.h"

namespace catapult {
namespace {

// A tiny handcrafted database: triangles C-C-O plus C-N paths.
GraphDatabase MakeSmallDb() {
  GraphDatabase db;
  Label C = db.labels().Intern("C");
  Label O = db.labels().Intern("O");
  Label N = db.labels().Intern("N");
  for (int i = 0; i < 6; ++i) {
    Graph g;
    VertexId c1 = g.AddVertex(C);
    VertexId c2 = g.AddVertex(C);
    VertexId o = g.AddVertex(O);
    g.AddEdge(c1, c2);
    g.AddEdge(c2, o);
    g.AddEdge(o, c1);
    if (i % 2 == 0) {  // half also carry a C-N arm
      VertexId n = g.AddVertex(N);
      g.AddEdge(c1, n);
    }
    db.Add(std::move(g));
  }
  return db;
}

TEST(SubtreeMinerTest, FindsFrequentEdges) {
  GraphDatabase db = MakeSmallDb();
  SubtreeMinerOptions options;
  options.min_support = 0.9;
  options.max_edges = 1;
  auto mined = MineFrequentSubtrees(db, options);
  // C-C and C-O occur in all graphs; C-N only in half.
  ASSERT_EQ(mined.size(), 2u);
  for (const auto& fs : mined) {
    EXPECT_EQ(fs.tree.NumEdges(), 1u);
    EXPECT_EQ(fs.support.Count(), 6u);
    EXPECT_DOUBLE_EQ(fs.frequency, 1.0);
  }
}

TEST(SubtreeMinerTest, SupportThresholdFilters) {
  GraphDatabase db = MakeSmallDb();
  SubtreeMinerOptions options;
  options.min_support = 0.4;  // now C-N (50%) qualifies
  options.max_edges = 1;
  auto mined = MineFrequentSubtrees(db, options);
  EXPECT_EQ(mined.size(), 3u);
}

TEST(SubtreeMinerTest, GrowsMultiEdgeTrees) {
  GraphDatabase db = MakeSmallDb();
  SubtreeMinerOptions options;
  options.min_support = 0.9;
  options.max_edges = 2;
  auto mined = MineFrequentSubtrees(db, options);
  const FlatGraphDatabase flat_db = FlatGraphDatabase::Build(db);
  bool has_two_edge = false;
  for (const auto& fs : mined) {
    EXPECT_TRUE(IsTree(fs.tree));
    if (fs.tree.NumEdges() == 2) has_two_edge = true;
    // Support must be honest: re-count from scratch.
    DynamicBitset recount = CountSupport(fs.tree, flat_db);
    EXPECT_EQ(recount.Count(), fs.support.Count());
  }
  EXPECT_TRUE(has_two_edge);
}

TEST(SubtreeMinerTest, CanonicalStringsAreUnique) {
  GraphDatabase db = MakeSmallDb();
  SubtreeMinerOptions options;
  options.min_support = 0.3;
  options.max_edges = 3;
  auto mined = MineFrequentSubtrees(db, options);
  std::set<std::string> canon;
  for (const auto& fs : mined) {
    EXPECT_TRUE(canon.insert(fs.canonical).second)
        << "duplicate subtree " << fs.canonical;
  }
}

TEST(SubtreeMinerTest, AntiMonotoneFrequencies) {
  GraphDatabase db = MakeSmallDb();
  SubtreeMinerOptions options;
  options.min_support = 0.3;
  options.max_edges = 3;
  auto mined = MineFrequentSubtrees(db, options);
  // Every mined subtree with k>1 edges has frequency <= the max frequency
  // of (k-1)-edge subtrees (anti-monotonicity sanity).
  double max_freq_by_size[8] = {0};
  for (const auto& fs : mined) {
    size_t k = fs.tree.NumEdges();
    max_freq_by_size[k] = std::max(max_freq_by_size[k], fs.frequency);
  }
  for (size_t k = 2; k <= 3; ++k) {
    if (max_freq_by_size[k] > 0) {
      EXPECT_LE(max_freq_by_size[k], max_freq_by_size[k - 1] + 1e-12);
    }
  }
}

TEST(SubtreeMinerTest, EmptyInputYieldsNothing) {
  GraphDatabase db;
  SubtreeMinerOptions options;
  EXPECT_TRUE(MineFrequentSubtrees(db, options).empty());
}

TEST(SubgraphMinerTest, FindsTriangle) {
  GraphDatabase db = MakeSmallDb();
  SubgraphMinerOptions options;
  options.min_support = 0.9;
  options.max_edges = 3;
  auto mined = MineFrequentSubgraphs(db, options);
  bool found_triangle = false;
  for (const auto& fs : mined) {
    if (fs.graph.NumEdges() == 3 && fs.graph.NumVertices() == 3) {
      found_triangle = true;
      EXPECT_EQ(fs.support.Count(), 6u);
    }
  }
  EXPECT_TRUE(found_triangle) << "cycle extension must discover triangles";
}

TEST(SubgraphMinerTest, SupportsAreHonest) {
  GraphDatabase db = MakeSmallDb();
  SubgraphMinerOptions options;
  options.min_support = 0.4;
  options.max_edges = 3;
  for (const auto& fs : MineFrequentSubgraphs(db, options)) {
    size_t count = 0;
    for (const Graph& g : db.graphs()) {
      if (ContainsSubgraph(fs.graph, g)) ++count;
    }
    EXPECT_EQ(count, fs.support.Count());
  }
}

TEST(SubgraphMinerTest, PatternSetRespectsBudget) {
  GraphDatabase db = MakeSmallDb();
  SubgraphMinerOptions options;
  options.min_support = 0.3;
  options.max_edges = 4;
  auto mined = MineFrequentSubgraphs(db, options);
  std::vector<Graph> set = FrequentSubgraphPatternSet(mined, 6, 1, 4);
  EXPECT_LE(set.size(), 6u);
  for (const Graph& p : set) {
    EXPECT_GE(p.NumEdges(), 1u);
    EXPECT_LE(p.NumEdges(), 4u);
  }
}

TEST(FrequentEdgesTest, RankingIsDescending) {
  GraphDatabase db = MakeSmallDb();
  auto ranked = RankEdgesBySupport(BuildEdgeLabelIndex(db, AllGraphIds(db)));
  ASSERT_GE(ranked.size(), 2u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].support, ranked[i].support);
  }
}

TEST(FrequentEdgesTest, SupportCountsGraphsNotEdges) {
  GraphDatabase db;
  // Two edges with the same key in one graph must count once.
  Graph g;
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddVertex(1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  db.Add(std::move(g));
  Graph path;  // labels (1,1): a different key
  path.AddVertex(1);
  path.AddVertex(1);
  path.AddEdge(0, 1);
  db.Add(std::move(path));
  const std::vector<RankedEdge> ranked =
      RankEdgesBySupport(BuildEdgeLabelIndex(db, AllGraphIds(db)));
  ASSERT_EQ(ranked.size(), 2u);
  // Equal supports rank by key.
  EXPECT_EQ(ranked[0].key, MakeEdgeLabelKey(1, 1));
  EXPECT_EQ(ranked[0].support, 1u);
  EXPECT_EQ(ranked[1].key, MakeEdgeLabelKey(1, 2));
  EXPECT_EQ(ranked[1].support, 1u);
}

TEST(FrequentEdgesTest, TopPatternsAreEdges) {
  GraphDatabase db = MakeSmallDb();
  auto patterns = TopFrequentEdgePatterns(db, 2);
  ASSERT_EQ(patterns.size(), 2u);
  for (const Graph& p : patterns) {
    EXPECT_EQ(p.NumVertices(), 2u);
    EXPECT_EQ(p.NumEdges(), 1u);
  }
}

TEST(FrequentEdgesTest, BasicPatternsIncludePaths) {
  GraphDatabase db = MakeSmallDb();
  auto basics = TopBasicPatterns(db, 10);
  EXPECT_FALSE(basics.empty());
  bool has_two_path = false;
  for (const Graph& p : basics) {
    EXPECT_LE(p.NumEdges(), 2u);
    if (p.NumEdges() == 2) has_two_path = true;
  }
  EXPECT_TRUE(has_two_path);
}

TEST(MinerIntegrationTest, MoleculeDatabaseMinesCleanly) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 60;
  gen.seed = 5;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  SubtreeMinerOptions options;
  options.min_support = 0.3;
  options.max_edges = 2;
  auto mined = MineFrequentSubtrees(db, options);
  EXPECT_FALSE(mined.empty());
  for (const auto& fs : mined) {
    EXPECT_GE(fs.frequency, 0.3);
    EXPECT_TRUE(IsTree(fs.tree));
  }
}

}  // namespace
}  // namespace catapult
