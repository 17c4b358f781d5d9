#include "src/search/search_engine.h"

#include <gtest/gtest.h>

#include "src/data/molecule_generator.h"
#include "src/data/query_generator.h"
#include "src/graph/algorithms.h"

namespace catapult {
namespace {

GraphDatabase SmallDb(size_t n = 60, uint64_t seed = 9) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = n;
  gen.min_vertices = 8;
  gen.max_vertices = 18;
  gen.seed = seed;
  return GenerateMoleculeDatabase(gen);
}

// Brute-force reference.
std::vector<GraphId> BruteForce(const GraphDatabase& db, const Graph& q) {
  std::vector<GraphId> out;
  for (GraphId i = 0; i < db.size(); ++i) {
    if (ContainsSubgraph(q, db.graph(i))) out.push_back(i);
  }
  return out;
}

TEST(SearchEngineTest, MatchesBruteForce) {
  GraphDatabase db = SmallDb();
  SubgraphSearchEngine engine(db);
  QueryWorkloadOptions wl;
  wl.count = 25;
  wl.min_edges = 2;
  wl.max_edges = 8;
  wl.seed = 3;
  for (const Graph& q : GenerateQueryWorkload(db, wl)) {
    EXPECT_EQ(engine.Search(q), BruteForce(db, q));
  }
}

TEST(SearchEngineTest, FilterIsSound) {
  GraphDatabase db = SmallDb();
  SubgraphSearchEngine engine(db);
  QueryWorkloadOptions wl;
  wl.count = 15;
  wl.min_edges = 3;
  wl.max_edges = 10;
  wl.seed = 4;
  for (const Graph& q : GenerateQueryWorkload(db, wl)) {
    DynamicBitset candidates = engine.FilterCandidates(q);
    for (GraphId id : BruteForce(db, q)) {
      EXPECT_TRUE(candidates.Test(id))
          << "filter dropped a true match for " << q.DebugString();
    }
  }
}

TEST(SearchEngineTest, FilterPrunes) {
  GraphDatabase db = SmallDb(120, 10);
  SubgraphSearchEngine engine(db);
  // A query with a rare label pair should prune aggressively.
  Rng rng(5);
  Graph q = RandomConnectedSubgraph(db.graph(0), 8, rng);
  DynamicBitset candidates = engine.FilterCandidates(q);
  EXPECT_LT(candidates.Count(), db.size());
}

TEST(SearchEngineTest, UnknownLabelMeansNoMatches) {
  GraphDatabase db = SmallDb();
  SubgraphSearchEngine engine(db);
  Graph q;
  q.AddVertex(9999);
  q.AddVertex(9999);
  q.AddEdge(0, 1);
  EXPECT_TRUE(engine.Search(q).empty());
  EXPECT_TRUE(engine.FilterCandidates(q).None());
}

TEST(SearchEngineTest, EmptyDatabase) {
  GraphDatabase db;
  SubgraphSearchEngine engine(db);
  Graph q;
  q.AddVertex(0);
  EXPECT_TRUE(engine.Search(q).empty());
}

}  // namespace
}  // namespace catapult
