#include "src/core/maintenance.h"

#include <gtest/gtest.h>

#include <set>

#include "src/data/molecule_generator.h"
#include "src/iso/vf2.h"

namespace catapult {
namespace {

CatapultOptions FastOptions() {
  CatapultOptions options;
  options.selector.budget = {.eta_min = 3, .eta_max = 5, .gamma = 6};
  options.selector.walks_per_candidate = 8;
  options.clustering.max_cluster_size = 12;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 7;
  return options;
}

TEST(MaintenanceTest, AppendsGraphsAndPartitionStaysValid) {
  GraphDatabase db = GenerateMoleculeDatabase(
      {.num_graphs = 50, .scaffold_families = 4, .seed = 61});
  CatapultResult previous = RunCatapult(db, FastOptions());

  // New arrivals from the same generator (same label universe).
  GraphDatabase arrivals_db = GenerateMoleculeDatabase(
      {.num_graphs = 12, .scaffold_families = 4, .seed = 62});
  std::vector<Graph> arrivals(arrivals_db.graphs().begin(),
                              arrivals_db.graphs().end());

  MaintenanceOptions options;
  options.selector = FastOptions().selector;
  GraphDatabase updated;
  MaintenanceResult result =
      UpdateWithNewGraphs(db, previous, arrivals, options, &updated);

  EXPECT_EQ(updated.size(), 62u);
  // Old ids preserved.
  for (GraphId i = 0; i < db.size(); ++i) {
    EXPECT_EQ(updated.graph(i).NumVertices(), db.graph(i).NumVertices());
  }
  // Clusters partition the updated database.
  std::set<GraphId> seen;
  for (const auto& cluster : result.corpus.clusters) {
    for (GraphId id : cluster) {
      EXPECT_TRUE(seen.insert(id).second);
      EXPECT_LT(id, updated.size());
    }
  }
  EXPECT_EQ(seen.size(), updated.size());
  EXPECT_EQ(result.corpus.csgs.size(), result.corpus.clusters.size());
  EXPECT_EQ(result.patterns_kept + result.patterns_changed,
            result.selection.patterns.size());
}

TEST(MaintenanceTest, SimilarArrivalsJoinExistingClusters) {
  GraphDatabase db = GenerateMoleculeDatabase(
      {.num_graphs = 40, .scaffold_families = 2, .seed = 63});
  CatapultResult previous = RunCatapult(db, FastOptions());
  GraphDatabase arrivals_db = GenerateMoleculeDatabase(
      {.num_graphs = 8, .scaffold_families = 2, .seed = 64});
  std::vector<Graph> arrivals(arrivals_db.graphs().begin(),
                              arrivals_db.graphs().end());
  MaintenanceOptions options;
  options.selector = FastOptions().selector;
  GraphDatabase updated;
  MaintenanceResult result =
      UpdateWithNewGraphs(db, previous, arrivals, options, &updated);
  // Same two families: most arrivals should slot into existing clusters.
  EXPECT_LE(result.new_clusters, 2u);
}

TEST(MaintenanceTest, AlienArrivalsSeedNewClusters) {
  GraphDatabase db = GenerateMoleculeDatabase(
      {.num_graphs = 30, .scaffold_families = 1, .seed = 65});
  CatapultResult previous = RunCatapult(db, FastOptions());
  // Arrivals with labels the old data never used (fresh label ids).
  std::vector<Graph> arrivals;
  Label alien = 1000;
  for (int i = 0; i < 3; ++i) {
    Graph g;
    for (int v = 0; v < 5; ++v) g.AddVertex(alien);
    for (int v = 0; v + 1 < 5; ++v) {
      g.AddEdge(static_cast<VertexId>(v), static_cast<VertexId>(v + 1));
    }
    arrivals.push_back(std::move(g));
  }
  MaintenanceOptions options;
  options.selector = FastOptions().selector;
  GraphDatabase updated;
  MaintenanceResult result =
      UpdateWithNewGraphs(db, previous, arrivals, options, &updated);
  EXPECT_GE(result.new_clusters, 1u);
}

TEST(MaintenanceTest, NoArrivalsKeepsPanelStable) {
  GraphDatabase db = GenerateMoleculeDatabase(
      {.num_graphs = 40, .scaffold_families = 3, .seed = 66});
  CatapultOptions run_options = FastOptions();
  CatapultResult previous = RunCatapult(db, run_options);
  MaintenanceOptions options;
  options.selector = run_options.selector;
  GraphDatabase updated;
  MaintenanceResult result =
      UpdateWithNewGraphs(db, previous, {}, options, &updated);
  EXPECT_EQ(result.new_clusters, 0u);
  EXPECT_EQ(updated.size(), db.size());
  // Clusters are untouched.
  ASSERT_EQ(result.corpus.clusters.size(), previous.clusters.size());
  for (size_t c = 0; c < result.corpus.clusters.size(); ++c) {
    EXPECT_EQ(result.corpus.clusters[c], previous.clusters[c]);
  }
  // The update itself is deterministic: running it again reproduces the
  // panel exactly. (The panel may differ from `previous` because selection
  // is re-seeded; what matters operationally is a stable, reproducible
  // update.)
  GraphDatabase updated2;
  MaintenanceResult again =
      UpdateWithNewGraphs(db, previous, {}, options, &updated2);
  ASSERT_EQ(again.selection.patterns.size(),
            result.selection.patterns.size());
  for (size_t i = 0; i < again.selection.patterns.size(); ++i) {
    EXPECT_TRUE(AreIsomorphic(again.selection.patterns[i].graph,
                              result.selection.patterns[i].graph));
  }
}

TEST(MaintenanceTest, ClusterCapRespected) {
  GraphDatabase db = GenerateMoleculeDatabase(
      {.num_graphs = 30, .scaffold_families = 1, .seed = 67});
  CatapultResult previous = RunCatapult(db, FastOptions());
  GraphDatabase arrivals_db = GenerateMoleculeDatabase(
      {.num_graphs = 30, .scaffold_families = 1, .seed = 68});
  std::vector<Graph> arrivals(arrivals_db.graphs().begin(),
                              arrivals_db.graphs().end());
  MaintenanceOptions options;
  options.selector = FastOptions().selector;
  options.max_cluster_size = 15;
  GraphDatabase updated;
  MaintenanceResult result =
      UpdateWithNewGraphs(db, previous, arrivals, options, &updated);
  for (const auto& cluster : result.corpus.clusters) {
    EXPECT_LE(cluster.size(), 16u);  // cap + the member that tripped it
  }
}

}  // namespace
}  // namespace catapult
