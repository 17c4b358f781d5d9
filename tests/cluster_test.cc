#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/cluster/facility_location.h"
#include "src/cluster/fine_clustering.h"
#include "src/cluster/kmeans.h"
#include "src/cluster/pipeline.h"
#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/iso/vf2.h"
#include "src/obs/metrics.h"
#include "src/tree/canonical.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"

namespace catapult {
namespace {

DynamicBitset Bits(size_t n, std::initializer_list<size_t> set) {
  DynamicBitset b(n);
  for (size_t i : set) b.Set(i);
  return b;
}

TEST(KMeansTest, SeparatesObviousClusters) {
  // Two well-separated groups in 4 dimensions.
  std::vector<DynamicBitset> points;
  for (int i = 0; i < 5; ++i) points.push_back(Bits(4, {0, 1}));
  for (int i = 0; i < 5; ++i) points.push_back(Bits(4, {2, 3}));
  KMeansOptions options;
  options.k = 2;
  Rng rng(17);
  KMeansResult result = KMeansCluster(points, options, rng);
  ASSERT_EQ(result.assignment.size(), 10u);
  // All of the first five share a cluster, all of the last five the other.
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(result.assignment[static_cast<size_t>(i)],
              result.assignment[0]);
  }
  for (int i = 6; i < 10; ++i) {
    EXPECT_EQ(result.assignment[static_cast<size_t>(i)],
              result.assignment[5]);
  }
  EXPECT_NE(result.assignment[0], result.assignment[5]);
  EXPECT_DOUBLE_EQ(result.inertia, 0.0);
}

TEST(KMeansTest, KLargerThanPoints) {
  std::vector<DynamicBitset> points = {Bits(2, {0}), Bits(2, {1})};
  KMeansOptions options;
  options.k = 10;
  Rng rng(3);
  KMeansResult result = KMeansCluster(points, options, rng);
  EXPECT_EQ(result.assignment.size(), 2u);
}

TEST(KMeansTest, Deterministic) {
  std::vector<DynamicBitset> points;
  Rng data_rng(5);
  for (int i = 0; i < 30; ++i) {
    DynamicBitset b(8);
    for (size_t d = 0; d < 8; ++d) {
      if (data_rng.Bernoulli(0.4)) b.Set(d);
    }
    points.push_back(std::move(b));
  }
  KMeansOptions options;
  options.k = 4;
  Rng rng1(9);
  Rng rng2(9);
  EXPECT_EQ(KMeansCluster(points, options, rng1).assignment,
            KMeansCluster(points, options, rng2).assignment);
}

TEST(FacilityLocationTest, SelectsDiverseRepresentatives) {
  // Three pairs of near-duplicate subtrees; selection should hit all three
  // families before duplicating one.
  auto MakeSubtree = [](std::vector<Label> labels) {
    FrequentSubtree fs;
    for (Label l : labels) fs.tree.AddVertex(l);
    for (size_t i = 0; i + 1 < labels.size(); ++i) {
      fs.tree.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
    }
    fs.canonical = CanonicalTreeString(fs.tree);
    return fs;
  };
  std::vector<FrequentSubtree> subtrees;
  subtrees.push_back(MakeSubtree({0, 0, 0}));
  subtrees.push_back(MakeSubtree({0, 0, 0, 0}));
  subtrees.push_back(MakeSubtree({1, 1, 1}));
  subtrees.push_back(MakeSubtree({1, 1, 1, 1}));
  subtrees.push_back(MakeSubtree({2, 2}));
  subtrees.push_back(MakeSubtree({2, 2, 2}));
  FacilitySelectionOptions options;
  options.max_selected = 3;
  std::vector<size_t> selected =
      SelectRepresentativeSubtrees(subtrees, options);
  ASSERT_EQ(selected.size(), 3u);
  // All selections distinct, and (since coverage of a family saturates
  // after one pick) at least two label families must be represented.
  std::set<size_t> distinct(selected.begin(), selected.end());
  EXPECT_EQ(distinct.size(), 3u);
  std::set<Label> families;
  for (size_t idx : selected) {
    families.insert(subtrees[idx].tree.VertexLabel(0));
  }
  EXPECT_GE(families.size(), 2u);
}

TEST(FacilityLocationTest, EmptyInput) {
  FacilitySelectionOptions options;
  EXPECT_TRUE(SelectRepresentativeSubtrees({}, options).empty());
}

// A generated corpus with edge labels: the molecule generator emits
// unlabelled bonds, so every edge gets a deterministic label in {0, 1, 2}.
GraphDatabase EdgeLabelledCorpus() {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 40;
  gen.max_vertices = 14;
  gen.seed = 23;
  const GraphDatabase plain = GenerateMoleculeDatabase(gen);
  GraphDatabase db;
  db.labels() = plain.labels();
  for (GraphId id = 0; id < plain.size(); ++id) {
    const Graph& g = plain.graph(id);
    Graph labelled;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      labelled.AddVertex(g.VertexLabel(v));
    }
    for (const Edge& e : g.EdgeList()) {
      labelled.AddEdge(e.u, e.v, static_cast<Label>((e.u + e.v + id) % 3));
    }
    db.Add(std::move(labelled));
  }
  return db;
}

// The coarse stage's feature matrix is the transpose of the mined support
// sets, so it rests on this invariant: bit i of a subtree's support is set
// iff the i-th graph of the mined id list contains the subtree. Checked for
// the miner and for the features the coarse stage selects, unsampled and
// sampled, over the whole database and over a strict subset of ids.
TEST(CoarseStageTest, SupportBitsMatchContainment) {
  const GraphDatabase db = EdgeLabelledCorpus();
  std::vector<GraphId> all(db.size());
  for (GraphId i = 0; i < db.size(); ++i) all[i] = i;
  std::vector<GraphId> subset;
  for (GraphId i = 1; i < db.size(); i += 3) subset.push_back(i);
  SmallGraphClusteringOptions options;
  options.max_cluster_size = 8;
  EagerSamplingOptions eager;
  eager.epsilon = 0.3;  // a 30-graph eager sample

  auto expect_bits_match = [&db](const std::vector<FrequentSubtree>& trees,
                                 const std::vector<GraphId>& ids) {
    for (const FrequentSubtree& fs : trees) {
      ASSERT_EQ(fs.support.size(), ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(fs.support.Test(i),
                  ContainsSubgraph(fs.tree, db.graph(ids[i])))
            << fs.canonical << " vs graph " << ids[i];
      }
    }
  };
  for (const std::vector<GraphId>* ids : {&all, &subset}) {
    const std::vector<FrequentSubtree> mined =
        MineFrequentSubtrees(db, *ids, options.miner);
    size_t max_edges = 0;
    for (const FrequentSubtree& fs : mined) {
      max_edges = std::max(max_edges, fs.tree.NumEdges());
    }
    EXPECT_GE(max_edges, 2u);
    expect_bits_match(mined, *ids);
    const EagerSamplingOptions* mining_steps[] = {nullptr, &eager};
    for (const EagerSamplingOptions* sampling : mining_steps) {
      Rng rng(5);
      const ClusteringResult coarse = CoarseClusteringStage(
          db, *ids, options, rng, RunContext::NoLimit(), sampling);
      ASSERT_FALSE(coarse.features.empty());
      expect_bits_match(coarse.features, *ids);
    }
  }
}

TEST(FineClusteringTest, SplitsOversizedClusters) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 40;
  gen.seed = 77;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  FineClusteringOptions options;
  options.max_cluster_size = 10;
  options.mcs.node_budget = 3000;
  Rng rng(1);
  auto clusters =
      FineCluster(db, {AllGraphIds(db)}, SplitFineStreams(rng, 1), options);
  size_t total = 0;
  for (const auto& c : clusters) {
    EXPECT_LE(c.size(), 10u);
    EXPECT_FALSE(c.empty());
    total += c.size();
  }
  EXPECT_EQ(total, 40u);  // partition: nothing lost or duplicated
  std::set<GraphId> seen;
  for (const auto& c : clusters) {
    for (GraphId id : c) EXPECT_TRUE(seen.insert(id).second);
  }
}

TEST(FineClusteringTest, SmallClustersUntouched) {
  GraphDatabase db = GenerateMoleculeDatabase(
      {.num_graphs = 8, .seed = 3});
  std::vector<GraphId> cluster = {0, 1, 2};
  FineClusteringOptions options;
  options.max_cluster_size = 5;
  Rng rng(2);
  auto clusters =
      FineCluster(db, {cluster}, SplitFineStreams(rng, 1), options);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], cluster);
}

// A coarse partition with three oversized clusters (ids interleaved mod 3),
// one small cluster and one empty one, for max_cluster_size 6.
struct FinePartition {
  GraphDatabase db;
  std::vector<std::vector<GraphId>> coarse;
  std::vector<RngState> streams;
  FineClusteringOptions options;
};

FinePartition MakeFinePartition() {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 58;
  gen.min_vertices = 8;
  gen.max_vertices = 14;
  gen.seed = 41;
  FinePartition f{GenerateMoleculeDatabase(gen), {}, {}, {}};
  f.coarse.assign(3, {});
  for (GraphId g = 0; g < 54; ++g) f.coarse[g % 3].push_back(g);
  f.coarse.push_back({54, 55, 56, 57});
  f.coarse.push_back({});
  Rng rng(9);
  f.streams = SplitFineStreams(rng, f.coarse.size());
  f.options.max_cluster_size = 6;
  f.options.mcs.node_budget = 2000;
  return f;
}

// The fine-clustering work counters of one run.
std::vector<uint64_t> FineCounts(const obs::MetricsRegistry& registry) {
  const obs::MetricsSnapshot snap = registry.Snapshot();
  return {snap.counter(obs::Counter::kMcsCalls),
          snap.counter(obs::Counter::kMcsNodes),
          snap.counter(obs::Counter::kMcsBudgetExhausted),
          snap.counter(obs::Counter::kFineSplitRounds)};
}

TEST(FineClusteringTest, LockstepRoundsEqualOneClusterCalls) {
  const FinePartition f = MakeFinePartition();
  for (size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    obs::MetricsRegistry all_registry;
    bool all_complete = false;
    std::vector<std::vector<GraphId>> all;
    {
      obs::ScopedMetricsScope scope(&all_registry);
      all = FineCluster(f.db, f.coarse, f.streams, f.options,
                        RunContext::NoLimit().WithPool(&pool).WithObservability(
                            &all_registry, nullptr),
                        &all_complete);
    }
    EXPECT_TRUE(all_complete);

    // The sharded unit: one cluster per call, results concatenated in
    // cluster order.
    obs::MetricsRegistry one_registry;
    std::vector<std::vector<GraphId>> concatenated;
    {
      obs::ScopedMetricsScope scope(&one_registry);
      const RunContext ctx = RunContext::NoLimit().WithPool(&pool)
                                 .WithObservability(&one_registry, nullptr);
      for (size_t c = 0; c < f.coarse.size(); ++c) {
        bool complete = false;
        for (auto& part : FineCluster(f.db, {f.coarse[c]}, {f.streams[c]},
                                      f.options, ctx, &complete)) {
          concatenated.push_back(std::move(part));
        }
        EXPECT_TRUE(complete);
      }
    }
    EXPECT_EQ(all, concatenated) << threads << " threads";
    const std::vector<uint64_t> counts = FineCounts(all_registry);
    EXPECT_EQ(counts, FineCounts(one_registry)) << threads << " threads";
    EXPECT_GT(counts[0], 0u);
    // Every oversized cluster needs more than one level of splits here.
    EXPECT_GT(counts[3], 3u);

    for (const auto& part : all) EXPECT_LE(part.size(), 6u);
    EXPECT_EQ(all.back(), f.coarse[3]);  // the small cluster, untouched
  }
}

TEST(FineClusteringTest, StopAtTheFirstPollReturnsEveryClusterUnsplit) {
  const FinePartition f = MakeFinePartition();
  for (size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    obs::MetricsRegistry registry;
    failpoint::ScopedFailpoint stop("cluster.fine.split");
    bool complete = true;
    std::vector<std::vector<GraphId>> clusters;
    {
      obs::ScopedMetricsScope scope(&registry);
      clusters = FineCluster(
          f.db, f.coarse, f.streams, f.options,
          RunContext::NoLimit().WithPool(&pool).WithObservability(&registry,
                                                                  nullptr),
          &complete);
    }
    EXPECT_FALSE(complete);
    // One poll stops every cluster: the oversized ones come back unsplit
    // in cluster order, the small one untouched, the empty one dropped.
    EXPECT_EQ(failpoint::HitCount("cluster.fine.split"), 1u);
    const std::vector<std::vector<GraphId>> expected(f.coarse.begin(),
                                                     f.coarse.end() - 1);
    EXPECT_EQ(clusters, expected) << threads << " threads";
    EXPECT_EQ(registry.Snapshot().counter(obs::Counter::kMcsCalls), 0u);
  }
}

TEST(PipelineTest, HybridPartitionsDatabase) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 60;
  gen.seed = 11;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  CatapultOptions options;
  options.clustering.max_cluster_size = 15;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 4;
  const PreparedCorpus corpus =
      PrepareCorpus(db, options, RunContext::NoLimit());
  ASSERT_TRUE(corpus.Complete());
  size_t total = 0;
  std::set<GraphId> seen;
  for (const auto& c : corpus.clusters) {
    EXPECT_LE(c.size(), 15u);
    total += c.size();
    for (GraphId id : c) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(total, 60u);
  EXPECT_EQ(corpus.csgs.size(), corpus.clusters.size());
}

TEST(PipelineTest, CoarseOnlyMayKeepLargeClusters) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 60;
  gen.seed = 11;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  CatapultOptions options;
  options.clustering.mode = ClusteringMode::kCoarseOnly;
  options.clustering.max_cluster_size = 15;
  options.seed = 4;
  const PreparedCorpus corpus =
      PrepareCorpus(db, options, RunContext::NoLimit());
  size_t total = 0;
  for (const auto& c : corpus.clusters) total += c.size();
  EXPECT_EQ(total, 60u);
}

TEST(PipelineTest, FineOnlySkipsMining) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 30;
  gen.seed = 12;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  CatapultOptions options;
  options.clustering.mode = ClusteringMode::kFineOnly;
  options.clustering.max_cluster_size = 10;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 4;
  const PreparedCorpus corpus =
      PrepareCorpus(db, options, RunContext::NoLimit());
  EXPECT_TRUE(corpus.features.empty());
  size_t total = 0;
  for (const auto& c : corpus.clusters) {
    EXPECT_LE(c.size(), 10u);
    total += c.size();
  }
  EXPECT_EQ(total, 30u);
}

}  // namespace
}  // namespace catapult
