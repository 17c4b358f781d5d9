// Pinned reference output of the whole pipeline. Every other identity test
// in the suite is relative — N threads against 1, P processes against 1,
// served against one-shot — so a change to the output shared by every mode
// would pass all of them. This table, in the style of FAM's
// bfs_reference_output, fixes what RunCatapult produces on a few generated
// corpora: a digest of each panel's pattern graphs (structure and labels,
// not scores) and of the cluster partition the panel was selected from.
// Modes cover the clustering variants and the selector's oracles: greedy
// BFS candidates, the bipartite diversity oracle, and a GED node budget
// that truncates diversity calls inside the class memo.
//
// A second table pins the corpus steps on their own, including the ones no
// panel above passes through: both frequent-pattern miners (the Exp 9
// baseline and the clustering features, on all graphs and on a subset),
// the CSG closure, the closure mapping incremental maintenance scores
// arrivals with, and a maintenance step. It was recorded before the two
// miners' growth loops, the two closure mappings and the labelled-edge
// posting loops were each merged into one.
//
// A third table pins the path the benches and examples take: one
// PrepareCorpus, then FindCannedPatternSet on the corpus under a selection
// stream of their own. It was recorded when they still clustered, folded
// and indexed by hand, so it shows that PrepareCorpus hands them the same
// corpus. A fourth pins the deadline fallback's path patterns.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/catapult.h"
#include "src/core/maintenance.h"
#include "src/data/molecule_generator.h"
#include "src/iso/ged.h"
#include "src/mining/frequent_edges.h"
#include "src/mining/subgraph_miner.h"
#include "src/mining/subtree_miner.h"
#include "src/util/thread_pool.h"

namespace catapult {
namespace {

// FNV-1a 64 over a stream of integers.
struct Digest {
  uint64_t hash = 0xCBF29CE484222325ULL;
  void Mix(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ ((value >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void Mix(const Graph& g) {
    Mix(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) Mix(g.VertexLabel(v));
    Mix(g.NumEdges());
    for (const Edge& e : g.EdgeList()) {
      for (uint64_t x : {e.u, e.v, e.label}) Mix(x);
    }
  }
  void Mix(const DynamicBitset& bits) {
    Mix(bits.size());
    for (size_t i : bits.ToIndices()) Mix(i);
  }
  void Mix(const std::string& text) {
    Mix(text.size());
    for (char c : text) Mix(static_cast<unsigned char>(c));
  }
};

uint64_t PanelDigest(const SelectionResult& selection) {
  Digest d;
  d.Mix(selection.patterns.size());
  for (const SelectedPattern& p : selection.patterns) d.Mix(p.graph);
  return d.hash;
}

uint64_t PartitionDigest(const std::vector<std::vector<GraphId>>& clusters) {
  Digest d;
  d.Mix(clusters.size());
  for (const std::vector<GraphId>& cluster : clusters) {
    d.Mix(cluster.size());
    for (GraphId id : cluster) d.Mix(id);
  }
  return d.hash;
}

GraphDatabase Corpus(const std::string& name) {
  MoleculeGeneratorOptions gen;
  gen.min_vertices = 8;
  if (name == "mol60") {
    gen.num_graphs = 60;
    gen.max_vertices = 16;
    gen.seed = 31;
  } else if (name == "mol90") {  // more families and labels
    gen.num_graphs = 90;
    gen.max_vertices = 18;
    gen.scaffold_families = 12;
    gen.alphabet_size = 12;
    gen.seed = 7;
  } else {
    gen.num_graphs = 120;
    gen.max_vertices = 14;
    gen.scaffold_families = 9;
    gen.seed = 5;
  }
  return GenerateMoleculeDatabase(gen);
}

constexpr uint64_t kTruncatingGedBudget = 60;

CatapultOptions Options(const std::string& mode) {
  CatapultOptions options;
  options.selector.budget.eta_min = 3;
  options.selector.budget.eta_max = 6;
  options.selector.budget.gamma = 6;
  options.selector.walks_per_candidate = 8;
  options.clustering.max_cluster_size = 12;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 99;
  if (mode == "sampled") {
    // Parameters at which both samplers bite on a corpus this small: the
    // eager sample holds 67 graphs and clusters above 10 graphs are thinned.
    options.use_sampling = true;
    options.eager.epsilon = 0.2;
    options.lazy.e = 0.3;
    options.lazy.min_cluster_size_to_sample = 10;
  } else if (mode == "coarse") {
    options.clustering.mode = ClusteringMode::kCoarseOnly;
  } else if (mode == "greedy") {
    options.selector.strategy = CandidateStrategy::kGreedyBfs;
  } else if (mode == "approx") {
    options.selector.approximate_diversity = true;
  } else if (mode == "ged") {
    // Small enough that diversity GED calls inside the memo truncate.
    options.selector.ged.node_budget = kTruncatingGedBudget;
  }
  return options;
}

// Panel pairs whose GED under `ged` comes back truncated (exact == false),
// oriented as the selector scores them: later pick against earlier one.
size_t TruncatedPanelGeds(const SelectionResult& selection,
                          const GedOptions& ged) {
  size_t truncated = 0;
  const std::vector<SelectedPattern>& panel = selection.patterns;
  for (size_t j = 0; j < panel.size(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      if (!GraphEditDistance(panel[j].graph, panel[i].graph, ged).exact) {
        ++truncated;
      }
    }
  }
  return truncated;
}

// (corpus, mode) -> (panel digest, partition digest).
const std::map<std::pair<std::string, std::string>,
               std::pair<uint64_t, uint64_t>>
    kPipelineReferenceOutput{
        {{"mol60", "default"}, {14638693217481143329u, 6264786427488051786u}},
        {{"mol60", "sampled"}, {1933315995838465287u, 12596884518328443420u}},
        {{"mol60", "coarse"}, {14955864426841411424u, 8683521835092487470u}},
        {{"mol90", "default"}, {8067231906335259234u, 9854151243371046308u}},
        {{"mol90", "sampled"}, {10384665580097023470u, 3239004285441105880u}},
        {{"mol90", "coarse"}, {17229364895065637825u, 3723195619056441873u}},
        {{"mol120", "default"}, {9317203226189384418u, 6734182730810212095u}},
        {{"mol120", "sampled"}, {2461616585667751042u, 5186588768965044283u}},
        {{"mol120", "coarse"}, {14951244314900370753u, 2267434525708865470u}},
        {{"mol60", "greedy"}, {6760471297478480004u, 6264786427488051786u}},
        {{"mol60", "approx"}, {12753779212367839811u, 6264786427488051786u}},
        {{"mol60", "ged"}, {7495152902947422625u, 6264786427488051786u}},
        {{"mol90", "greedy"}, {1004383197971255522u, 9854151243371046308u}},
        {{"mol90", "approx"}, {15230677068941728932u, 9854151243371046308u}},
        {{"mol90", "ged"}, {8018890072558125218u, 9854151243371046308u}},
        {{"mol120", "greedy"}, {4060642868476227456u, 6734182730810212095u}},
        {{"mol120", "approx"}, {689296838885819008u, 6734182730810212095u}},
        {{"mol120", "ged"}, {13072458746576453376u, 6734182730810212095u}},
    };

TEST(PipelineReferenceTest, PanelsAndPartitionsMatchPinnedDigests) {
  std::map<std::string, GraphDatabase> corpora;
  for (const auto& [key, expected] : kPipelineReferenceOutput) {
    const auto& [corpus, mode] = key;
    if (corpora.count(corpus) == 0) corpora.emplace(corpus, Corpus(corpus));
    const CatapultResult result =
        RunCatapult(corpora.at(corpus), Options(mode));
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.execution.Degraded()) << corpus << "/" << mode;
    EXPECT_EQ(PanelDigest(result.selection), expected.first)
        << corpus << "/" << mode << " panel";
    EXPECT_EQ(PartitionDigest(result.clusters), expected.second)
        << corpus << "/" << mode << " partition";
    if (mode == "ged") {
      EXPECT_GT(TruncatedPanelGeds(result.selection, Options(mode).selector.ged),
                0u)
          << corpus << "/" << mode;
    }
  }
}

// Digests of the corpus steps on one corpus (see the file comment).
struct CorpusStepDigests {
  uint64_t subgraphs;       // MineFrequentSubgraphs: graphs, supports
  uint64_t subgraph_set;    // FrequentSubgraphPatternSet of those
  uint64_t subtrees_all;    // MineFrequentSubtrees, every graph id
  uint64_t subtrees_third;  // MineFrequentSubtrees, ids 0, 3, 6, ...
  uint64_t csgs;            // BuildCsgs on the RunCatapult partition
  uint64_t affinities;      // MappedEdgeFraction, arrivals x summaries
  uint64_t maintenance;     // UpdateWithNewGraphs: partition, panel
};

const std::map<std::string, CorpusStepDigests> kCorpusStepReferenceOutput{
    {"mol60",
     {3790983716561303638u, 12038850671489033893u, 13110136309981618233u,
      8030223769703119464u, 6125065358966110189u, 11745082054705555972u,
      8864903510014812982u}},
    {"mol90",
     {14078035688167816953u, 8018358701950815749u, 15953343965875507757u,
      9954830110239581594u, 6083983835578606417u, 4059103218922339692u,
      11123131791912803545u}},
    {"mol120",
     {11257350779361477450u, 1393894872794991780u, 5180047189906399351u,
      9725536253493658638u, 6031134117268328430u, 5322269526458516900u,
      16711839889568158465u}},
};

constexpr size_t kArrivals = 30;

uint64_t SubtreeDigest(const std::vector<FrequentSubtree>& mined) {
  Digest d;
  d.Mix(mined.size());
  for (const FrequentSubtree& fs : mined) {
    d.Mix(fs.tree);
    d.Mix(fs.canonical);
    d.Mix(fs.support);
  }
  return d.hash;
}

CorpusStepDigests CorpusSteps(const std::string& corpus,
                              const GraphDatabase& db) {
  CorpusStepDigests out{};
  SubgraphMinerOptions subgraph_options;
  subgraph_options.min_support = 0.15;
  subgraph_options.max_edges = 5;
  subgraph_options.max_candidates_per_level = 300;
  const std::vector<FrequentSubgraph> subgraphs =
      MineFrequentSubgraphs(db, subgraph_options);
  Digest mined;
  mined.Mix(subgraphs.size());
  for (const FrequentSubgraph& fs : subgraphs) {
    mined.Mix(fs.graph);
    mined.Mix(fs.support);
  }
  out.subgraphs = mined.hash;
  Digest set;
  for (const Graph& p : FrequentSubgraphPatternSet(subgraphs, 12, 2, 5)) {
    set.Mix(p);
  }
  out.subgraph_set = set.hash;

  SubtreeMinerOptions subtree_options;
  subtree_options.min_support = 0.1;
  std::vector<GraphId> all, third;
  for (GraphId i = 0; i < db.size(); ++i) {
    all.push_back(i);
    if (i % 3 == 0) third.push_back(i);
  }
  out.subtrees_all =
      SubtreeDigest(MineFrequentSubtrees(db, all, subtree_options));
  out.subtrees_third =
      SubtreeDigest(MineFrequentSubtrees(db, third, subtree_options));

  // The summaries fold on four threads whatever the environment says.
  const CatapultOptions options = Options("default");
  const CatapultResult previous = RunCatapult(db, options);
  EXPECT_TRUE(previous.ok()) << corpus;
  ThreadPool pool(4);
  const std::vector<ClusterSummaryGraph> csgs =
      BuildCsgs(db, previous.clusters, RunContext::NoLimit().WithPool(&pool));
  Digest summaries;
  summaries.Mix(csgs.size());
  for (const ClusterSummaryGraph& csg : csgs) {
    summaries.Mix(csg.cluster_size());
    summaries.Mix(csg.NumVertices());
    for (VertexId v = 0; v < csg.NumVertices(); ++v) {
      summaries.Mix(csg.VertexLabel(v));
      summaries.Mix(csg.VertexSupport(v));
    }
    summaries.Mix(csg.NumEdges());
    for (const ClusterSummaryGraph::CsgEdge& e : csg.edges()) {
      summaries.Mix(e.u);
      summaries.Mix(e.v);
      summaries.Mix(e.support);
    }
  }
  out.csgs = summaries.hash;

  // Arrivals from the same generator family (same label universe).
  MoleculeGeneratorOptions gen;
  gen.num_graphs = kArrivals;
  gen.max_vertices = 16;
  gen.scaffold_families = 9;
  gen.seed = 1000 + db.size();
  const GraphDatabase arrivals_db = GenerateMoleculeDatabase(gen);
  Digest affinities;
  for (const Graph& g : arrivals_db.graphs()) {
    for (const ClusterSummaryGraph& csg : csgs) {
      affinities.Mix(std::bit_cast<uint64_t>(MappedEdgeFraction(csg, g)));
    }
  }
  out.affinities = affinities.hash;

  MaintenanceOptions maintenance;
  maintenance.selector = options.selector;
  GraphDatabase updated;
  const MaintenanceResult result = UpdateWithNewGraphs(
      db, previous, arrivals_db.graphs(), maintenance, &updated);
  Digest update;
  update.Mix(PartitionDigest(result.corpus.clusters));
  update.Mix(PanelDigest(result.selection));
  update.Mix(result.new_clusters);
  out.maintenance = update.hash;
  return out;
}

TEST(PipelineReferenceTest, CorpusStepsMatchPinnedDigests) {
  for (const auto& [corpus, expected] : kCorpusStepReferenceOutput) {
    const CorpusStepDigests got = CorpusSteps(corpus, Corpus(corpus));
    EXPECT_EQ(got.subgraphs, expected.subgraphs) << corpus;
    EXPECT_EQ(got.subgraph_set, expected.subgraph_set) << corpus;
    EXPECT_EQ(got.subtrees_all, expected.subtrees_all) << corpus;
    EXPECT_EQ(got.subtrees_third, expected.subtrees_third) << corpus;
    EXPECT_EQ(got.csgs, expected.csgs) << corpus;
    EXPECT_EQ(got.affinities, expected.affinities) << corpus;
    EXPECT_EQ(got.maintenance, expected.maintenance) << corpus;
  }
}

// (corpus, mode) -> panel digest of a selection on the prepared corpus
// under the stream Rng(seed + 2).
const std::map<std::pair<std::string, std::string>, uint64_t>
    kPreparedCorpusSelectionOutput{
        {{"mol60", "default"}, 6952349284602695911u},
        {{"mol60", "greedy"}, 6760471297478480004u},
        {{"mol60", "approx"}, 9251855152976425762u},
        {{"mol90", "default"}, 14390070419931689863u},
        {{"mol90", "greedy"}, 1004383197971255522u},
        {{"mol90", "approx"}, 1471168962676527655u},
    };

TEST(PipelineReferenceTest, SelectionOnPreparedCorpusMatchesPinnedDigests) {
  std::map<std::string, GraphDatabase> corpora;
  for (const auto& [key, expected] : kPreparedCorpusSelectionOutput) {
    const auto& [name, mode] = key;
    if (corpora.count(name) == 0) corpora.emplace(name, Corpus(name));
    const GraphDatabase& db = corpora.at(name);
    const CatapultOptions options = Options(mode);
    const PreparedCorpus corpus =
        PrepareCorpus(db, options, RunContext::NoLimit());
    ASSERT_TRUE(corpus.ok());
    // The corpus phases are RunCatapult's, so the partition is the one the
    // first table pins.
    EXPECT_EQ(PartitionDigest(corpus.clusters),
              kPipelineReferenceOutput.at({name, "default"}).second)
        << name << "/" << mode;
    Rng rng(options.seed + 2);
    const SelectionResult selection =
        FindCannedPatternSet(db, corpus, options.selector, rng);
    EXPECT_EQ(PanelDigest(selection), expected) << name << "/" << mode;
  }
}

// Path size -> digest of FrequentEdgePathPatterns(index, size, 12) over
// mol90's labelled-edge index, the index the selector's fallback reads.
const std::map<size_t, uint64_t> kFallbackPathOutput{
    {3, 5178744815549317376u},  {4, 14850007631075384384u},
    {5, 694985863024036224u},   {6, 4796337861268031424u},
    {7, 2540886513522777344u},  {8, 17452416827648032576u},
};

TEST(PipelineReferenceTest, FallbackPathPatternsMatchPinnedDigests) {
  const GraphDatabase db = Corpus("mol90");
  const LabelCoverageIndex label_index(db);
  for (const auto& [size, expected] : kFallbackPathOutput) {
    const std::vector<Graph> paths =
        FrequentEdgePathPatterns(label_index.graphs_with_key(), size, 12);
    EXPECT_EQ(paths.size(), 12u) << "size " << size;
    Digest d;
    d.Mix(paths.size());
    for (const Graph& p : paths) d.Mix(p);
    EXPECT_EQ(d.hash, expected) << "size " << size;
  }
}

}  // namespace
}  // namespace catapult
