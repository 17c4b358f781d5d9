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

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/iso/ged.h"

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
};

uint64_t PanelDigest(const SelectionResult& selection) {
  Digest d;
  d.Mix(selection.patterns.size());
  for (const SelectedPattern& p : selection.patterns) {
    d.Mix(p.graph.NumVertices());
    for (VertexId v = 0; v < p.graph.NumVertices(); ++v) {
      d.Mix(p.graph.VertexLabel(v));
    }
    d.Mix(p.graph.NumEdges());
    for (const Edge& e : p.graph.EdgeList()) {
      for (uint64_t x : {e.u, e.v, e.label}) d.Mix(x);
    }
  }
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
  } else if (mode == "agglo") {
    options.clustering.coarse_algorithm = CoarseAlgorithm::kAgglomerative;
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
        {{"mol60", "agglo"}, {4867545712901287457u, 9721065870536945900u}},
        {{"mol90", "default"}, {8067231906335259234u, 9854151243371046308u}},
        {{"mol90", "sampled"}, {10384665580097023470u, 3239004285441105880u}},
        {{"mol90", "coarse"}, {17229364895065637825u, 3723195619056441873u}},
        {{"mol90", "agglo"}, {16368633165847290599u, 11258878212872605450u}},
        {{"mol120", "default"}, {9317203226189384418u, 6734182730810212095u}},
        {{"mol120", "sampled"}, {2461616585667751042u, 5186588768965044283u}},
        {{"mol120", "coarse"}, {14951244314900370753u, 2267434525708865470u}},
        {{"mol120", "agglo"}, {14331046937400129952u, 1638501697124065849u}},
        {{"mol60", "greedy"}, {6760471297478480004u, 6264786427488051786u}},
        {{"mol60", "approx"}, {12753779212367839811u, 6264786427488051786u}},
        {{"mol60", "ged"}, {16558461670878922305u, 6264786427488051786u}},
        {{"mol90", "greedy"}, {1004383197971255522u, 9854151243371046308u}},
        {{"mol90", "approx"}, {15230677068941728932u, 9854151243371046308u}},
        {{"mol90", "ged"}, {16815521240109435106u, 9854151243371046308u}},
        {{"mol120", "greedy"}, {4060642868476227456u, 6734182730810212095u}},
        {{"mol120", "approx"}, {689296838885819008u, 6734182730810212095u}},
        {{"mol120", "ged"}, {3680872793568941217u, 6734182730810212095u}},
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

}  // namespace
}  // namespace catapult
