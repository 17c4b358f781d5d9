#include "src/cluster/feature_vectors.h"

#include "src/iso/flat_vf2.h"
#include "src/util/thread_pool.h"

namespace catapult {

std::vector<DynamicBitset> BuildFeatureVectors(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const std::vector<FrequentSubtree>& subtrees, const RunContext& ctx) {
  const FlatGraphDatabase flat_db = FlatGraphDatabase::Build(db, graph_ids);
  std::vector<FlatGraph> flat_trees;
  flat_trees.reserve(subtrees.size());
  for (const FrequentSubtree& s : subtrees) {
    flat_trees.push_back(FlatGraph::Build(s.tree));
  }
  // One slot per graph, filled independently (any thread, any order) and
  // returned in graph_ids order: output is identical at every thread count.
  std::vector<DynamicBitset> features(graph_ids.size());
  ParallelFor(ctx, graph_ids.size(), 1, [&](size_t i) {
    DynamicBitset vec(subtrees.size());
    for (size_t j = 0; j < subtrees.size(); ++j) {
      if (FlatContainsSubgraph(flat_trees[j].View(), flat_db.view(i),
                               &flat_db.domains(i))) {
        vec.Set(j);
      }
    }
    features[i] = std::move(vec);
  });
  return features;
}

std::vector<DynamicBitset> BuildFeatureVectors(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const std::vector<FrequentSubtree>& subtrees) {
  return BuildFeatureVectors(db, graph_ids, subtrees, RunContext::NoLimit());
}

}  // namespace catapult
