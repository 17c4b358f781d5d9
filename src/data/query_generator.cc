#include "src/data/query_generator.h"

#include <algorithm>

#include <map>

#include "src/graph/algorithms.h"
#include "src/iso/flat_vf2.h"

namespace catapult {

std::vector<Graph> GenerateQueryWorkload(const GraphDatabase& db,
                                         const QueryWorkloadOptions& options) {
  CATAPULT_CHECK(!db.empty());
  CATAPULT_CHECK(options.max_edges >= options.min_edges);
  Rng rng(options.seed);
  std::vector<Graph> queries;
  queries.reserve(options.count);
  while (queries.size() < options.count) {
    const Graph& source = db.graph(
        static_cast<GraphId>(rng.UniformInt(db.size())));
    if (source.NumEdges() == 0) continue;
    size_t want = static_cast<size_t>(
        rng.UniformInRange(static_cast<int64_t>(options.min_edges),
                           static_cast<int64_t>(options.max_edges)));
    Graph query = RandomConnectedSubgraph(source, want, rng);
    if (query.NumEdges() == 0) continue;
    queries.push_back(std::move(query));
  }
  return queries;
}

std::vector<Graph> GenerateQueryMix(const GraphDatabase& db,
                                    const std::vector<Graph>& frequent_pool,
                                    const QueryMixOptions& options) {
  CATAPULT_CHECK(!db.empty());
  Rng rng(options.seed);

  // Verification sample for support checks, flattened once.
  std::vector<GraphId> sample_ids;
  for (size_t i : rng.SampleIndices(db.size(), options.verification_sample)) {
    sample_ids.push_back(static_cast<GraphId>(i));
  }
  const FlatGraphDatabase sample = FlatGraphDatabase::Build(db, sample_ids);
  auto SampleSupport = [&](const Graph& q) {
    FlatGraph flat_q = FlatGraph::Build(q);
    size_t hits = ContainingGraphs(flat_q.View(), sample).Count();
    return static_cast<double>(hits) / static_cast<double>(sample.size());
  };

  size_t infrequent_target = static_cast<size_t>(
      options.infrequent_fraction * static_cast<double>(options.count) + 0.5);
  size_t frequent_target = options.count - infrequent_target;

  std::vector<Graph> queries;
  queries.reserve(options.count);

  // Frequent queries: sample from the pool (filtered to the size window).
  std::vector<const Graph*> usable_pool;
  for (const Graph& g : frequent_pool) {
    if (g.NumEdges() >= options.min_edges &&
        g.NumEdges() <= options.max_edges) {
      usable_pool.push_back(&g);
    }
  }
  for (size_t i = 0; i < frequent_target; ++i) {
    if (usable_pool.empty()) break;
    queries.push_back(*usable_pool[rng.UniformInt(usable_pool.size())]);
  }

  // Rarest vertex labels of the database (for the perturbation fallback).
  std::vector<Label> rare_labels;
  {
    std::map<Label, size_t> counts;
    for (const Graph& g : db.graphs()) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        ++counts[g.VertexLabel(v)];
      }
    }
    std::vector<std::pair<size_t, Label>> ordered;
    for (const auto& [label, count] : counts) {
      ordered.emplace_back(count, label);
    }
    std::sort(ordered.begin(), ordered.end());
    for (const auto& [count, label] : ordered) {
      rare_labels.push_back(label);
      if (rare_labels.size() == 3) break;
    }
  }

  // Infrequent queries: random subgraphs re-drawn until rare; if a draw's
  // parts are all common, relabel a couple of vertices to rare labels
  // (queries are user-drawn and need not occur in D).
  while (queries.size() < options.count) {
    Graph candidate;
    for (int attempt = 0; attempt < 20; ++attempt) {
      const Graph& source =
          db.graph(static_cast<GraphId>(rng.UniformInt(db.size())));
      if (source.NumEdges() < options.min_edges) continue;
      size_t want = static_cast<size_t>(
          rng.UniformInRange(static_cast<int64_t>(options.min_edges),
                             static_cast<int64_t>(options.max_edges)));
      Graph q = RandomConnectedSubgraph(source, want, rng);
      if (q.NumEdges() < options.min_edges) continue;
      if (SampleSupport(q) < options.frequent_threshold) {
        candidate = std::move(q);
        break;
      }
      candidate = std::move(q);  // Keep the last draw as fallback.
    }
    if (candidate.NumEdges() == 0) break;
    if (options.perturb_labels_for_infrequent && !rare_labels.empty() &&
        SampleSupport(candidate) >= options.frequent_threshold) {
      size_t to_relabel = 1 + candidate.NumVertices() / 8;
      for (size_t r = 0; r < to_relabel; ++r) {
        VertexId v =
            static_cast<VertexId>(rng.UniformInt(candidate.NumVertices()));
        candidate.SetVertexLabel(
            v, rare_labels[rng.UniformInt(rare_labels.size())]);
      }
    }
    queries.push_back(std::move(candidate));
  }
  return queries;
}

}  // namespace catapult
