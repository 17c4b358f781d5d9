#include "src/mining/subgraph_miner.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/iso/canonical_code.h"
#include "src/iso/flat_vf2.h"
#include "src/util/check.h"

namespace catapult {

std::vector<FrequentSubgraph> GrowFrequentPatterns(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SubgraphMinerOptions& options, bool close_cycles,
    const RunContext& ctx, bool* complete) {
  if (complete != nullptr) *complete = true;
  std::vector<FrequentSubgraph> results;
  const size_t universe = graph_ids.size();
  if (universe == 0) return results;
  const size_t min_count = static_cast<size_t>(
      std::max(1.0, options.min_support * static_cast<double>(universe)));
  auto frequency = [universe](const DynamicBitset& support) {
    return static_cast<double>(support.Count()) /
           static_cast<double>(universe);
  };

  // Level 1: frequent labelled edges.
  std::vector<FrequentSubgraph> frontier;
  for (auto& [key, support] : BuildEdgeLabelIndex(db, graph_ids)) {
    if (support.Count() < min_count) continue;
    Graph g;
    VertexId a = g.AddVertex(static_cast<Label>(key >> 32));
    VertexId b = g.AddVertex(static_cast<Label>(key & 0xFFFFFFFFULL));
    g.AddEdge(a, b);
    const double f = frequency(support);
    frontier.push_back({std::move(g), std::move(support), f});
  }

  // Frequent vertex labels: the only labels worth attaching as new leaves.
  std::unordered_map<Label, size_t> vertex_label_count;
  for (GraphId id : graph_ids) {
    const Graph& g = db.graph(id);
    std::unordered_set<Label> seen;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      seen.insert(g.VertexLabel(v));
    }
    for (Label l : seen) ++vertex_label_count[l];
  }
  std::vector<Label> frequent_labels;
  for (const auto& [label, count] : vertex_label_count) {
    if (count >= min_count) frequent_labels.push_back(label);
  }
  std::sort(frequent_labels.begin(), frequent_labels.end());

  // Level-wise growth. Support counting tests candidates against the
  // graphs flattened once for the whole run.
  const FlatGraphDatabase flat_db = FlatGraphDatabase::Build(db, graph_ids);
  while (!frontier.empty()) {
    for (const FrequentSubgraph& fs : frontier) {
      if (fs.graph.NumEdges() >= options.min_edges) results.push_back(fs);
    }
    if (frontier.front().graph.NumEdges() >= options.max_edges) break;

    struct Candidate {
      Graph graph;
      const DynamicBitset* parent_support;
    };
    std::vector<Candidate> candidates;
    std::unordered_set<std::string> seen;  // canonical codes of the level
    auto offer = [&](Graph extended, const DynamicBitset& parent_support) {
      if (seen.insert(CanonicalCode(extended)).second) {
        candidates.push_back({std::move(extended), &parent_support});
      }
    };
    // Most frequent parents first, so per-level caps keep the best ones.
    std::vector<size_t> parent_order(frontier.size());
    for (size_t i = 0; i < frontier.size(); ++i) parent_order[i] = i;
    std::stable_sort(parent_order.begin(), parent_order.end(),
                     [&](size_t l, size_t r) {
                       return frontier[l].frequency > frontier[r].frequency;
                     });
    for (size_t pi : parent_order) {
      const FrequentSubgraph& parent = frontier[pi];
      if (options.max_candidates_per_level != 0 &&
          candidates.size() >= options.max_candidates_per_level) {
        break;
      }
      // (a) Attach a new labelled leaf anywhere.
      for (VertexId attach = 0; attach < parent.graph.NumVertices();
           ++attach) {
        for (Label label : frequent_labels) {
          Graph extended = parent.graph;
          VertexId leaf = extended.AddVertex(label);
          extended.AddEdge(attach, leaf);
          offer(std::move(extended), parent.support);
        }
      }
      if (!close_cycles) continue;
      // (b) Close a cycle between two existing non-adjacent vertices.
      for (VertexId u = 0; u < parent.graph.NumVertices(); ++u) {
        for (VertexId v = u + 1; v < parent.graph.NumVertices(); ++v) {
          if (parent.graph.HasEdge(u, v)) continue;
          Graph extended = parent.graph;
          extended.AddEdge(u, v);
          offer(std::move(extended), parent.support);
        }
      }
    }

    // Count support (restricted to the parent's support set). This is the
    // expensive inner loop, one subgraph-isomorphism test per graph, so
    // the deadline is polled per candidate; a stop discards the level.
    std::vector<FrequentSubgraph> next;
    for (Candidate& c : candidates) {
      if (ctx.StopRequested("miner.count_support")) {
        if (complete != nullptr) *complete = false;
        next.clear();
        break;
      }
      FlatGraph flat_candidate = FlatGraph::Build(c.graph);
      DynamicBitset support =
          ContainingGraphs(flat_candidate.View(), flat_db, c.parent_support);
      if (support.Count() < min_count) continue;
      const double f = frequency(support);
      next.push_back({std::move(c.graph), std::move(support), f});
    }
    frontier = std::move(next);
  }

  std::stable_sort(results.begin(), results.end(),
                   [](const FrequentSubgraph& a, const FrequentSubgraph& b) {
                     return a.frequency > b.frequency;
                   });
  return results;
}

std::vector<FrequentSubgraph> MineFrequentSubgraphs(
    const GraphDatabase& db, const SubgraphMinerOptions& options) {
  return GrowFrequentPatterns(db, AllGraphIds(db), options,
                              /*close_cycles=*/true, RunContext::NoLimit(),
                              nullptr);
}

std::vector<Graph> FrequentSubgraphPatternSet(
    const std::vector<FrequentSubgraph>& mined, size_t total,
    size_t min_edges, size_t max_edges) {
  CATAPULT_CHECK(max_edges >= min_edges);
  size_t per_size = std::max<size_t>(
      1, total / (max_edges - min_edges + 1));
  std::unordered_map<size_t, size_t> taken;  // size -> count
  std::vector<Graph> patterns;
  for (const FrequentSubgraph& fs : mined) {  // already most-frequent first
    size_t size = fs.graph.NumEdges();
    if (size < min_edges || size > max_edges) continue;
    if (taken[size] >= per_size) continue;
    if (patterns.size() >= total) break;
    patterns.push_back(fs.graph);
    ++taken[size];
  }
  // If some sizes were underpopulated, backfill with the most frequent
  // remaining patterns regardless of per-size caps.
  if (patterns.size() < total) {
    std::unordered_set<std::string> taken_codes;
    for (const Graph& p : patterns) taken_codes.insert(CanonicalCode(p));
    for (const FrequentSubgraph& fs : mined) {
      if (patterns.size() >= total) break;
      size_t size = fs.graph.NumEdges();
      if (size < min_edges || size > max_edges) continue;
      if (taken_codes.insert(CanonicalCode(fs.graph)).second) {
        patterns.push_back(fs.graph);
      }
    }
  }
  return patterns;
}

}  // namespace catapult
