#include "src/mining/subtree_miner.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/iso/flat_vf2.h"
#include "src/tree/canonical.h"
#include "src/util/check.h"

namespace catapult {

namespace {

// Candidate tree together with the support set of the tree it was grown
// from (a superset of its own support, by anti-monotonicity).
struct Candidate {
  Graph tree;
  std::string canonical;
  const DynamicBitset* parent_support;
};

}  // namespace

std::vector<FrequentSubtree> MineFrequentSubtrees(
    const GraphDatabase& db, const std::vector<GraphId>& graph_ids,
    const SubtreeMinerOptions& options, const RunContext& ctx,
    bool* complete) {
  if (complete != nullptr) *complete = true;
  std::vector<FrequentSubtree> results;
  if (graph_ids.empty()) return results;
  const size_t universe = graph_ids.size();
  const size_t min_count = static_cast<size_t>(
      std::max(1.0, options.min_support * static_cast<double>(universe)));

  // Level 1: frequent labelled edges. Collect distinct label pairs and their
  // supporting graphs directly.
  std::unordered_map<EdgeLabelKey, DynamicBitset> edge_support;
  for (size_t i = 0; i < universe; ++i) {
    const Graph& g = db.graph(graph_ids[i]);
    std::unordered_set<EdgeLabelKey> seen;
    for (const Edge& e : g.EdgeList()) seen.insert(g.EdgeKey(e.u, e.v));
    for (EdgeLabelKey key : seen) {
      auto [it, inserted] =
          edge_support.try_emplace(key, DynamicBitset(universe));
      it->second.Set(i);
    }
  }

  std::vector<FrequentSubtree> frontier;
  for (const auto& [key, support] : edge_support) {
    if (support.Count() < min_count) continue;
    Graph tree;
    VertexId a = tree.AddVertex(static_cast<Label>(key >> 32));
    VertexId b = tree.AddVertex(static_cast<Label>(key & 0xFFFFFFFFULL));
    tree.AddEdge(a, b);
    FrequentSubtree fs;
    fs.canonical = CanonicalTreeString(tree);
    fs.tree = std::move(tree);
    fs.support = support;
    fs.frequency =
        static_cast<double>(support.Count()) / static_cast<double>(universe);
    frontier.push_back(std::move(fs));
  }

  // Frequent vertex labels: the only labels worth attaching as new leaves.
  std::unordered_map<Label, size_t> vertex_label_count;
  for (size_t i = 0; i < universe; ++i) {
    const Graph& g = db.graph(graph_ids[i]);
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
    for (FrequentSubtree& fs : frontier) results.push_back(fs);
    if (frontier.front().tree.NumEdges() >= options.max_edges) break;

    // Generate candidates: attach one new leaf to every vertex of every
    // frontier tree with every frequent label, deduplicated canonically.
    std::unordered_set<std::string> seen_canonical;
    std::vector<Candidate> candidates;
    // Most frequent parents first, so per-level caps keep the best ones.
    std::vector<size_t> parent_order(frontier.size());
    for (size_t i = 0; i < frontier.size(); ++i) parent_order[i] = i;
    std::stable_sort(parent_order.begin(), parent_order.end(),
                     [&](size_t l, size_t r) {
                       return frontier[l].frequency > frontier[r].frequency;
                     });
    for (size_t pi : parent_order) {
      const FrequentSubtree& parent = frontier[pi];
      if (options.max_candidates_per_level != 0 &&
          candidates.size() >= options.max_candidates_per_level) {
        break;
      }
      for (VertexId attach = 0; attach < parent.tree.NumVertices();
           ++attach) {
        for (Label label : frequent_labels) {
          Graph extended = parent.tree;
          VertexId leaf = extended.AddVertex(label);
          extended.AddEdge(attach, leaf);
          std::string canonical = CanonicalTreeString(extended);
          if (!seen_canonical.insert(canonical).second) continue;
          candidates.push_back(
              {std::move(extended), std::move(canonical), &parent.support});
        }
      }
    }

    // Count support (restricted to the parent's support set).
    bool stopped = false;
    std::vector<FrequentSubtree> next;
    for (Candidate& c : candidates) {
      // Support counting is the expensive inner loop (one subgraph-
      // isomorphism test per graph); poll the deadline per candidate and
      // keep the levels already completed as the anytime result.
      if (ctx.StopRequested("miner.count_support")) {
        stopped = true;
        break;
      }
      FlatGraph flat_tree = FlatGraph::Build(c.tree);
      DynamicBitset support =
          ContainingGraphs(flat_tree.View(), flat_db, c.parent_support);
      if (support.Count() < min_count) continue;
      FrequentSubtree fs;
      fs.frequency = static_cast<double>(support.Count()) /
                     static_cast<double>(universe);
      fs.tree = std::move(c.tree);
      fs.canonical = std::move(c.canonical);
      fs.support = std::move(support);
      next.push_back(std::move(fs));
    }
    if (stopped) {
      if (complete != nullptr) *complete = false;
      break;
    }
    frontier = std::move(next);
  }

  // Most frequent first; apply the result cap.
  std::stable_sort(results.begin(), results.end(),
                   [](const FrequentSubtree& a, const FrequentSubtree& b) {
                     return a.frequency > b.frequency;
                   });
  if (options.max_results != 0 && results.size() > options.max_results) {
    results.resize(options.max_results);
  }
  return results;
}

std::vector<FrequentSubtree> MineFrequentSubtrees(
    const GraphDatabase& db, const SubtreeMinerOptions& options) {
  std::vector<GraphId> all(db.size());
  for (GraphId i = 0; i < db.size(); ++i) all[i] = i;
  return MineFrequentSubtrees(db, all, options);
}

DynamicBitset CountSupport(const Graph& tree, const FlatGraphDatabase& db) {
  FlatGraph flat_tree = FlatGraph::Build(tree);
  return ContainingGraphs(flat_tree.View(), db);
}

}  // namespace catapult
