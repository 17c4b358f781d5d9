#include "src/formulate/cover.h"

#include <algorithm>

#include "src/graph/algorithms.h"
#include "src/iso/flat_vf2.h"
#include "src/util/check.h"

namespace catapult {

QueryCover MaxPatternCover(const Graph& query,
                           const std::vector<Graph>& patterns,
                           const CoverOptions& options) {
  QueryCover cover;
  if (query.NumVertices() == 0) return cover;

  // Enumerate candidate embeddings.
  struct Node {
    size_t pattern_index;
    Embedding embedding;
    double weight;     // |Vp| per the paper
    size_t degree = 0; // conflicts
    bool alive = true;
  };
  std::vector<Node> nodes;
  IsoOptions iso;
  iso.node_budget = options.iso_node_budget;
  const FlatGraph flat_query = FlatGraph::Build(query);
  const LabelDomains query_domains = LabelDomains::Build(flat_query.View());
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    const Graph& p = patterns[pi];
    if (p.NumVertices() == 0 || p.NumEdges() > query.NumEdges()) continue;
    FlatGraph flat_p = FlatGraph::Build(p);
    std::vector<Embedding> embeddings =
        FlatFindEmbeddings(flat_p.View(), flat_query.View(), &query_domains,
                           options.max_embeddings_per_pattern, iso);
    for (Embedding& e : embeddings) {
      nodes.push_back({pi, std::move(e),
                       static_cast<double>(p.NumVertices()), 0, true});
    }
  }
  if (nodes.empty()) return cover;

  // Conflict = two embeddings share a query vertex.
  auto Conflicts = [&](const Node& a, const Node& b) {
    for (VertexId va : a.embedding) {
      for (VertexId vb : b.embedding) {
        if (va == vb) return true;
      }
    }
    return false;
  };
  std::vector<std::vector<size_t>> adjacency(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      if (Conflicts(nodes[i], nodes[j])) {
        adjacency[i].push_back(j);
        adjacency[j].push_back(i);
        ++nodes[i].degree;
        ++nodes[j].degree;
      }
    }
  }

  // Greedy MWIS (GWMIN): repeatedly take the alive node maximising
  // weight / (degree + 1), then kill its neighbourhood.
  std::vector<bool> used_query_vertex(query.NumVertices(), false);
  while (true) {
    int best = -1;
    double best_score = -1.0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!nodes[i].alive) continue;
      double score =
          nodes[i].weight / static_cast<double>(nodes[i].degree + 1);
      if (score > best_score ||
          (score == best_score && best >= 0 &&
           nodes[i].weight > nodes[static_cast<size_t>(best)].weight)) {
        best_score = score;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    Node& chosen = nodes[static_cast<size_t>(best)];
    chosen.alive = false;
    for (size_t j : adjacency[static_cast<size_t>(best)]) {
      if (nodes[j].alive) {
        nodes[j].alive = false;
        for (size_t k : adjacency[j]) {
          if (nodes[k].alive && nodes[k].degree > 0) --nodes[k].degree;
        }
      }
    }
    for (VertexId qv : chosen.embedding) used_query_vertex[qv] = true;
    cover.uses.push_back({chosen.pattern_index, chosen.embedding});
  }

  // Coverage accounting.
  for (bool used : used_query_vertex) {
    if (used) ++cover.covered_vertices;
  }
  for (const PatternUse& use : cover.uses) {
    cover.covered_edges += patterns[use.pattern_index].NumEdges();
  }
  return cover;
}

QueryCover PanelCover(const Graph& query, const GuiModel& gui,
                      const CoverOptions& options) {
  if (gui.unlabelled && !gui.patterns.empty() &&
      gui.patterns.front().NumVertices() > 0) {
    return MaxPatternCover(
        RelabelAllVertices(query, gui.patterns.front().VertexLabel(0)),
        gui.patterns, options);
  }
  return MaxPatternCover(query, gui.patterns, options);
}

}  // namespace catapult
