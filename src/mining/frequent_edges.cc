#include "src/mining/frequent_edges.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "src/iso/canonical_code.h"

namespace catapult {

std::vector<RankedEdge> RankEdgesBySupport(const EdgeLabelIndex& index) {
  std::vector<RankedEdge> ranked;
  ranked.reserve(index.size());
  for (const auto& [key, graphs] : index) {
    ranked.push_back({key, graphs.Count()});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedEdge& a, const RankedEdge& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.key < b.key;
            });
  return ranked;
}

std::vector<Graph> TopFrequentEdgePatterns(const GraphDatabase& db,
                                           size_t k) {
  std::vector<Graph> patterns;
  for (const RankedEdge& e :
       RankEdgesBySupport(BuildEdgeLabelIndex(db, AllGraphIds(db)))) {
    if (patterns.size() >= k) break;
    Graph g;
    VertexId a = g.AddVertex(static_cast<Label>(e.key >> 32));
    VertexId b = g.AddVertex(static_cast<Label>(e.key & 0xFFFFFFFFULL));
    g.AddEdge(a, b);
    patterns.push_back(std::move(g));
  }
  return patterns;
}

std::vector<Graph> TopBasicPatterns(const GraphDatabase& db, size_t m) {
  // Single edges: reuse the ranking. 2-paths: count support of distinct
  // (label, center-label, label) triples per graph.
  struct Scored {
    Graph pattern;
    size_t support;
  };
  std::vector<Scored> scored;
  for (const RankedEdge& e :
       RankEdgesBySupport(BuildEdgeLabelIndex(db, AllGraphIds(db)))) {
    Graph g;
    VertexId a = g.AddVertex(static_cast<Label>(e.key >> 32));
    VertexId b = g.AddVertex(static_cast<Label>(e.key & 0xFFFFFFFFULL));
    g.AddEdge(a, b);
    scored.push_back({std::move(g), e.support});
  }

  // 2-path key: (min(end labels), center label, max(end labels)).
  std::map<std::tuple<Label, Label, Label>, size_t> path_support;
  for (const Graph& g : db.graphs()) {
    std::unordered_set<uint64_t> seen;  // per-graph dedup of packed triples
    for (VertexId c = 0; c < g.NumVertices(); ++c) {
      const auto& nbrs = g.Neighbors(c);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        for (size_t j = i + 1; j < nbrs.size(); ++j) {
          Label e1 = g.VertexLabel(nbrs[i].to);
          Label e2 = g.VertexLabel(nbrs[j].to);
          if (e1 > e2) std::swap(e1, e2);
          uint64_t packed = (static_cast<uint64_t>(e1) << 42) ^
                            (static_cast<uint64_t>(g.VertexLabel(c)) << 21) ^
                            e2;
          if (seen.insert(packed).second) {
            ++path_support[{e1, g.VertexLabel(c), e2}];
          }
        }
      }
    }
  }
  for (const auto& [key, support] : path_support) {
    auto [e1, center, e2] = key;
    Graph g;
    VertexId a = g.AddVertex(e1);
    VertexId c = g.AddVertex(center);
    VertexId b = g.AddVertex(e2);
    g.AddEdge(a, c);
    g.AddEdge(c, b);
    scored.push_back({std::move(g), support});
  }

  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.support > b.support;
                   });
  std::vector<Graph> result;
  for (Scored& s : scored) {
    if (result.size() >= m) break;
    result.push_back(std::move(s.pattern));
  }
  return result;
}

std::vector<Graph> FrequentEdgePathPatterns(const EdgeLabelIndex& index,
                                            size_t num_edges, size_t count) {
  std::vector<Graph> patterns;
  if (num_edges == 0 || count == 0) return patterns;
  std::vector<RankedEdge> ranked = RankEdgesBySupport(index);
  if (ranked.empty()) return patterns;

  auto LabelA = [](EdgeLabelKey key) {
    return static_cast<Label>(key >> 32);
  };
  auto LabelB = [](EdgeLabelKey key) {
    return static_cast<Label>(key & 0xFFFFFFFFULL);
  };
  // The most frequent key containing `label`, if any.
  auto BestExtension = [&](Label label) -> const RankedEdge* {
    for (const RankedEdge& e : ranked) {
      if (LabelA(e.key) == label || LabelB(e.key) == label) return &e;
    }
    return nullptr;
  };

  std::unordered_set<std::string> seen;  // canonical codes
  for (size_t i = 0; i < ranked.size() && patterns.size() < count; ++i) {
    Graph path;
    VertexId front = path.AddVertex(LabelA(ranked[i].key));
    VertexId back = path.AddVertex(LabelB(ranked[i].key));
    path.AddEdge(front, back);
    while (path.NumEdges() < num_edges) {
      // Extend at the back endpoint with its most frequent compatible key;
      // the seed key itself always qualifies, so growth cannot stall.
      const RankedEdge* ext = BestExtension(path.VertexLabel(back));
      if (ext == nullptr) break;
      Label next_label = LabelA(ext->key) == path.VertexLabel(back)
                             ? LabelB(ext->key)
                             : LabelA(ext->key);
      VertexId added = path.AddVertex(next_label);
      path.AddEdge(back, added);
      back = added;
    }
    if (path.NumEdges() != num_edges) continue;
    if (!seen.insert(CanonicalCode(path)).second) continue;
    patterns.push_back(std::move(path));
  }
  return patterns;
}

}  // namespace catapult
