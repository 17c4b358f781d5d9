// Algorithm 4 (greedy canned-pattern selection) straight from the paper,
// for tests only.
//
// Candidates are proposed exactly as FindCannedPatternSet proposes them:
// the same weighted summaries and zero-weight skip, one rng split per
// (summary, size) task in the same order, the same walks (or greedy BFS)
// and FCP assembly, the same pattern materialisation. Everything after
// proposal is the definition, run sequentially, with no class cache, no
// diversity fold or pruning and no thread pool:
//   - a candidate isomorphic (ReferenceIsomorphic) to an earlier candidate
//     of the iteration or to a selected pattern is dropped, and so is one
//     whose size is not open;
//   - ccov(p) sums, in ascending cluster order, the decayed weights of the
//     clusters whose summary contains p (ReferenceContains);
//   - lcov(p) is the fraction of data graphs holding one of p's labelled
//     edges;
//   - cog(p) = |Ep| * density(p);
//   - div(p) is the minimum GED (or BipartiteGed) over the panel, 1 for an
//     empty panel;
//   - the first candidate of maximal score ccov*lcov*div/cog wins (strict
//     >), then its covered clusters and used edge labels decay.

#ifndef CATAPULT_TESTS_REFERENCE_SELECTOR_H_
#define CATAPULT_TESTS_REFERENCE_SELECTOR_H_

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "src/core/selector.h"
#include "src/iso/ged_bipartite.h"

namespace catapult::reference {

// Containment from the definition, independent of the VF2 kernel it
// referees: an injective map of p's vertices into g's that keeps vertex
// labels and sends every edge of p onto an edge of g (edge labels are not
// compared). Plain depth-first search with no budget. Pattern vertices are
// placed in BFS order, each component from its lowest id; a vertex with a
// BFS parent is tried only on the target neighbours of its parent's image,
// then checked for its label and its adjacency to every placed vertex.
inline bool ReferenceContains(const Graph& p, const Graph& g) {
  const size_t n = p.NumVertices();
  std::vector<VertexId> order;
  std::vector<int> bfs_parent(n, -1);
  std::vector<bool> queued(n, false);
  for (VertexId root = 0; root < n; ++root) {
    if (queued[root]) continue;
    queued[root] = true;
    order.push_back(root);
    for (size_t head = order.size() - 1; head < order.size(); ++head) {
      for (const Graph::Neighbor& nb : p.Neighbors(order[head])) {
        if (queued[nb.to]) continue;
        queued[nb.to] = true;
        bfs_parent[nb.to] = static_cast<int>(order[head]);
        order.push_back(nb.to);
      }
    }
  }
  std::vector<VertexId> image(n);
  std::vector<bool> used(g.NumVertices(), false);
  auto place = [&](auto& self, size_t depth) -> bool {
    if (depth == n) return true;
    const VertexId u = order[depth];
    std::vector<VertexId> targets;
    if (bfs_parent[u] < 0) {
      for (VertexId t = 0; t < g.NumVertices(); ++t) targets.push_back(t);
    } else {
      for (const Graph::Neighbor& nb : g.Neighbors(image[bfs_parent[u]])) {
        targets.push_back(nb.to);
      }
    }
    for (VertexId t : targets) {
      if (used[t] || g.VertexLabel(t) != p.VertexLabel(u)) continue;
      bool adjacent = true;
      for (size_t k = 0; k < depth && adjacent; ++k) {
        if (p.HasEdge(u, order[k])) adjacent = g.HasEdge(t, image[order[k]]);
      }
      if (!adjacent) continue;
      used[t] = true;
      image[u] = t;
      if (self(self, depth + 1)) return true;
      used[t] = false;
    }
    return false;
  };
  return place(place, 0);
}

// Isomorphism: equal sizes plus containment. An edge-preserving injection
// between graphs of equal vertex and edge counts is a bijection on both.
inline bool ReferenceIsomorphic(const Graph& a, const Graph& b) {
  return a.NumVertices() == b.NumVertices() && a.NumEdges() == b.NumEdges() &&
         ReferenceContains(a, b);
}

struct ReferenceSelection {
  std::vector<SelectedPattern> patterns;
  // False when any GED the reference computed was truncated by its budget.
  bool ged_exact = true;
};

// lcov(p, D): the share of data graphs with an edge whose labelled-edge key
// is one of p's.
inline double ReferenceLabelCoverage(const GraphDatabase& db,
                                     const Graph& pattern) {
  std::set<EdgeLabelKey> keys;
  for (const Edge& e : pattern.EdgeList()) {
    keys.insert(pattern.EdgeKey(e.u, e.v));
  }
  size_t holding = 0;
  for (const Graph& g : db.graphs()) {
    for (const Edge& e : g.EdgeList()) {
      if (keys.count(g.EdgeKey(e.u, e.v)) != 0) {
        ++holding;
        break;
      }
    }
  }
  return static_cast<double>(holding) / static_cast<double>(db.size());
}

// cog(p) = |Ep| * rho_p with rho_p = 2|Ep| / (|Vp| (|Vp| - 1)).
inline double ReferenceCognitiveLoad(const Graph& pattern) {
  const double edges = static_cast<double>(pattern.NumEdges());
  const size_t n = pattern.NumVertices();
  if (n < 2) return 0.0;
  return edges * (2.0 * edges /
                  (static_cast<double>(n) * static_cast<double>(n - 1)));
}

inline ReferenceSelection ReferenceSelect(
    const GraphDatabase& db, const std::vector<std::vector<GraphId>>& clusters,
    const std::vector<ClusterSummaryGraph>& csgs,
    const SelectorOptions& options, Rng& rng) {
  const PatternBudget& budget = options.budget;
  const bool greedy = options.strategy == CandidateStrategy::kGreedyBfs;
  ReferenceSelection out;
  EdgeLabelWeights elw{LabelCoverageIndex(db)};
  ClusterWeights cw(clusters, db.size());
  std::vector<Graph> summaries;
  for (const ClusterSummaryGraph& csg : csgs) {
    summaries.push_back(csg.ToGraph());
  }
  std::vector<size_t> per_size(budget.NumSizes(), 0);
  std::vector<Graph> panel;

  while (panel.size() < budget.gamma) {
    const std::vector<size_t> open = OpenPatternSizes(budget, per_size);
    if (open.empty()) break;

    // Proposal, as the selector does it.
    struct Proposed {
      Graph graph;
      size_t source_csg;
    };
    std::vector<Proposed> proposed;
    for (size_t c = 0; c < csgs.size(); ++c) {
      if (csgs[c].NumEdges() == 0) continue;
      const WeightedCsg wcsg = MakeWeightedCsg(csgs[c], elw);
      double weight_sum = 0.0;
      for (double w : wcsg.edge_weights) weight_sum += w;
      if (weight_sum <= 0.0) continue;
      for (size_t size : open) {
        Pcp fcp;
        if (greedy) {
          fcp = GenerateGreedyPcp(wcsg, size);
        } else {
          Rng walk_rng = rng.Split();
          fcp = GenerateFcp(csgs[c],
                            GeneratePcpLibrary(wcsg, size,
                                               options.walks_per_candidate,
                                               walk_rng, RunContext::NoLimit()),
                            size);
        }
        if (fcp.size() < budget.eta_min) continue;
        proposed.push_back({PatternFromCsgEdges(csgs[c], fcp), c});
      }
    }
    if (proposed.empty()) break;

    // Scoring, from the definitions.
    std::vector<const Graph*> earlier;
    bool found = false;
    SelectedPattern best;
    std::vector<bool> best_covered;
    for (const Proposed& cand : proposed) {
      const Graph& p = cand.graph;
      auto isomorphic = [&p](const Graph& q) {
        return ReferenceIsomorphic(q, p);
      };
      if (std::any_of(earlier.begin(), earlier.end(),
                      [&](const Graph* q) { return isomorphic(*q); })) {
        continue;
      }
      earlier.push_back(&p);
      if (std::find(open.begin(), open.end(), p.NumEdges()) == open.end()) {
        continue;
      }
      if (std::any_of(panel.begin(), panel.end(), isomorphic)) continue;

      std::vector<bool> covered(csgs.size(), false);
      double ccov = 0.0;
      for (size_t c = 0; c < summaries.size(); ++c) {
        covered[c] = ReferenceContains(p, summaries[c]);
        if (covered[c]) ccov += cw.Get(c);
      }
      double div = panel.empty() ? 1.0 : std::numeric_limits<double>::max();
      for (const Graph& q : panel) {
        double distance;
        if (options.approximate_diversity) {
          distance = BipartiteGed(p, q);
        } else {
          const GedResult ged = GraphEditDistance(p, q, options.ged);
          out.ged_exact = out.ged_exact && ged.exact;
          distance = ged.distance;
        }
        div = std::min(div, distance);
      }
      SelectedPattern scored;
      scored.ccov = ccov;
      scored.lcov = ReferenceLabelCoverage(db, p);
      scored.cog = ReferenceCognitiveLoad(p);
      scored.div = div;
      scored.score = scored.cog > 0.0
                         ? scored.ccov * scored.lcov * scored.div / scored.cog
                         : 0.0;
      if (!found || scored.score > best.score) {
        found = true;
        scored.graph = p;
        scored.source_csg = cand.source_csg;
        best = std::move(scored);
        best_covered = std::move(covered);
      }
    }
    if (!found) break;

    ++per_size[best.graph.NumEdges() - budget.eta_min];
    for (size_t c = 0; c < best_covered.size(); ++c) {
      if (best_covered[c]) cw.Decay(c, options.weight_decay);
    }
    elw.DecayForPattern(best.graph, options.weight_decay);
    panel.push_back(best.graph);
    out.patterns.push_back(std::move(best));
  }
  return out;
}

}  // namespace catapult::reference

#endif  // CATAPULT_TESTS_REFERENCE_SELECTOR_H_
