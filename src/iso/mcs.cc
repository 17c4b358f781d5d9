#include "src/iso/mcs.h"

#include <algorithm>
#include <tuple>

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace catapult {

namespace {

// Shared search state for both the connected and the unconnected variant.
struct SearchState {
  const Graph& a;
  const Graph& b;
  const McsOptions& options;
  std::vector<bool> a_used;
  std::vector<bool> b_used;
  std::vector<std::pair<VertexId, VertexId>> mapping;
  size_t current_edges = 0;
  uint64_t nodes = 0;
  bool exact = true;
  McsResult best;

  SearchState(const Graph& a_in, const Graph& b_in, const McsOptions& opt)
      : a(a_in), b(b_in), options(opt) {
    a_used.assign(a.NumVertices(), false);
    b_used.assign(b.NumVertices(), false);
  }

  bool BudgetExhausted() {
    if (options.node_budget != 0 && nodes >= options.node_budget) {
      exact = false;
      return true;
    }
    ++nodes;
    return false;
  }

  // Number of common edges gained by adding the pair (u, v) on top of the
  // current mapping.
  size_t Gain(VertexId u, VertexId v) const {
    size_t gain = 0;
    for (const auto& [x, y] : mapping) {
      if (a.HasEdge(u, x) && b.HasEdge(v, y)) {
        if (!options.match_edge_labels ||
            a.EdgeLabel(u, x) == b.EdgeLabel(v, y)) {
          ++gain;
        }
      }
    }
    return gain;
  }

  void RecordBest() {
    if (current_edges > best.common_edges ||
        (current_edges == best.common_edges &&
         mapping.size() > best.common_vertices)) {
      best.common_edges = current_edges;
      best.common_vertices = mapping.size();
      best.mapping = mapping;
    }
  }

  void Push(VertexId u, VertexId v, size_t gain) {
    a_used[u] = true;
    b_used[v] = true;
    mapping.emplace_back(u, v);
    current_edges += gain;
  }

  void Pop(size_t gain) {
    auto [u, v] = mapping.back();
    mapping.pop_back();
    a_used[u] = false;
    b_used[v] = false;
    current_edges -= gain;
  }
};

// Grows a connected common subgraph from the current mapping. Records the
// best mapping at every node (anytime).
void ConnectedExtend(SearchState& state) {
  if (state.BudgetExhausted()) return;
  state.RecordBest();

  // Trivial upper bound: every additional common edge consumes a distinct
  // edge of each graph.
  size_t upper = state.current_edges +
                 std::min(state.a.NumEdges(), state.b.NumEdges()) -
                 state.current_edges;
  if (upper <= state.best.common_edges) return;

  // Candidate pairs adjacent to the mapped region with positive gain.
  struct Candidate {
    VertexId u, v;
    size_t gain;
  };
  std::vector<Candidate> candidates;
  for (const auto& [x, y] : state.mapping) {
    for (const Graph::Neighbor& na : state.a.Neighbors(x)) {
      if (state.a_used[na.to]) continue;
      for (const Graph::Neighbor& nb : state.b.Neighbors(y)) {
        if (state.b_used[nb.to]) continue;
        if (state.a.VertexLabel(na.to) != state.b.VertexLabel(nb.to)) {
          continue;
        }
        size_t gain = state.Gain(na.to, nb.to);
        if (gain > 0) candidates.push_back({na.to, nb.to, gain});
      }
    }
  }
  // Deduplicate (the same pair can be adjacent to several mapped pairs).
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& l, const Candidate& r) {
              return std::tie(l.u, l.v) < std::tie(r.u, r.v);
            });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const Candidate& l, const Candidate& r) {
                                 return l.u == r.u && l.v == r.v;
                               }),
                   candidates.end());
  // Best-gain first: improves the anytime bound quickly.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& l, const Candidate& r) {
                     return l.gain > r.gain;
                   });
  for (const Candidate& c : candidates) {
    state.Push(c.u, c.v, c.gain);
    ConnectedExtend(state);
    state.Pop(c.gain);
    if (!state.exact) return;
  }
}

// Per-index upper bounds for the unconnected search: remaining[i] is the
// number of a-edges touching any vertex still undecided at depth i, i.e.
// order[i..]. The undecided set depends only on the (fixed) order and the
// index, never on the mapping, so hoisting the computation out of the search
// leaves the pruning — and thus the whole search tree — unchanged.
std::vector<size_t> RemainingEdgeBounds(const Graph& a,
                                        const std::vector<VertexId>& order) {
  std::vector<size_t> remaining(order.size() + 1, 0);
  std::vector<bool> undecided(a.NumVertices(), false);
  std::vector<Edge> edges = a.EdgeList();
  for (size_t index = order.size(); index-- > 0;) {
    undecided[order[index]] = true;
    size_t count = 0;
    for (const Edge& e : edges) {
      if (undecided[e.u] || undecided[e.v]) ++count;
    }
    remaining[index] = count;
  }
  return remaining;
}

// Unconnected MCS: decide a-vertices in a fixed order (map or skip).
void UnconnectedExtend(SearchState& state,
                       const std::vector<VertexId>& order,
                       const std::vector<size_t>& remaining, size_t index) {
  if (state.BudgetExhausted()) return;
  state.RecordBest();
  if (index == order.size()) return;

  // Upper bound: remaining a-edges touching undecided vertices.
  if (state.current_edges + remaining[index] <= state.best.common_edges) {
    return;
  }

  VertexId u = order[index];
  Label lu = state.a.VertexLabel(u);
  for (VertexId v = 0; v < state.b.NumVertices(); ++v) {
    if (state.b_used[v] || state.b.VertexLabel(v) != lu) continue;
    size_t gain = state.Gain(u, v);
    state.Push(u, v, gain);
    UnconnectedExtend(state, order, remaining, index + 1);
    state.Pop(gain);
    if (!state.exact) return;
  }
  // Skip u entirely.
  UnconnectedExtend(state, order, remaining, index + 1);
}

}  // namespace

McsResult MaxCommonSubgraph(const Graph& a, const Graph& b,
                            McsOptions options) {
  SearchState state(a, b, options);
  if (a.NumVertices() == 0 || b.NumVertices() == 0) return state.best;

  if (options.connected) {
    // Try every label-compatible seed pair. Seeds are tried highest-degree
    // first so large common regions are found early.
    std::vector<std::pair<VertexId, VertexId>> seeds;
    for (VertexId u = 0; u < a.NumVertices(); ++u) {
      for (VertexId v = 0; v < b.NumVertices(); ++v) {
        if (a.VertexLabel(u) == b.VertexLabel(v)) seeds.emplace_back(u, v);
      }
    }
    std::stable_sort(seeds.begin(), seeds.end(),
                     [&](const auto& l, const auto& r) {
                       return a.Degree(l.first) + b.Degree(l.second) >
                              a.Degree(r.first) + b.Degree(r.second);
                     });
    for (const auto& [u, v] : seeds) {
      state.Push(u, v, 0);
      ConnectedExtend(state);
      state.Pop(0);
      if (!state.exact) break;
      // Optimal already: cannot beat min edge count.
      if (state.best.common_edges == std::min(a.NumEdges(), b.NumEdges())) {
        break;
      }
    }
  } else {
    std::vector<VertexId> order(a.NumVertices());
    for (VertexId v = 0; v < a.NumVertices(); ++v) order[v] = v;
    std::stable_sort(order.begin(), order.end(), [&](VertexId l, VertexId r) {
      return a.Degree(l) > a.Degree(r);
    });
    UnconnectedExtend(state, order, RemainingEdgeBounds(a, order), 0);
  }
  obs::Count(obs::Counter::kMcsCalls);
  obs::Count(obs::Counter::kMcsNodes, state.nodes);
  if (!state.exact) obs::Count(obs::Counter::kMcsBudgetExhausted);
  state.best.exact = state.exact;
  return state.best;
}

double McsSimilarity(const Graph& a, const Graph& b, McsOptions options) {
  size_t min_edges = std::min(a.NumEdges(), b.NumEdges());
  if (min_edges == 0) return 0.0;
  McsResult result = MaxCommonSubgraph(a, b, options);
  return static_cast<double>(result.common_edges) /
         static_cast<double>(min_edges);
}

}  // namespace catapult
