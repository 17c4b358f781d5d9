#include "src/iso/mcs.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "src/iso/neighbor_mark.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace catapult {

namespace {

constexpr VertexId kUnmapped = static_cast<VertexId>(-1);

// A pair the connected search may map next, with the common edges it adds.
struct Candidate {
  VertexId u, v;
  size_t gain;
};

// Shared search state for both the connected and the unconnected variant.
struct SearchState {
  const Graph& a;
  const Graph& b;
  const McsOptions& options;
  std::vector<VertexId> a_image;  // a-vertex -> b-vertex or kUnmapped
  std::vector<bool> b_used;
  std::vector<std::pair<VertexId, VertexId>> mapping;
  size_t current_edges = 0;
  uint64_t nodes = 0;
  bool exact = true;
  McsResult best;
  NeighborMark a_mark;
  NeighborMark b_mark;
  // Connected search: frames[d] holds the candidates of the node whose
  // mapping has d pairs, reused for the whole call; frames[0] stays empty.
  std::vector<std::vector<Candidate>> frames;
  std::vector<bool> seen;  // (slot in N_a(u*), slot in N_b(v*)) scratch

  SearchState(const Graph& a_in, const Graph& b_in, const McsOptions& opt)
      : a(a_in),
        b(b_in),
        options(opt),
        a_image(a_in.NumVertices(), kUnmapped),
        b_used(b_in.NumVertices(), false),
        a_mark(a_in.NumVertices()),
        b_mark(b_in.NumVertices()) {}

  bool BudgetExhausted() {
    if (options.node_budget != 0 && nodes >= options.node_budget) {
      exact = false;
      return true;
    }
    ++nodes;
    return false;
  }

  bool EdgeLabelsMatch(const Graph::Neighbor& na,
                       const Graph::Neighbor& nb) const {
    return !options.match_edge_labels || na.edge_label == nb.edge_label;
  }

  // Number of common edges gained by adding the pair (u, v) on top of the
  // current mapping: u's mapped neighbours whose images neighbour v.
  size_t Gain(VertexId u, VertexId v) {
    b_mark.Mark(b, v);
    const std::vector<Graph::Neighbor>& nb = b.Neighbors(v);
    size_t gain = 0;
    for (const Graph::Neighbor& na : a.Neighbors(u)) {
      VertexId y = a_image[na.to];
      if (y == kUnmapped) continue;
      int slot = b_mark.Slot(y);
      if (slot >= 0 && EdgeLabelsMatch(na, nb[slot])) ++gain;
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
    a_image[u] = v;
    b_used[v] = true;
    mapping.emplace_back(u, v);
    current_edges += gain;
  }

  void Pop(size_t gain) {
    auto [u, v] = mapping.back();
    mapping.pop_back();
    a_image[u] = kUnmapped;
    b_used[v] = false;
    current_edges -= gain;
  }

  // The candidates after (us, vs) joined the mapping, from the candidates
  // before it: every unmapped, label-equal pair with at least one common
  // edge to the mapping, ordered by (gain desc, u, v). Pairs using us or vs
  // leave, pairs adjacent to (us, vs) through a common edge gain one, and
  // such pairs that had no common edge yet join with gain 1.
  void NextCandidates(const std::vector<Candidate>& parent, VertexId us,
                      VertexId vs, std::vector<Candidate>& out) {
    const std::vector<Graph::Neighbor>& na = a.Neighbors(us);
    const std::vector<Graph::Neighbor>& nb = b.Neighbors(vs);
    a_mark.Mark(a, us);
    b_mark.Mark(b, vs);
    seen.assign(na.size() * nb.size(), false);
    out.clear();
    for (const Candidate& c : parent) {
      if (c.u == us || c.v == vs) continue;
      out.push_back(c);
      int i = a_mark.Slot(c.u);
      int j = b_mark.Slot(c.v);
      if (i < 0 || j < 0) continue;
      seen[i * nb.size() + j] = true;
      if (EdgeLabelsMatch(na[i], nb[j])) ++out.back().gain;
    }
    for (size_t i = 0; i < na.size(); ++i) {
      VertexId u = na[i].to;
      if (a_image[u] != kUnmapped) continue;
      for (size_t j = 0; j < nb.size(); ++j) {
        VertexId v = nb[j].to;
        if (b_used[v] || seen[i * nb.size() + j] ||
            a.VertexLabel(u) != b.VertexLabel(v) ||
            !EdgeLabelsMatch(na[i], nb[j])) {
          continue;
        }
        out.push_back({u, v, 1});
      }
    }
    // Best-gain first improves the anytime bound quickly.
    std::sort(out.begin(), out.end(),
              [](const Candidate& l, const Candidate& r) {
                return std::tie(r.gain, l.u, l.v) < std::tie(l.gain, r.u, r.v);
              });
  }
};

// Grows a connected common subgraph from the current mapping, whose last
// pair was just added. Records the best mapping at every node (anytime).
void ConnectedExtend(SearchState& state) {
  if (state.BudgetExhausted()) return;
  state.RecordBest();
  // Every common edge uses a distinct edge of each graph, so nothing beats
  // min(|Ea|, |Eb|) edges; there is no other bound.
  if (state.best.common_edges >=
      std::min(state.a.NumEdges(), state.b.NumEdges())) {
    return;
  }
  const size_t depth = state.mapping.size();
  const auto [us, vs] = state.mapping.back();
  std::vector<Candidate>& candidates = state.frames[depth];
  state.NextCandidates(state.frames[depth - 1], us, vs, candidates);
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
    // first so large common regions are found early: a counting pass orders
    // them by descending degree sum, keeping (u, v) order within a sum.
    std::vector<std::pair<VertexId, VertexId>> pairs;
    std::vector<size_t> sums;
    for (VertexId u = 0; u < a.NumVertices(); ++u) {
      for (VertexId v = 0; v < b.NumVertices(); ++v) {
        if (a.VertexLabel(u) != b.VertexLabel(v)) continue;
        pairs.emplace_back(u, v);
        sums.push_back(a.Degree(u) + b.Degree(v));
      }
    }
    const size_t max_sum =
        sums.empty() ? 0 : *std::max_element(sums.begin(), sums.end());
    // next_slot[max_sum - sum]: where the next seed of that sum goes.
    std::vector<size_t> next_slot(max_sum + 2, 0);
    for (size_t sum : sums) ++next_slot[max_sum - sum + 1];
    std::partial_sum(next_slot.begin(), next_slot.end(), next_slot.begin());
    std::vector<std::pair<VertexId, VertexId>> seeds(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      seeds[next_slot[max_sum - sums[i]]++] = pairs[i];
    }
    state.frames.resize(std::min(a.NumVertices(), b.NumVertices()) + 1);
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
