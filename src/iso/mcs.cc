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

// A mapping pair's share of its set's hash. A set hashes to the wrapping sum
// of its pairs' shares, so the hash does not depend on insertion order.
uint64_t PairHash(VertexId u, VertexId v) {
  uint64_t x = (static_cast<uint64_t>(u) << 32) | v;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The connected search's mapping sets whose subtrees were walked to the end,
// each with the nodes that subtree counted (itself included); see
// ConnectedExtend. The set's hash only picks an open-addressing slot: a hit
// also needs the same size and every stored pair (u, v) in the current
// mapping, so a hash collision is never trusted. It stops taking entries at
// a fixed cap on entries and on stored pairs; the entry cap is above every
// shipped node budget, and each walked node stores at most one entry.
class SubtreeMemo {
 public:
  // The stored count of the current mapping set, or 0 if none is stored.
  uint64_t Find(uint64_t hash,
                const std::vector<std::pair<VertexId, VertexId>>& mapping,
                const std::vector<VertexId>& a_image) const {
    if (slots_.empty()) return 0;
    const size_t mask = slots_.size() - 1;
    for (size_t s = hash & mask; slots_[s] != 0; s = (s + 1) & mask) {
      const Entry& e = entries_[slots_[s] - 1];
      if (e.hash == hash && e.size == mapping.size() &&
          std::all_of(pairs_.begin() + e.first,
                      pairs_.begin() + e.first + e.size,
                      [&a_image](const std::pair<VertexId, VertexId>& p) {
                        return a_image[p.first] == p.second;
                      })) {
        return e.nodes;
      }
    }
    return 0;
  }

  void Insert(uint64_t hash,
              const std::vector<std::pair<VertexId, VertexId>>& mapping,
              uint64_t nodes) {
    if (entries_.size() == kMaxEntries ||
        pairs_.size() + mapping.size() > kMaxPairs) {
      return;
    }
    if (2 * (entries_.size() + 1) > slots_.size()) {
      slots_.assign(std::max<size_t>(64, 2 * slots_.size()), 0);
      for (uint32_t i = 0; i < entries_.size(); ++i) Place(i);
    }
    entries_.push_back({hash, static_cast<uint32_t>(pairs_.size()),
                        static_cast<uint32_t>(mapping.size()), nodes});
    pairs_.insert(pairs_.end(), mapping.begin(), mapping.end());
    Place(static_cast<uint32_t>(entries_.size() - 1));
  }

 private:
  static constexpr size_t kMaxEntries = size_t{1} << 13;
  static constexpr size_t kMaxPairs = size_t{1} << 18;

  struct Entry {
    uint64_t hash;
    uint32_t first;  // the set's pairs are pairs_[first, first + size)
    uint32_t size;
    uint64_t nodes;
  };

  void Place(uint32_t i) {
    const size_t mask = slots_.size() - 1;
    size_t s = entries_[i].hash & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = i + 1;
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;  // entry index + 1, or 0 when empty
  std::vector<std::pair<VertexId, VertexId>> pairs_;
};

// Shared search state for both the connected and the unconnected variant.
struct SearchState {
  const Graph& a;
  const Graph& b;
  const McsOptions& options;
  std::vector<VertexId> a_image;  // a-vertex -> b-vertex or kUnmapped
  std::vector<bool> b_used;
  std::vector<std::pair<VertexId, VertexId>> mapping;
  uint64_t mapping_hash = 0;  // sum of PairHash over the mapping
  size_t current_edges = 0;
  uint64_t nodes = 0;    // counted against the budget, walked or reused
  uint64_t skipped = 0;  // counted through the memo without a walk
  bool exact = true;
  McsResult best;
  NeighborMark a_mark;
  NeighborMark b_mark;
  // Connected search: frames[d] holds the candidates of the node whose
  // mapping has d pairs, reused for the whole call; frames[0] stays empty.
  std::vector<std::vector<Candidate>> frames;
  std::vector<bool> seen;  // (slot in N_a(u*), slot in N_b(v*)) scratch
  SubtreeMemo memo;        // connected search only

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
    mapping_hash += PairHash(u, v);
    current_edges += gain;
  }

  void Pop(size_t gain) {
    auto [u, v] = mapping.back();
    mapping.pop_back();
    mapping_hash -= PairHash(u, v);
    a_image[u] = kUnmapped;
    b_used[v] = false;
    current_edges -= gain;
  }

  // At a node, already counted, whose mapping set the memo holds: counts the
  // rest of its subtree as the walk would, or stops where the walk's budget
  // check would have. Returns false when the set was never stored.
  bool ReuseSubtree() {
    const uint64_t stored = memo.Find(mapping_hash, mapping, a_image);
    if (stored == 0) return false;
    const uint64_t below = stored - 1;
    if (options.node_budget != 0 && nodes + below > options.node_budget) {
      skipped += options.node_budget - nodes;
      nodes = options.node_budget;
      exact = false;
    } else {
      skipped += below;
      nodes += below;
    }
    return true;
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
//
// A node's subtree depends only on its mapping set M, not on the order M was
// built in: its candidates are every unmapped label-equal pair with a common
// edge to M, each gaining its common-edge count to M, sorted by (gain desc,
// u, v), and current_edges is M's common-edge count. Once M's subtree was
// walked to the end with best below min(|Ea|, |Eb|), best dominates every
// node in it (RecordBest needs a strict improvement), so walking it again
// would only count nodes: the memo counts them instead.
void ConnectedExtend(SearchState& state) {
  if (state.BudgetExhausted()) return;
  state.RecordBest();
  // Every common edge uses a distinct edge of each graph, so nothing beats
  // min(|Ea|, |Eb|) edges; there is no other bound.
  const size_t most_edges = std::min(state.a.NumEdges(), state.b.NumEdges());
  if (state.best.common_edges >= most_edges) return;
  // A depth-1 set is a seed, and each seed is tried once.
  const size_t depth = state.mapping.size();
  if (depth >= 2 && state.ReuseSubtree()) return;
  const uint64_t entered = state.nodes;
  const auto [us, vs] = state.mapping.back();
  std::vector<Candidate>& candidates = state.frames[depth];
  state.NextCandidates(state.frames[depth - 1], us, vs, candidates);
  for (const Candidate& c : candidates) {
    state.Push(c.u, c.v, c.gain);
    ConnectedExtend(state);
    state.Pop(c.gain);
    if (!state.exact) return;
  }
  if (depth >= 2 && state.best.common_edges < most_edges) {
    state.memo.Insert(state.mapping_hash, state.mapping,
                      state.nodes - entered + 1);
  }
}

// Unconnected MCS: decide a-vertices in a fixed order (map or skip).
// remaining[index] bounds the common edges still to gain: the a-edges with
// an endpoint in order[index..].
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
    const std::vector<VertexId> order = DegreeOrder(a);
    std::vector<size_t> position(order.size());
    for (size_t d = 0; d < order.size(); ++d) position[order[d]] = d;
    UnconnectedExtend(state, order, OpenEdgesByDepth(a, position), 0);
  }
  obs::Count(obs::Counter::kMcsCalls);
  obs::Count(obs::Counter::kMcsNodes, state.nodes);
  obs::Count(obs::Counter::kMcsNodesWalked, state.nodes - state.skipped);
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
