#include "src/iso/ged.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace catapult {

namespace {

constexpr VertexId kEpsilon = static_cast<VertexId>(-1);  // deleted vertex

// Multiset-intersection size of two sorted label vectors.
size_t SortedIntersectionSize(const std::vector<Label>& a,
                              const std::vector<Label>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return common;
}

std::vector<Label> SortedLabels(const Graph& g) {
  std::vector<Label> labels(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) labels[v] = g.VertexLabel(v);
  std::sort(labels.begin(), labels.end());
  return labels;
}

struct GedSearch {
  const Graph& a;
  const Graph& b;
  const GedOptions& options;
  std::vector<VertexId> order;       // a-vertices in assignment order
  std::vector<VertexId> assignment;  // a-vertex -> b-vertex or kEpsilon
  std::vector<bool> b_used;
  double best = 0.0;
  uint64_t nodes = 0;
  bool exact = true;

  GedSearch(const Graph& a_in, const Graph& b_in, const GedOptions& opt)
      : a(a_in), b(b_in), options(opt) {
    order.resize(a.NumVertices());
    for (VertexId v = 0; v < a.NumVertices(); ++v) order[v] = v;
    std::stable_sort(order.begin(), order.end(), [&](VertexId l, VertexId r) {
      return a.Degree(l) > a.Degree(r);
    });
    assignment.assign(a.NumVertices(), kEpsilon);
    b_used.assign(b.NumVertices(), false);
  }

  // Incremental cost of assigning order[depth] -> bv (possibly kEpsilon),
  // given assignments for order[0..depth).
  double StepCost(size_t depth, VertexId bv) const {
    VertexId u = order[depth];
    double cost = 0.0;
    if (bv == kEpsilon) {
      cost += 1.0;  // vertex deletion
    } else if (a.VertexLabel(u) != b.VertexLabel(bv)) {
      cost += 1.0;  // vertex relabel
    }
    for (size_t d = 0; d < depth; ++d) {
      VertexId u2 = order[d];
      VertexId bv2 = assignment[u2];
      bool a_edge = a.HasEdge(u, u2);
      bool b_edge =
          (bv != kEpsilon && bv2 != kEpsilon) ? b.HasEdge(bv, bv2) : false;
      if (a_edge && b_edge) {
        if (a.EdgeLabel(u, u2) != b.EdgeLabel(bv, bv2)) cost += 1.0;
      } else if (a_edge != b_edge) {
        cost += 1.0;  // edge deletion or insertion
      }
    }
    return cost;
  }

  // Cost contributed at a leaf: unmatched b-vertices are inserted, along
  // with every b-edge touching at least one of them.
  double LeafCost() const {
    double cost = 0.0;
    for (VertexId v = 0; v < b.NumVertices(); ++v) {
      if (!b_used[v]) cost += 1.0;
    }
    for (const Edge& e : b.EdgeList()) {
      if (!b_used[e.u] || !b_used[e.v]) cost += 1.0;
    }
    return cost;
  }

  // Admissible lower bound on the remaining cost at `depth`: label-multiset
  // mismatch of undecided a-vertices vs unused b-vertices.
  double RemainingLowerBound(size_t depth) const {
    std::vector<Label> ra;
    ra.reserve(order.size() - depth);
    for (size_t d = depth; d < order.size(); ++d) {
      ra.push_back(a.VertexLabel(order[d]));
    }
    std::vector<Label> rb;
    for (VertexId v = 0; v < b.NumVertices(); ++v) {
      if (!b_used[v]) rb.push_back(b.VertexLabel(v));
    }
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    size_t common = SortedIntersectionSize(ra, rb);
    return static_cast<double>(std::max(ra.size(), rb.size()) - common);
  }

  void Dfs(size_t depth, double cost_so_far) {
    if (options.node_budget != 0 && nodes >= options.node_budget) {
      exact = false;
      return;
    }
    ++nodes;
    if (cost_so_far + RemainingLowerBound(depth) >= best) return;
    if (depth == order.size()) {
      double total = cost_so_far + LeafCost();
      if (total < best) best = total;
      return;
    }
    VertexId u = order[depth];
    // Prefer same-label b-vertices first (cheap moves explored early).
    std::vector<VertexId> candidates;
    for (VertexId v = 0; v < b.NumVertices(); ++v) {
      if (!b_used[v]) candidates.push_back(v);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](VertexId l, VertexId r) {
                       bool le = b.VertexLabel(l) == a.VertexLabel(u);
                       bool re = b.VertexLabel(r) == a.VertexLabel(u);
                       return le > re;
                     });
    for (VertexId v : candidates) {
      double step = StepCost(depth, v);
      assignment[u] = v;
      b_used[v] = true;
      Dfs(depth + 1, cost_so_far + step);
      b_used[v] = false;
      assignment[u] = kEpsilon;
      if (!exact) return;
    }
    // Delete u.
    double step = StepCost(depth, kEpsilon);
    assignment[u] = kEpsilon;
    Dfs(depth + 1, cost_so_far + step);
  }

  // Greedy upper bound to seed branch-and-bound.
  double GreedyUpperBound() {
    double cost = 0.0;
    for (size_t depth = 0; depth < order.size(); ++depth) {
      VertexId u = order[depth];
      double best_step = StepCost(depth, kEpsilon);
      VertexId best_v = kEpsilon;
      for (VertexId v = 0; v < b.NumVertices(); ++v) {
        if (b_used[v]) continue;
        double step = StepCost(depth, v);
        if (step < best_step) {
          best_step = step;
          best_v = v;
        }
      }
      assignment[u] = best_v;
      if (best_v != kEpsilon) b_used[best_v] = true;
      cost += best_step;
    }
    cost += LeafCost();
    // Reset state for the exact search.
    for (size_t depth = 0; depth < order.size(); ++depth) {
      VertexId u = order[depth];
      if (assignment[u] != kEpsilon) b_used[assignment[u]] = false;
      assignment[u] = kEpsilon;
    }
    return cost;
  }
};

}  // namespace

double GedLowerBound(const Graph& a, const Graph& b) {
  std::vector<Label> la = SortedLabels(a);
  std::vector<Label> lb = SortedLabels(b);
  size_t common = SortedIntersectionSize(la, lb);
  size_t va = a.NumVertices();
  size_t vb = b.NumVertices();
  double vertex_term =
      static_cast<double>(va > vb ? va - vb : vb - va) +
      static_cast<double>(std::min(va, vb) - common);
  size_t ea = a.NumEdges();
  size_t eb = b.NumEdges();
  double edge_term = static_cast<double>(ea > eb ? ea - eb : eb - ea);
  return vertex_term + edge_term;
}

GedResult GraphEditDistance(const Graph& a, const Graph& b,
                            GedOptions options) {
  GedSearch search(a, b, options);
  // `best` starts at the greedy bound + 1 ulp of slack so the exact search
  // can rediscover an equal-cost solution.
  search.best = search.GreedyUpperBound() + 1e-9;
  double greedy = search.best;
  search.Dfs(0, 0.0);
  obs::Count(obs::Counter::kGedCalls);
  obs::Count(obs::Counter::kGedNodes, search.nodes);
  if (!search.exact) obs::Count(obs::Counter::kGedBudgetExhausted);
  GedResult result;
  result.distance = std::min(search.best, greedy);
  // Strip the slack epsilon if nothing better was found.
  result.distance = std::round(result.distance);
  result.exact = search.exact;
  return result;
}

double GedGreedyUpperBound(const Graph& a, const Graph& b) {
  const GedOptions options;
  GedSearch search(a, b, options);
  return search.GreedyUpperBound();
}

}  // namespace catapult
