#include "src/iso/ged.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/iso/neighbor_mark.h"
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

// Depth-first branch-and-bound over edit paths. a's vertices are decided in
// a fixed order (highest degree first), each onto an unused b-vertex or
// deleted. The lower bound at a node (RemainingLowerBound) reads
// per-label-class counts of the undecided a-vertices and the unused
// b-vertices, and the open edge counts of both sides. An a-edge is open
// while an endpoint is undecided, which depends on the depth only (open_a);
// a b-edge is open while an endpoint is unused. Place keeps the path and
// open_b; Decide and Undo also keep the class counts. The greedy pass needs
// only Place: its leaf cost is the unused b-vertices plus open_b. So the
// constructor builds what both passes read, and BuildBoundTables the rest,
// once the exact search is about to run.
struct GedSearch {
  const Graph& a;
  const Graph& b;
  const GedOptions& options;
  std::vector<VertexId> order;       // a-vertices in decision order
  std::vector<size_t> position;      // a-vertex -> index in order
  std::vector<VertexId> assignment;  // a-vertex -> b-vertex or kEpsilon
  std::vector<VertexId> owner;       // b-vertex -> a-vertex or kEpsilon
  NeighborMark b_mark;
  std::vector<uint32_t> a_class;  // a-vertex -> label class
  std::vector<uint32_t> b_class;  // b-vertex -> label class
  std::vector<size_t> undecided;  // label class -> undecided a-vertices
  std::vector<size_t> unused;     // label class -> unused b-vertices
  std::vector<size_t> open_a;     // depth -> a-edges with an undecided end
  std::vector<size_t> closed_b;   // a-vertex -> b-edges its image closed
  size_t unused_total = 0;
  size_t common = 0;  // sum over classes of min(undecided, unused)
  size_t open_b = 0;  // b-edges with an unused endpoint
  double best = 0.0;
  uint64_t nodes = 0;
  bool exact = true;

  GedSearch(const Graph& a_in, const Graph& b_in, const GedOptions& opt)
      : a(a_in),
        b(b_in),
        options(opt),
        order(DegreeOrder(a_in)),
        position(a_in.NumVertices()),
        assignment(a_in.NumVertices(), kEpsilon),
        owner(b_in.NumVertices(), kEpsilon),
        b_mark(b_in.NumVertices()),
        unused_total(b_in.NumVertices()),
        open_b(b_in.NumEdges()) {
    for (size_t d = 0; d < order.size(); ++d) position[order[d]] = d;
  }

  // The tables only the exact search reads: label classes and their counts,
  // open_a, and closed_b for Undo.
  void BuildBoundTables() {
    open_a = OpenEdgesByDepth(a, position);
    closed_b.assign(a.NumVertices(), 0);
    a_class.resize(a.NumVertices());
    b_class.resize(b.NumVertices());
    std::vector<Label> labels;
    for (VertexId v = 0; v < a.NumVertices(); ++v) {
      labels.push_back(a.VertexLabel(v));
    }
    for (VertexId v = 0; v < b.NumVertices(); ++v) {
      labels.push_back(b.VertexLabel(v));
    }
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    auto class_of = [&labels](Label l) {
      return static_cast<uint32_t>(
          std::lower_bound(labels.begin(), labels.end(), l) - labels.begin());
    };
    undecided.assign(labels.size(), 0);
    unused.assign(labels.size(), 0);
    for (VertexId v = 0; v < a.NumVertices(); ++v) {
      a_class[v] = class_of(a.VertexLabel(v));
      ++undecided[a_class[v]];
    }
    for (VertexId v = 0; v < b.NumVertices(); ++v) {
      b_class[v] = class_of(b.VertexLabel(v));
      ++unused[b_class[v]];
    }
    for (size_t c = 0; c < labels.size(); ++c) {
      common += std::min(undecided[c], unused[c]);
    }
  }

  // Puts u onto bv (or deletes it) and keeps open_b matching: bv's edges to
  // used b-vertices lose their last unused endpoint. Returns how many.
  size_t Place(VertexId u, VertexId bv) {
    assignment[u] = bv;
    if (bv == kEpsilon) return 0;
    size_t closed = 0;
    for (const Graph::Neighbor& n : b.Neighbors(bv)) {
      if (owner[n.to] != kEpsilon) ++closed;
    }
    open_b -= closed;
    owner[bv] = u;
    --unused_total;
    return closed;
  }

  // Place, keeping the class counts too (after BuildBoundTables).
  void Decide(VertexId u, VertexId bv) {
    if (undecided[a_class[u]]-- <= unused[a_class[u]]) --common;
    closed_b[u] = Place(u, bv);
    if (bv != kEpsilon && unused[b_class[bv]]-- <= undecided[b_class[bv]]) {
      --common;
    }
  }

  void Undo(VertexId u) {
    VertexId bv = assignment[u];
    if (bv != kEpsilon) {
      owner[bv] = kEpsilon;
      open_b += closed_b[u];
      ++unused_total;
      if (++unused[b_class[bv]] <= undecided[b_class[bv]]) ++common;
    }
    if (++undecided[a_class[u]] <= unused[a_class[u]]) ++common;
    assignment[u] = kEpsilon;
  }

  // Incremental cost of assigning order[depth] -> bv (possibly kEpsilon),
  // given assignments for order[0..depth): the vertex edit, plus every edge
  // to a decided vertex that exists on one side only or changes label. u's
  // decided neighbours and bv's used neighbours are counted once each; the
  // pairs adjacent on both sides are counted twice there and taken back.
  double StepCost(size_t depth, VertexId bv) {
    VertexId u = order[depth];
    double cost = 0.0;
    if (bv == kEpsilon) {
      cost += 1.0;  // vertex deletion
    } else if (a.VertexLabel(u) != b.VertexLabel(bv)) {
      cost += 1.0;  // vertex relabel
    }
    size_t a_edges = 0;     // u's edges to decided vertices
    size_t b_edges = 0;     // bv's edges to used b-vertices
    size_t both = 0;        // edges present on both sides
    size_t relabelled = 0;  // ... with different edge labels
    const std::vector<Graph::Neighbor>* nb = nullptr;
    if (bv != kEpsilon) {
      nb = &b.Neighbors(bv);
      b_mark.Mark(b, bv);
      for (const Graph::Neighbor& n : *nb) {
        if (owner[n.to] != kEpsilon) ++b_edges;
      }
    }
    for (const Graph::Neighbor& na : a.Neighbors(u)) {
      if (position[na.to] >= depth) continue;
      ++a_edges;
      VertexId image = assignment[na.to];
      if (nb == nullptr || image == kEpsilon) continue;
      int slot = b_mark.Slot(image);
      if (slot < 0) continue;
      ++both;
      if (na.edge_label != (*nb)[slot].edge_label) ++relabelled;
    }
    return cost +
           static_cast<double>(a_edges + b_edges - 2 * both + relabelled);
  }

  // Admissible lower bound on the remaining cost at `depth`: the
  // label-multiset mismatch of undecided a-vertices vs unused b-vertices,
  // plus ||open_a| - |open_b||, since a completion keeps each open edge only
  // by matching it to an open edge on the other side and pays for every
  // other one. At the root this is GedLowerBound(a, b). At a leaf it is
  // exact: every unused b-vertex and every open b-edge is inserted.
  double RemainingLowerBound(size_t depth) const {
    size_t vertex_term = std::max(order.size() - depth, unused_total) - common;
    size_t edge_term = open_a[depth] > open_b ? open_a[depth] - open_b
                                              : open_b - open_a[depth];
    return static_cast<double>(vertex_term + edge_term);
  }

  // Greedy upper bound: each a-vertex in order takes its cheapest step;
  // ties go to deletion, then to the lowest-numbered unused b-vertex. At
  // the leaf every unused b-vertex and open b-edge is inserted. Leaves the
  // path empty again.
  double GreedyUpperBound() {
    double cost = 0.0;
    for (size_t depth = 0; depth < order.size(); ++depth) {
      VertexId u = order[depth];
      double best_step = StepCost(depth, kEpsilon);
      VertexId best_v = kEpsilon;
      for (VertexId v = 0; v < b.NumVertices(); ++v) {
        if (owner[v] != kEpsilon) continue;
        double step = StepCost(depth, v);
        if (step < best_step) {
          best_step = step;
          best_v = v;
        }
      }
      Place(u, best_v);
      cost += best_step;
    }
    cost += static_cast<double>(unused_total + open_b);
    for (VertexId u : order) {
      if (assignment[u] != kEpsilon) owner[assignment[u]] = kEpsilon;
      assignment[u] = kEpsilon;
    }
    unused_total = b.NumVertices();
    open_b = b.NumEdges();
    return cost;
  }

  void Dfs(size_t depth, double cost_so_far) {
    if (options.node_budget != 0 && nodes >= options.node_budget) {
      exact = false;
      return;
    }
    ++nodes;
    double bound = cost_so_far + RemainingLowerBound(depth);
    if (bound >= best) return;
    if (depth == order.size()) {
      best = bound;  // exact at a leaf
      return;
    }
    VertexId u = order[depth];
    // Same-label b-vertices first (cheap moves explored early), each group
    // in ascending order.
    for (bool same_label : {true, false}) {
      for (VertexId v = 0; v < b.NumVertices(); ++v) {
        if (owner[v] != kEpsilon ||
            (b_class[v] == a_class[u]) != same_label) {
          continue;
        }
        double step = StepCost(depth, v);
        Decide(u, v);
        Dfs(depth + 1, cost_so_far + step);
        Undo(u);
        if (!exact) return;
      }
    }
    // Delete u.
    double step = StepCost(depth, kEpsilon);
    Decide(u, kEpsilon);
    Dfs(depth + 1, cost_so_far + step);
    Undo(u);
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
  search.BuildBoundTables();
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
