#include "src/iso/flat_vf2.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace catapult {

namespace {

// One bookkeeping record per search, not per node.
void RecordSearch(uint64_t nodes, bool budget_exhausted) {
  obs::Count(obs::Counter::kVf2Calls);
  obs::Count(obs::Counter::kVf2Nodes, nodes);
  obs::Observe(obs::Hist::kVf2NodesPerCall, nodes);
  if (budget_exhausted) obs::Count(obs::Counter::kVf2BudgetExhausted);
}

// Root choice: rarest label in the target, ties broken by highest pattern
// degree, read from the precomputed domain counts.
VertexId PickRoot(const FlatGraphView& pattern, const LabelDomains& domains) {
  VertexId best = 0;
  size_t rb = domains.CountOf(pattern.VertexLabel(0));
  for (VertexId v = 1; v < pattern.num_vertices; ++v) {
    size_t rv = domains.CountOf(pattern.VertexLabel(v));
    if (rv < rb || (rv == rb && pattern.Degree(v) > pattern.Degree(best))) {
      best = v;
      rb = rv;
    }
  }
  return best;
}

// An embedding is injective and keeps vertex labels, so a target with fewer
// vertices of some label than the pattern has none.
bool LabelCountsFit(const FlatGraphView& pattern, const LabelDomains& domains) {
  std::vector<Label> labels(pattern.labels,
                            pattern.labels + pattern.num_vertices);
  std::sort(labels.begin(), labels.end());
  for (size_t i = 0, run_end = 0; i < labels.size(); i = run_end) {
    while (run_end < labels.size() && labels[run_end] == labels[i]) ++run_end;
    if (domains.CountOf(labels[i]) < run_end - i) return false;
  }
  return true;
}

// One backtracking search. Each complete embedding is handed to `visit` in
// search order; a visitor returning false stops the whole search.
template <typename Visit>
struct FlatSearch {
  const FlatGraphView& pattern;
  const FlatGraphView& target;
  const LabelDomains& domains;
  const IsoOptions& options;
  Visit& visit;
  std::vector<VertexId> order;
  std::vector<int> parent;
  std::vector<int> position;
  Embedding mapping;
  std::vector<bool> target_used;
  uint64_t nodes = 0;
  size_t found = 0;
  bool truncated = false;

  FlatSearch(const FlatGraphView& p, const FlatGraphView& t,
             const LabelDomains& d, const IsoOptions& opt, Visit& v)
      : pattern(p), target(t), domains(d), options(opt), visit(v) {
    // BFS matching order from the root, queued in `order` itself with
    // `position` as the seen mark. The pattern is connected by contract,
    // so every non-root vertex is discovered from an earlier vertex, which
    // becomes its anchor: its match constrains the candidate set to the
    // anchor's target neighbourhood.
    order.reserve(pattern.NumVertices());
    parent.assign(pattern.NumVertices(), -1);
    position.assign(pattern.NumVertices(), -1);
    VertexId root = PickRoot(pattern, domains);
    position[root] = 0;
    order.push_back(root);
    for (size_t head = 0; head < order.size(); ++head) {
      VertexId v = order[head];
      for (const FlatNeighbor* n = pattern.NeighborsBegin(v);
           n != pattern.NeighborsEnd(v); ++n) {
        if (position[n->to] < 0) {
          position[n->to] = static_cast<int>(order.size());
          parent[n->to] = static_cast<int>(v);
          order.push_back(n->to);
        }
      }
    }
    CATAPULT_CHECK_MSG(order.size() == pattern.NumVertices(),
                       "pattern must be connected");
    mapping.assign(pattern.NumVertices(), 0);
    target_used.assign(target.NumVertices(), false);
  }

  // True if tv's neighbour labels contain pv's as a multiset, as they must
  // when pv -> tv is part of an embedding. Both adjacency runs are sorted
  // by neighbour label (FlatGraphView::sorted), so one merge decides it.
  bool NeighborLabelsFit(VertexId pv, VertexId tv) const {
    const uint32_t* t = target.sorted + target.offsets[tv];
    const uint32_t* t_end = target.sorted + target.offsets[tv + 1];
    for (const uint32_t* p = pattern.sorted + pattern.offsets[pv];
         p != pattern.sorted + pattern.offsets[pv + 1]; ++p, ++t) {
      Label label = pattern.adj[*p].to_label;
      while (t != t_end && target.adj[*t].to_label < label) ++t;
      if (t == t_end || target.adj[*t].to_label != label) return false;
    }
    return true;
  }

  // Extends the embedding with pv -> tv (label compatibility already
  // established by the caller). Returns false only to stop the search.
  bool TryCandidate(size_t depth, VertexId pv, size_t pv_degree, VertexId tv) {
    if (target_used[tv]) return true;
    if (target.Degree(tv) < pv_degree) return true;
    if (!NeighborLabelsFit(pv, tv)) return true;
    for (const FlatNeighbor* n = pattern.NeighborsBegin(pv);
         n != pattern.NeighborsEnd(pv); ++n) {
      if (position[n->to] >= static_cast<int>(depth)) continue;  // unmatched
      const FlatNeighbor* e = target.FindEdge(tv, mapping[n->to]);
      if (e == nullptr) return true;
      if (options.match_edge_labels && e->edge_label != n->edge_label) {
        return true;
      }
    }
    if (options.induced) {
      for (size_t d = 0; d < depth; ++d) {
        VertexId other = order[d];
        if (!pattern.HasEdge(pv, other) &&
            target.HasEdge(tv, mapping[other])) {
          return true;
        }
      }
    }
    mapping[pv] = tv;
    target_used[tv] = true;
    bool keep_going = Backtrack(depth + 1);
    target_used[tv] = false;
    return keep_going;
  }

  bool Backtrack(size_t depth) {
    if (options.node_budget != 0 && nodes >= options.node_budget) {
      truncated = true;
      return false;
    }
    ++nodes;

    if (depth == order.size()) {
      ++found;
      return visit(mapping);
    }

    VertexId pv = order[depth];
    Label pv_label = pattern.VertexLabel(pv);
    size_t pv_degree = pattern.Degree(pv);

    if (depth == 0) {
      // Set bits of the root label's domain, ascending.
      const uint64_t* words = domains.Words(pv_label);
      if (words == nullptr) return true;
      size_t num_words = domains.words_per_domain();
      for (size_t w = 0; w < num_words; ++w) {
        uint64_t bits = words[w];
        while (bits != 0) {
          VertexId tv = static_cast<VertexId>(
              (w << 6) + static_cast<size_t>(__builtin_ctzll(bits)));
          bits &= bits - 1;
          if (!TryCandidate(depth, pv, pv_degree, tv)) return false;
        }
      }
    } else {
      VertexId anchor_tv = mapping[static_cast<VertexId>(parent[pv])];
      for (const FlatNeighbor* n = target.NeighborsBegin(anchor_tv);
           n != target.NeighborsEnd(anchor_tv); ++n) {
        if (n->to_label != pv_label) continue;
        if (!TryCandidate(depth, pv, pv_degree, n->to)) return false;
      }
    }
    return true;
  }
};

// Runs one search, handing each embedding to `visit` until it returns
// false; returns the number of embeddings visited.
template <typename Visit>
size_t Search(const FlatGraphView& pattern, const FlatGraphView& target,
              const LabelDomains* target_domains, const IsoOptions& options,
              Visit visit) {
  CATAPULT_CHECK(pattern.NumVertices() > 0);
  if (options.budget_exhausted != nullptr) {
    *options.budget_exhausted = false;
  }
  // Silent prechecks on sizes and label counts: no search, nothing recorded.
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return 0;
  }
  LabelDomains local;
  if (target_domains == nullptr) {
    local = LabelDomains::Build(target);
    target_domains = &local;
  }
  if (!LabelCountsFit(pattern, *target_domains)) return 0;
  FlatSearch<Visit> search(pattern, target, *target_domains, options, visit);
  search.Backtrack(0);
  if (options.budget_exhausted != nullptr) {
    *options.budget_exhausted = search.truncated;
  }
  RecordSearch(search.nodes, search.truncated);
  return search.found;
}

}  // namespace

bool FlatContainsSubgraph(const FlatGraphView& pattern,
                          const FlatGraphView& target,
                          const LabelDomains* target_domains,
                          IsoOptions options) {
  return Search(pattern, target, target_domains, options,
                [](const Embedding&) { return false; }) > 0;
}

std::vector<Embedding> FlatFindEmbeddings(const FlatGraphView& pattern,
                                          const FlatGraphView& target,
                                          const LabelDomains* target_domains,
                                          size_t max_count,
                                          IsoOptions options) {
  std::vector<Embedding> embeddings;
  Search(pattern, target, target_domains, options, [&](const Embedding& e) {
    embeddings.push_back(e);
    return max_count == 0 || embeddings.size() < max_count;
  });
  return embeddings;
}

DynamicBitset ContainingGraphs(const FlatGraphView& pattern,
                               const FlatGraphDatabase& db,
                               const DynamicBitset* restrict_to,
                               IsoOptions options) {
  DynamicBitset support(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    if (restrict_to != nullptr && !restrict_to->Test(i)) continue;
    if (FlatContainsSubgraph(pattern, db.view(i), &db.domains(i), options)) {
      support.Set(i);
    }
  }
  return support;
}

}  // namespace catapult
