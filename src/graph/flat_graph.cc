#include "src/graph/flat_graph.h"

#include <algorithm>

namespace catapult {

namespace {

// Sort key of an adjacency entry under the lookup permutation.
inline uint64_t SortKey(const FlatNeighbor& n) {
  return (static_cast<uint64_t>(n.to_label) << 32) | n.to;
}

// Builds the per-vertex (to_label, to)-sorted permutation of [begin, end)
// adjacency runs delimited by `offsets`, writing absolute adjacency indices
// into `sorted` (same indexing as `adj`).
void BuildSortedPermutation(const std::vector<uint32_t>& offsets,
                            const std::vector<FlatNeighbor>& adj,
                            size_t adj_base, size_t num_vertices,
                            std::vector<uint32_t>& sorted) {
  for (size_t v = 0; v < num_vertices; ++v) {
    uint32_t lo = offsets[v];
    uint32_t hi = offsets[v + 1];
    for (uint32_t k = lo; k < hi; ++k) sorted.push_back(k);
    uint32_t* first = sorted.data() + sorted.size() - (hi - lo);
    std::sort(first, first + (hi - lo), [&](uint32_t l, uint32_t r) {
      return SortKey(adj[adj_base + l]) < SortKey(adj[adj_base + r]);
    });
  }
}

}  // namespace

const FlatNeighbor* FlatGraphView::FindEdge(VertexId u, VertexId v) const {
  CATAPULT_CHECK(u < num_vertices);
  CATAPULT_CHECK(v < num_vertices);
  uint64_t key = (static_cast<uint64_t>(labels[v]) << 32) | v;
  uint32_t lo = offsets[u];
  uint32_t hi = offsets[u + 1];
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    const FlatNeighbor& n = adj[sorted[mid]];
    uint64_t k = (static_cast<uint64_t>(n.to_label) << 32) | n.to;
    if (k < key) {
      lo = mid + 1;
    } else if (k > key) {
      hi = mid;
    } else {
      return &adj[sorted[mid]];
    }
  }
  return nullptr;
}

Label FlatGraphView::EdgeLabel(VertexId u, VertexId v) const {
  const FlatNeighbor* n = FindEdge(u, v);
  CATAPULT_CHECK_MSG(n != nullptr, "edge not present");
  return n->edge_label;
}

FlatGraph FlatGraph::Build(const Graph& g) {
  FlatGraph flat;
  size_t v_count = g.NumVertices();
  flat.num_edges_ = static_cast<uint32_t>(g.NumEdges());
  flat.labels_.reserve(v_count);
  for (VertexId v = 0; v < v_count; ++v) flat.labels_.push_back(g.VertexLabel(v));

  flat.offsets_.reserve(v_count + 1);
  flat.offsets_.push_back(0);
  flat.adj_.reserve(2 * g.NumEdges());
  for (VertexId v = 0; v < v_count; ++v) {
    for (const Graph::Neighbor& n : g.Neighbors(v)) {
      flat.adj_.push_back({n.to, flat.labels_[n.to], n.edge_label});
    }
    flat.offsets_.push_back(static_cast<uint32_t>(flat.adj_.size()));
  }
  flat.sorted_.reserve(flat.adj_.size());
  BuildSortedPermutation(flat.offsets_, flat.adj_, 0, v_count, flat.sorted_);
  return flat;
}

FlatGraphView FlatGraph::View() const {
  FlatGraphView view;
  view.labels = labels_.data();
  view.offsets = offsets_.data();
  view.adj = adj_.data();
  view.sorted = sorted_.data();
  view.num_vertices = static_cast<uint32_t>(labels_.size());
  view.num_edges = num_edges_;
  return view;
}

void FlatGraphDatabase::Append(const Graph& g) {
  Meta meta;
  meta.label_off = label_arena_.size();
  meta.offset_off = offset_arena_.size();
  meta.adj_off = adj_arena_.size();
  meta.num_vertices = static_cast<uint32_t>(g.NumVertices());
  meta.num_edges = static_cast<uint32_t>(g.NumEdges());

  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    label_arena_.push_back(g.VertexLabel(v));
  }
  // Per-graph offsets are run-relative so a view's `offsets` indexes its
  // `adj` slice directly.
  std::vector<uint32_t> offsets;
  offsets.reserve(g.NumVertices() + 1);
  offsets.push_back(0);
  size_t run = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Graph::Neighbor& n : g.Neighbors(v)) {
      adj_arena_.push_back(
          {n.to, label_arena_[meta.label_off + n.to], n.edge_label});
      ++run;
    }
    offsets.push_back(static_cast<uint32_t>(run));
  }
  std::vector<uint32_t> sorted;
  sorted.reserve(run);
  BuildSortedPermutation(offsets, adj_arena_, meta.adj_off, g.NumVertices(),
                         sorted);
  offset_arena_.insert(offset_arena_.end(), offsets.begin(), offsets.end());
  sorted_arena_.insert(sorted_arena_.end(), sorted.begin(), sorted.end());
  metas_.push_back(meta);
}

FlatGraphDatabase FlatGraphDatabase::FromGraphs(
    const std::vector<const Graph*>& graphs) {
  FlatGraphDatabase out;
  size_t vertices = 0;
  size_t edges = 0;
  for (const Graph* g : graphs) {
    vertices += g->NumVertices();
    edges += g->NumEdges();
  }
  out.label_arena_.reserve(vertices);
  out.offset_arena_.reserve(vertices + graphs.size());
  out.adj_arena_.reserve(2 * edges);
  out.sorted_arena_.reserve(2 * edges);
  out.metas_.reserve(graphs.size());
  for (const Graph* g : graphs) out.Append(*g);
  out.domains_.reserve(graphs.size());
  for (size_t id = 0; id < graphs.size(); ++id) {
    out.domains_.push_back(LabelDomains::Build(out.view(id)));
  }
  return out;
}

FlatGraphDatabase FlatGraphDatabase::Build(const GraphDatabase& db) {
  return Build(db.graphs());
}

FlatGraphDatabase FlatGraphDatabase::Build(const GraphDatabase& db,
                                           const std::vector<GraphId>& ids) {
  std::vector<const Graph*> graphs;
  graphs.reserve(ids.size());
  for (GraphId id : ids) graphs.push_back(&db.graph(id));
  return FromGraphs(graphs);
}

FlatGraphDatabase FlatGraphDatabase::Build(const std::vector<Graph>& graphs) {
  std::vector<const Graph*> pointers;
  pointers.reserve(graphs.size());
  for (const Graph& g : graphs) pointers.push_back(&g);
  return FromGraphs(pointers);
}

FlatGraphView FlatGraphDatabase::view(size_t id) const {
  CATAPULT_CHECK(id < metas_.size());
  const Meta& meta = metas_[id];
  FlatGraphView view;
  view.labels = label_arena_.data() + meta.label_off;
  view.offsets = offset_arena_.data() + meta.offset_off;
  view.adj = adj_arena_.data() + meta.adj_off;
  view.sorted = sorted_arena_.data() + meta.adj_off;
  view.num_vertices = meta.num_vertices;
  view.num_edges = meta.num_edges;
  return view;
}

LabelDomains LabelDomains::Build(const FlatGraphView& g) {
  LabelDomains out;
  out.num_vertices_ = g.NumVertices();
  out.words_per_domain_ = (g.NumVertices() + 63) / 64;

  out.slot_labels_.assign(g.labels, g.labels + g.num_vertices);
  std::sort(out.slot_labels_.begin(), out.slot_labels_.end());
  out.slot_labels_.erase(
      std::unique(out.slot_labels_.begin(), out.slot_labels_.end()),
      out.slot_labels_.end());

  out.counts_.assign(out.slot_labels_.size(), 0);
  out.bits_.assign(out.slot_labels_.size() * out.words_per_domain_, 0);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    int slot = out.SlotOf(g.labels[v]);
    CATAPULT_CHECK(slot >= 0);
    ++out.counts_[slot];
    out.bits_[static_cast<size_t>(slot) * out.words_per_domain_ + (v >> 6)] |=
        uint64_t{1} << (v & 63);
  }
  return out;
}

int LabelDomains::SlotOf(Label l) const {
  auto it = std::lower_bound(slot_labels_.begin(), slot_labels_.end(), l);
  if (it == slot_labels_.end() || *it != l) return -1;
  return static_cast<int>(it - slot_labels_.begin());
}

const uint64_t* LabelDomains::Words(Label l) const {
  int slot = SlotOf(l);
  if (slot < 0) return nullptr;
  return bits_.data() + static_cast<size_t>(slot) * words_per_domain_;
}

size_t LabelDomains::CountOf(Label l) const {
  int slot = SlotOf(l);
  return slot < 0 ? 0 : counts_[slot];
}

}  // namespace catapult
