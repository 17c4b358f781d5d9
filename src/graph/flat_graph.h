#ifndef CATAPULT_GRAPH_FLAT_GRAPH_H_
#define CATAPULT_GRAPH_FLAT_GRAPH_H_

// Immutable CSR-style flat graph layout (DESIGN.md §15).
//
// `Graph` stays the mutable builder (parser, generators, pattern assembly);
// every subgraph-isomorphism test runs on `FlatGraph` / `FlatGraphView`: one
// offsets array indexing one packed adjacency array, built once after a
// graph stops changing.
//
// Layout invariants:
//  * `offsets` has NumVertices()+1 entries; the adjacency run of vertex v is
//    adj[offsets[v] .. offsets[v+1]). Degree is one subtraction.
//  * Adjacency entries keep the *insertion order* of the source `Graph`, so
//    every algorithm that iterates neighbours visits them in exactly the
//    order the nested-vector layout produced — node counts, truncation
//    points and tie-breaks are bit-identical to the pre-flat code.
//  * A parallel permutation array `sorted` orders each vertex's run by
//    (neighbour vertex label, neighbour id); edge lookups binary-search it
//    instead of scanning the run. The permutation is derived state: it never
//    changes iteration order, only lookup cost.
//  * Each adjacency entry carries the neighbour's vertex label inline
//    (`to_label`), so label filtering in matching loops touches one cache
//    line instead of chasing into the labels array.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/graph_database.h"

namespace catapult {

// One packed adjacency entry (12 bytes).
struct FlatNeighbor {
  VertexId to = 0;
  Label to_label = 0;   // vertex label of `to`, duplicated for locality
  Label edge_label = 0;
};

// Non-owning view over a flat graph: raw pointers + counts. This is the
// common parameter type of the flat kernels, so a standalone `FlatGraph`
// and an arena slice of a `FlatGraphDatabase` are interchangeable.
struct FlatGraphView {
  const Label* labels = nullptr;        // [num_vertices]
  const uint32_t* offsets = nullptr;    // [num_vertices + 1], run-relative
  const FlatNeighbor* adj = nullptr;    // [2 * num_edges], insertion order
  const uint32_t* sorted = nullptr;     // [2 * num_edges], per-vertex perm
  uint32_t num_vertices = 0;
  uint32_t num_edges = 0;

  size_t NumVertices() const { return num_vertices; }
  size_t NumEdges() const { return num_edges; }

  Label VertexLabel(VertexId v) const {
    CATAPULT_CHECK(v < num_vertices);
    return labels[v];
  }
  size_t Degree(VertexId v) const {
    CATAPULT_CHECK(v < num_vertices);
    return offsets[v + 1] - offsets[v];
  }

  // Insertion-order adjacency run of `v` (iteration-compatible with
  // Graph::Neighbors).
  const FlatNeighbor* NeighborsBegin(VertexId v) const {
    CATAPULT_CHECK(v < num_vertices);
    return adj + offsets[v];
  }
  const FlatNeighbor* NeighborsEnd(VertexId v) const {
    CATAPULT_CHECK(v < num_vertices);
    return adj + offsets[v + 1];
  }

  // Binary search over the sorted permutation: the adjacency entry for the
  // undirected edge {u, v}, or nullptr if absent. O(log degree(u)).
  const FlatNeighbor* FindEdge(VertexId u, VertexId v) const;

  bool HasEdge(VertexId u, VertexId v) const {
    return FindEdge(u, v) != nullptr;
  }

  // Label of the edge {u, v}; CHECK-fails if absent (matches
  // Graph::EdgeLabel).
  Label EdgeLabel(VertexId u, VertexId v) const;
};

// Owning flat graph built once from a `Graph`.
class FlatGraph {
 public:
  FlatGraph() = default;

  // Builds the flat layout from `g`. O(V + E log maxdeg).
  static FlatGraph Build(const Graph& g);

  size_t NumVertices() const { return labels_.size(); }
  size_t NumEdges() const { return num_edges_; }

  FlatGraphView View() const;

 private:
  std::vector<Label> labels_;
  std::vector<uint32_t> offsets_;
  std::vector<FlatNeighbor> adj_;
  std::vector<uint32_t> sorted_;
  uint32_t num_edges_ = 0;
};

// Per-graph candidate domains: for every distinct vertex label, a
// uint64_t-word bitset over the graph's vertices carrying that label.
// Root-candidate enumeration in the flat VF2 kernel iterates the set bits of
// the pattern root's label domain — the same ascending-id sequence the naive
// 0..V scan accepts, without touching the rejected vertices at all.
class LabelDomains {
 public:
  LabelDomains() = default;

  static LabelDomains Build(const FlatGraphView& g);

  // Words of the domain for `l` (words_per_domain() of them), or nullptr if
  // no vertex carries the label.
  const uint64_t* Words(Label l) const;

  // Number of vertices carrying `l` (0 if absent). Precomputed: rarity
  // ranking in root selection costs one lookup, not a popcount.
  size_t CountOf(Label l) const;

  size_t words_per_domain() const { return words_per_domain_; }
  size_t num_vertices() const { return num_vertices_; }
  size_t num_labels() const { return slot_labels_.size(); }

 private:
  int SlotOf(Label l) const;  // -1 if absent

  size_t num_vertices_ = 0;
  size_t words_per_domain_ = 0;
  std::vector<Label> slot_labels_;   // distinct labels, ascending
  std::vector<uint32_t> counts_;     // per slot
  std::vector<uint64_t> bits_;       // num_labels * words_per_domain
};

// A collection of graphs in one contiguous arena: one labels array, one
// offsets array, one adjacency array, one permutation array, plus a small
// per-graph metadata record and the graph's label domains. Views are sliced
// out of the shared arenas, so iterating graphs touches memory sequentially
// instead of per-graph heap islands. Every containment scan builds one.
class FlatGraphDatabase {
 public:
  FlatGraphDatabase() = default;

  static FlatGraphDatabase Build(const GraphDatabase& db);
  // The graphs `ids` of `db`, in that order: view(i) is db.graph(ids[i]).
  static FlatGraphDatabase Build(const GraphDatabase& db,
                                 const std::vector<GraphId>& ids);
  // Same arena build from free-standing graphs (e.g. CSG summary views).
  static FlatGraphDatabase Build(const std::vector<Graph>& graphs);

  size_t size() const { return metas_.size(); }

  FlatGraphView view(size_t id) const;
  const LabelDomains& domains(size_t id) const {
    CATAPULT_CHECK(id < domains_.size());
    return domains_[id];
  }

 private:
  struct Meta {
    uint64_t label_off = 0;
    uint64_t offset_off = 0;
    uint64_t adj_off = 0;
    uint32_t num_vertices = 0;
    uint32_t num_edges = 0;
  };

  static FlatGraphDatabase FromGraphs(const std::vector<const Graph*>& graphs);
  void Append(const Graph& g);

  std::vector<Label> label_arena_;
  std::vector<uint32_t> offset_arena_;
  std::vector<FlatNeighbor> adj_arena_;
  std::vector<uint32_t> sorted_arena_;
  std::vector<Meta> metas_;
  std::vector<LabelDomains> domains_;
};

}  // namespace catapult

#endif  // CATAPULT_GRAPH_FLAT_GRAPH_H_
