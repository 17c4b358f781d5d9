#ifndef CATAPULT_CSG_CSG_H_
#define CATAPULT_CSG_CSG_H_

#include <optional>
#include <vector>

#include "src/graph/graph_database.h"
#include "src/util/bitset.h"
#include "src/util/deadline.h"

namespace catapult {

// A cluster summary graph (Section 4.2): the closure graph of all data
// graphs in one cluster. Every vertex and edge carries the set of member
// graphs (by position within the cluster) containing it. Dummy labels never
// appear: a member graph simply leaves its bit unset on parts it lacks,
// which is equivalent to the paper's epsilon-removal.
class ClusterSummaryGraph {
 public:
  // One summarised edge with its supporting members.
  struct CsgEdge {
    VertexId u = 0;
    VertexId v = 0;
    DynamicBitset support;  // bit i: cluster member i contains this edge
  };

  ClusterSummaryGraph(size_t cluster_size) : cluster_size_(cluster_size) {}

  // Number of member graphs summarised.
  size_t cluster_size() const { return cluster_size_; }

  size_t NumVertices() const { return vertex_labels_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  Label VertexLabel(VertexId v) const {
    CATAPULT_CHECK(v < vertex_labels_.size());
    return vertex_labels_[v];
  }
  const DynamicBitset& VertexSupport(VertexId v) const {
    CATAPULT_CHECK(v < vertex_support_.size());
    return vertex_support_[v];
  }
  const std::vector<CsgEdge>& edges() const { return edges_; }

  // Edge indices incident to `v`.
  const std::vector<size_t>& IncidentEdges(VertexId v) const {
    CATAPULT_CHECK(v < incident_.size());
    return incident_[v];
  }

  // Index of edge {u, v}, or -1 if absent.
  int FindEdge(VertexId u, VertexId v) const;

  // Plain labelled-graph view (drops support sets). Used for the cluster-
  // coverage subgraph isomorphism tests and for compactness accounting.
  Graph ToGraph() const;

  // csg compactness xi_t (Section 6.1): fraction of summary edges contained
  // in at least t * cluster_size() member graphs.
  double Compactness(double t) const;

  // --- mutation API used by the builder ---
  VertexId AddVertex(Label label);
  void MarkVertex(VertexId v, size_t member);
  // Adds support of `member` to edge {u, v}, creating the edge if needed.
  void MarkEdge(VertexId u, VertexId v, size_t member);

  // Reconstructs a summary from serialized parts (the checkpoint decode
  // path), validating every invariant the mutation API normally guarantees:
  // support universes equal cluster_size, edge endpoints in range, no
  // self-loops, no duplicate edges. Returns std::nullopt instead of
  // aborting when the parts are inconsistent, so a corrupt checkpoint is a
  // recoverable condition.
  static std::optional<ClusterSummaryGraph> FromParts(
      size_t cluster_size, std::vector<Label> vertex_labels,
      std::vector<DynamicBitset> vertex_support, std::vector<CsgEdge> edges);

 private:
  size_t cluster_size_;
  std::vector<Label> vertex_labels_;
  std::vector<DynamicBitset> vertex_support_;
  std::vector<CsgEdge> edges_;
  std::vector<std::vector<size_t>> incident_;
};

// Builds the CSG of the cluster `member_ids` (graph ids into `db`) by
// iteratively closing each member into the summary (Section 4.2). The
// vertex mapping of each incoming graph is the greedy label/adjacency-guided
// heuristic of closure-trees [He & Singh, ICDE'06]: vertices are mapped in
// BFS order to same-label summary vertices maximising already-realised
// adjacency, and unmappable vertices extend the summary (the paper's dummy-
// vertex extension). Folding polls `ctx` between members (failpoint site
// "csg.fold_member"). The first member is always folded, so the summary is
// never empty for a non-empty cluster; on expiry the remaining members are
// simply not folded (their support bits stay unset), which is a valid —
// just less complete — closure. `complete` (optional) reports whether every
// member was folded.
ClusterSummaryGraph BuildCsg(const GraphDatabase& db,
                             const std::vector<GraphId>& member_ids,
                             const RunContext& ctx = RunContext::NoLimit(),
                             bool* complete = nullptr);

// Dry-run of the closure step: maps `g` onto `csg` with the greedy mapping
// BuildCsg folds every member through, without mutating the summary, and
// returns the fraction of g's edges that land on existing summary edges
// (1.0 = g folds in with no growth). Used by incremental maintenance as a
// structural affinity score.
double MappedEdgeFraction(const ClusterSummaryGraph& csg, const Graph& g);

// Builds one CSG per cluster, always (selection relies on the 1:1
// correspondence), but clusters whose turn comes after `ctx` expires get a
// summary folded from fewer members. `degraded` (optional) receives the
// number of partially folded summaries. Per-cluster folds are independent
// and run on the context's thread pool; with no binding memory hard limit
// the result is identical at every thread count.
std::vector<ClusterSummaryGraph> BuildCsgs(
    const GraphDatabase& db,
    const std::vector<std::vector<GraphId>>& clusters,
    const RunContext& ctx = RunContext::NoLimit(), size_t* degraded = nullptr);

}  // namespace catapult

#endif  // CATAPULT_CSG_CSG_H_
