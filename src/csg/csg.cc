#include "src/csg/csg.h"

#include <algorithm>

#include "src/graph/algorithms.h"
#include "src/obs/metrics.h"
#include "src/util/thread_pool.h"

namespace catapult {

int ClusterSummaryGraph::FindEdge(VertexId u, VertexId v) const {
  if (u >= incident_.size() || v >= incident_.size()) return -1;
  const std::vector<size_t>& list =
      incident_[u].size() <= incident_[v].size() ? incident_[u]
                                                 : incident_[v];
  for (size_t idx : list) {
    const CsgEdge& e = edges_[idx];
    if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) {
      return static_cast<int>(idx);
    }
  }
  return -1;
}

Graph ClusterSummaryGraph::ToGraph() const {
  Graph g;
  for (Label label : vertex_labels_) g.AddVertex(label);
  for (const CsgEdge& e : edges_) g.AddEdge(e.u, e.v);
  return g;
}

double ClusterSummaryGraph::Compactness(double t) const {
  if (edges_.empty()) return 0.0;
  double threshold = t * static_cast<double>(cluster_size_);
  size_t heavy = 0;
  for (const CsgEdge& e : edges_) {
    if (static_cast<double>(e.support.Count()) >= threshold) ++heavy;
  }
  return static_cast<double>(heavy) / static_cast<double>(edges_.size());
}

VertexId ClusterSummaryGraph::AddVertex(Label label) {
  vertex_labels_.push_back(label);
  vertex_support_.emplace_back(cluster_size_);
  incident_.emplace_back();
  return static_cast<VertexId>(vertex_labels_.size() - 1);
}

void ClusterSummaryGraph::MarkVertex(VertexId v, size_t member) {
  CATAPULT_CHECK(v < vertex_support_.size());
  vertex_support_[v].Set(member);
}

void ClusterSummaryGraph::MarkEdge(VertexId u, VertexId v, size_t member) {
  CATAPULT_CHECK(u != v);
  int idx = FindEdge(u, v);
  if (idx < 0) {
    CsgEdge edge;
    edge.u = u;
    edge.v = v;
    edge.support = DynamicBitset(cluster_size_);
    edges_.push_back(std::move(edge));
    idx = static_cast<int>(edges_.size() - 1);
    incident_[u].push_back(static_cast<size_t>(idx));
    incident_[v].push_back(static_cast<size_t>(idx));
  }
  edges_[static_cast<size_t>(idx)].support.Set(member);
}

std::optional<ClusterSummaryGraph> ClusterSummaryGraph::FromParts(
    size_t cluster_size, std::vector<Label> vertex_labels,
    std::vector<DynamicBitset> vertex_support, std::vector<CsgEdge> edges) {
  if (cluster_size == 0) return std::nullopt;
  if (vertex_support.size() != vertex_labels.size()) return std::nullopt;
  for (const DynamicBitset& support : vertex_support) {
    if (support.size() != cluster_size) return std::nullopt;
  }
  ClusterSummaryGraph csg(cluster_size);
  csg.vertex_labels_ = std::move(vertex_labels);
  csg.vertex_support_ = std::move(vertex_support);
  csg.incident_.assign(csg.vertex_labels_.size(), {});
  for (size_t i = 0; i < edges.size(); ++i) {
    CsgEdge& e = edges[i];
    if (e.u >= csg.vertex_labels_.size() || e.v >= csg.vertex_labels_.size() ||
        e.u == e.v || e.support.size() != cluster_size) {
      return std::nullopt;
    }
    if (csg.FindEdge(e.u, e.v) >= 0) return std::nullopt;  // duplicate edge
    csg.incident_[e.u].push_back(i);
    csg.incident_[e.v].push_back(i);
    csg.edges_.push_back(std::move(e));
  }
  return csg;
}

namespace {

// Greedy label/adjacency-guided mapping of `g` into `csg` (the closure-tree
// heuristic): g's vertices are visited in BFS order from the highest-degree
// vertex (unreached vertices of a disconnected g appended in id order), and
// each takes the unused same-label summary vertex that realises the most
// edges to already-mapped neighbours (ties: the vertex supported by more
// members, then the lowest id). mapping[gv] is that summary vertex, or -1
// where none is left and folding pads a new one. Returns the visiting order.
std::vector<VertexId> GreedyFoldMapping(const ClusterSummaryGraph& csg,
                                        const Graph& g,
                                        std::vector<int>& mapping) {
  mapping.assign(g.NumVertices(), -1);
  if (g.NumVertices() == 0) return {};
  VertexId start = 0;
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > g.Degree(start)) start = v;
  }
  std::vector<VertexId> order = BfsOrder(g, start);
  if (order.size() < g.NumVertices()) {
    std::vector<bool> seen(g.NumVertices(), false);
    for (VertexId v : order) seen[v] = true;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (!seen[v]) order.push_back(v);
    }
  }
  std::vector<bool> summary_used(csg.NumVertices(), false);
  for (VertexId gv : order) {
    Label label = g.VertexLabel(gv);
    int best = -1;
    size_t best_adjacency = 0;
    size_t best_support = 0;
    for (VertexId sv = 0; sv < csg.NumVertices(); ++sv) {
      if (summary_used[sv] || csg.VertexLabel(sv) != label) continue;
      size_t adjacency = 0;
      for (const Graph::Neighbor& n : g.Neighbors(gv)) {
        int mapped = mapping[n.to];
        if (mapped >= 0 &&
            csg.FindEdge(sv, static_cast<VertexId>(mapped)) >= 0) {
          ++adjacency;
        }
      }
      size_t support = csg.VertexSupport(sv).Count();
      if (best < 0 || adjacency > best_adjacency ||
          (adjacency == best_adjacency && support > best_support)) {
        best = static_cast<int>(sv);
        best_adjacency = adjacency;
        best_support = support;
      }
    }
    mapping[gv] = best;
    if (best >= 0) summary_used[static_cast<VertexId>(best)] = true;
  }
  return order;
}

}  // namespace

double MappedEdgeFraction(const ClusterSummaryGraph& csg, const Graph& g) {
  if (g.NumEdges() == 0) return 0.0;
  std::vector<int> mapping;
  GreedyFoldMapping(csg, g, mapping);
  size_t mapped = 0;
  for (const Edge& e : g.EdgeList()) {
    int mu = mapping[e.u];
    int mv = mapping[e.v];
    if (mu >= 0 && mv >= 0 &&
        csg.FindEdge(static_cast<VertexId>(mu),
                     static_cast<VertexId>(mv)) >= 0) {
      ++mapped;
    }
  }
  return static_cast<double>(mapped) / static_cast<double>(g.NumEdges());
}

ClusterSummaryGraph BuildCsg(const GraphDatabase& db,
                             const std::vector<GraphId>& member_ids,
                             const RunContext& ctx, bool* complete) {
  if (complete != nullptr) *complete = true;
  ClusterSummaryGraph csg(member_ids.size());
  // Memory governance: every member folded grows the summary (vertices,
  // edges, and their member-support bitsets); the growth is charged after
  // each fold and a refused charge stops folding — a valid, just less
  // complete, closure. Under soft-limit pressure only the first half of the
  // members are folded (partial CSGs, the ladder's cheaper summary rung).
  const size_t per_vertex_bytes =
      ApproxBitsetBytes(member_ids.size()) + 56;
  const size_t per_edge_bytes = ApproxBitsetBytes(member_ids.size()) + 32;
  const size_t soft_member_cap =
      ctx.memory().SoftExceeded()
          ? std::max<size_t>(1, member_ids.size() / 2)
          : member_ids.size();
  size_t charged_vertices = 0;
  size_t charged_edges = 0;
  std::vector<int> mapping;
  for (size_t member = 0; member < member_ids.size(); ++member) {
    // Fold member 0 unconditionally (a non-empty cluster must yield a
    // non-empty summary); later members are skipped once the deadline
    // passes or the memory budget refuses the summary's growth, leaving a
    // valid partial closure.
    if (member > 0 && (member >= soft_member_cap ||
                       ctx.StopRequested("csg.fold_member"))) {
      if (complete != nullptr) *complete = false;
      break;
    }
    if (member > 0) {
      size_t delta = (csg.NumVertices() - charged_vertices) * per_vertex_bytes +
                     (csg.NumEdges() - charged_edges) * per_edge_bytes;
      if (delta > 0 && !ctx.memory().TryCharge(delta, "csg.fold")) {
        if (complete != nullptr) *complete = false;
        break;
      }
      charged_vertices = csg.NumVertices();
      charged_edges = csg.NumEdges();
    }
    const Graph& g = db.graph(member_ids[member]);
    if (g.NumVertices() == 0) continue;
    obs::Count(obs::Counter::kCsgFolds);

    // Map g onto the summary as it stands, then pad the unmapped vertices
    // in visiting order. Padding after the mapping equals padding during
    // it: a pad is used at once by the vertex it was made for and has no
    // edges until the member's edges are marked, so no later choice sees it.
    for (VertexId gv : GreedyFoldMapping(csg, g, mapping)) {
      if (mapping[gv] < 0) {
        obs::Count(obs::Counter::kCsgDummyPads);
        mapping[gv] = static_cast<int>(csg.AddVertex(g.VertexLabel(gv)));
      } else {
        obs::Count(obs::Counter::kCsgVerticesMapped);
      }
      csg.MarkVertex(static_cast<VertexId>(mapping[gv]), member);
    }
    for (const Edge& e : g.EdgeList()) {
      csg.MarkEdge(static_cast<VertexId>(mapping[e.u]),
                   static_cast<VertexId>(mapping[e.v]), member);
    }
  }
  return csg;
}

std::vector<ClusterSummaryGraph> BuildCsgs(
    const GraphDatabase& db,
    const std::vector<std::vector<GraphId>>& clusters, const RunContext& ctx,
    size_t* degraded) {
  if (degraded != nullptr) *degraded = 0;
  // Each cluster's closure fold is independent (rng-free, reads only its own
  // members, writes only its own summary slot), so folds run on the
  // context's thread pool; the degraded count is reduced in cluster order
  // afterwards. Memory charges land on the shared atomic ledger — with no
  // binding hard limit (the determinism contract's precondition) every
  // charge succeeds and the output is identical at any thread count.
  std::vector<ClusterSummaryGraph> csgs(clusters.size(),
                                        ClusterSummaryGraph(1));
  std::vector<uint8_t> complete(clusters.size(), 1);
  ParallelFor(ctx, clusters.size(), 1, [&](size_t c) {
    bool ok = true;
    csgs[c] = BuildCsg(db, clusters[c], ctx, &ok);
    complete[c] = ok ? 1 : 0;
  });
  if (degraded != nullptr) {
    for (uint8_t ok : complete) {
      if (ok == 0) ++*degraded;
    }
  }
  return csgs;
}

}  // namespace catapult
