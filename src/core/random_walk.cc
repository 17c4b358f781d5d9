#include "src/core/random_walk.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "src/obs/metrics.h"

namespace catapult {

WeightedCsg MakeWeightedCsg(const ClusterSummaryGraph& csg,
                            const EdgeLabelWeights& elw) {
  WeightedCsg wcsg;
  wcsg.csg = &csg;
  wcsg.edge_weights.reserve(csg.NumEdges());
  const double cluster_size = static_cast<double>(csg.cluster_size());
  for (const ClusterSummaryGraph::CsgEdge& e : csg.edges()) {
    EdgeLabelKey key =
        MakeEdgeLabelKey(csg.VertexLabel(e.u), csg.VertexLabel(e.v));
    double local = cluster_size > 0
                       ? static_cast<double>(e.support.Count()) / cluster_size
                       : 0.0;
    wcsg.edge_weights.push_back(elw.Get(key) * local);
  }
  return wcsg;
}

namespace {

// What a pick returns to stop growing.
constexpr size_t kStop = static_cast<size_t>(-1);

// The growth loop's buffers for one CSG, reused by every walk grown on it
// and by every step of a walk. `stamp` holds one stamp per CSG edge, drawn
// from one rising counter: a walk's stamp marks the edges it took, and each
// step's fresh stamp marks the edges already listed in that step's
// candidate adjacent edges (CAE), so each test is one comparison and
// nothing is cleared between steps or walks.
struct GrowthScratch {
  explicit GrowthScratch(size_t num_edges) : stamp(num_edges, 0) {}
  std::vector<uint64_t> stamp;
  uint64_t clock = 0;
  std::vector<size_t> cae;
  std::vector<double> weights;  // parallel to `cae` (weighted walks only)
  Pcp grown;
};

// Grows a connected set of CSG edges from `seed` into `scratch.grown`, one
// CAE per step, until it holds `target_edges` edges or `pick` returns
// kStop. Each step lists the CAE: the edges incident to the set's vertices
// that are not taken yet and that `eligible` admits, each once, at its
// first occurrence in the vertex set's visiting order. `pick` gets that
// list (possibly empty) and returns the position of the edge to take.
//
// The vertex set is a fresh unordered_set per walk on purpose: its
// iteration order is the CAE order, which reaches the draws, and a set
// reused across walks could carry a larger bucket count and so visit the
// same vertices in another order.
template <typename Eligible, typename Pick>
void GrowFromSeed(const ClusterSummaryGraph& csg, size_t seed,
                  size_t target_edges, const Eligible& eligible, Pick&& pick,
                  GrowthScratch& scratch) {
  Pcp& grown = scratch.grown;
  grown.clear();
  const uint64_t taken = ++scratch.clock;
  std::unordered_set<VertexId> vertices;
  for (size_t next = seed;;) {
    scratch.stamp[next] = taken;
    grown.push_back(next);
    vertices.insert(csg.edges()[next].u);
    vertices.insert(csg.edges()[next].v);
    if (grown.size() >= target_edges) break;
    const uint64_t listed = ++scratch.clock;
    scratch.cae.clear();
    for (VertexId v : vertices) {
      for (size_t idx : csg.IncidentEdges(v)) {
        // An edge incident to two pattern vertices is seen twice.
        uint64_t& stamp = scratch.stamp[idx];
        if (stamp == taken || stamp == listed || !eligible(idx)) continue;
        stamp = listed;
        scratch.cae.push_back(idx);
      }
    }
    const size_t at = pick(scratch.cae);
    if (at == kStop) break;
    next = scratch.cae[at];
  }
}

// The walks' seed: the largest weight (first such edge for determinism).
size_t HeaviestEdge(const WeightedCsg& wcsg) {
  const std::vector<double>& w = wcsg.edge_weights;
  return static_cast<size_t>(std::max_element(w.begin(), w.end()) -
                             w.begin());
}

// One weighted walk from `seed` into `scratch.grown` (Section 5).
void WeightedWalk(const WeightedCsg& wcsg, size_t seed, size_t target_edges,
                  Rng& rng, GrowthScratch& scratch) {
  const std::vector<double>& w = wcsg.edge_weights;
  GrowFromSeed(
      *wcsg.csg, seed, target_edges, [&](size_t idx) { return w[idx] > 0.0; },
      [&](const std::vector<size_t>& cae) {
        if (cae.empty()) {
          obs::Count(obs::Counter::kWalkDeadEnds);
          return kStop;
        }
        obs::Count(obs::Counter::kWalkSteps);
        scratch.weights.clear();
        for (size_t idx : cae) scratch.weights.push_back(w[idx]);
        return rng.WeightedIndex(scratch.weights);
      },
      scratch);
}

}  // namespace

Pcp GeneratePcp(const WeightedCsg& wcsg, size_t target_edges, Rng& rng) {
  if (wcsg.csg->NumEdges() == 0 || target_edges == 0) return Pcp();
  GrowthScratch scratch(wcsg.csg->NumEdges());
  WeightedWalk(wcsg, HeaviestEdge(wcsg), target_edges, rng, scratch);
  return std::move(scratch.grown);
}

std::vector<Pcp> GeneratePcpLibrary(const WeightedCsg& wcsg,
                                    size_t target_edges, size_t count,
                                    Rng& rng, const RunContext& ctx) {
  std::vector<Pcp> library;
  if (wcsg.csg->NumEdges() == 0 || target_edges == 0) return library;
  library.reserve(count);
  const size_t seed = HeaviestEdge(wcsg);
  GrowthScratch scratch(wcsg.csg->NumEdges());
  for (size_t walk = 0; walk < count; ++walk) {
    if (ctx.StopRequested("selector.pcp_walk")) break;
    WeightedWalk(wcsg, seed, target_edges, rng, scratch);
    obs::Count(obs::Counter::kPcpEmitted);
    obs::Observe(obs::Hist::kPcpEdges, scratch.grown.size());
    library.push_back(scratch.grown);
  }
  return library;
}

Pcp GenerateGreedyPcp(const WeightedCsg& wcsg, size_t target_edges) {
  if (wcsg.csg->NumEdges() == 0 || target_edges == 0) return Pcp();
  const std::vector<double>& w = wcsg.edge_weights;
  GrowthScratch scratch(wcsg.csg->NumEdges());
  GrowFromSeed(
      *wcsg.csg, HeaviestEdge(wcsg), target_edges,
      [&](size_t idx) { return w[idx] > 0.0; },
      [&](const std::vector<size_t>& cae) {
        if (cae.empty()) return kStop;
        return static_cast<size_t>(
            std::max_element(cae.begin(), cae.end(),
                             [&](size_t a, size_t b) { return w[a] < w[b]; }) -
            cae.begin());
      },
      scratch);
  return std::move(scratch.grown);
}

Pcp GenerateFcp(const ClusterSummaryGraph& csg,
                const std::vector<Pcp>& library, size_t target_edges) {
  if (library.empty() || target_edges == 0 || csg.NumEdges() == 0) {
    return Pcp();
  }

  // How many library PCPs hold each CSG edge.
  std::vector<size_t> frequency(csg.NumEdges(), 0);
  for (const Pcp& pcp : library) {
    for (size_t idx : pcp) ++frequency[idx];
  }

  // Most frequent edge first (ties: lowest index, deterministic). The order
  // is total, so the seed and each step's pick are its unique extremum.
  auto MoreFrequent = [&](size_t a, size_t b) {
    if (frequency[a] != frequency[b]) return frequency[a] > frequency[b];
    return a < b;
  };
  const size_t first = static_cast<size_t>(
      std::max_element(frequency.begin(), frequency.end()) -
      frequency.begin());
  if (frequency[first] == 0) return Pcp();
  GrowthScratch scratch(csg.NumEdges());
  GrowFromSeed(
      csg, first, target_edges,
      [&](size_t idx) { return frequency[idx] != 0; },
      [&](const std::vector<size_t>& cae) {
        if (cae.empty()) return kStop;
        return static_cast<size_t>(
            std::min_element(cae.begin(), cae.end(), MoreFrequent) -
            cae.begin());
      },
      scratch);
  return std::move(scratch.grown);
}

Graph PatternFromCsgEdges(const ClusterSummaryGraph& csg, const Pcp& edges) {
  Graph pattern;
  std::unordered_map<VertexId, VertexId> remap;
  auto MapVertex = [&](VertexId v) {
    auto it = remap.find(v);
    if (it != remap.end()) return it->second;
    VertexId nv = pattern.AddVertex(csg.VertexLabel(v));
    remap.emplace(v, nv);
    return nv;
  };
  for (size_t idx : edges) {
    const ClusterSummaryGraph::CsgEdge& e = csg.edges()[idx];
    pattern.AddEdge(MapVertex(e.u), MapVertex(e.v));
  }
  return pattern;
}

}  // namespace catapult
