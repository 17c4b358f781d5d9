#include "src/core/random_walk.h"

#include <algorithm>
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

// Grows a connected set of CSG edges from `seed`, one candidate adjacent
// edge (CAE) per step, until it holds `target_edges` edges or `pick`
// returns kStop. Each step lists the CAE: the edges incident to the set's
// vertices that are not taken yet and that `eligible` admits, deduplicated,
// in the vertex set's visiting order. `pick` gets that list (possibly
// empty) and returns the position of the edge to take.
template <typename Eligible, typename Pick>
Pcp GrowFromSeed(const ClusterSummaryGraph& csg, size_t seed,
                 size_t target_edges, const Eligible& eligible, Pick&& pick) {
  Pcp grown;
  std::vector<bool> edge_in(csg.NumEdges(), false);
  std::unordered_set<VertexId> vertices;
  std::vector<size_t> cae;  // one frontier buffer for every step
  for (size_t next = seed;;) {
    edge_in[next] = true;
    grown.push_back(next);
    vertices.insert(csg.edges()[next].u);
    vertices.insert(csg.edges()[next].v);
    if (grown.size() >= target_edges) break;
    cae.clear();
    for (VertexId v : vertices) {
      for (size_t idx : csg.IncidentEdges(v)) {
        if (edge_in[idx] || !eligible(idx)) continue;
        // An edge incident to two pattern vertices appears twice; dedupe.
        if (std::find(cae.begin(), cae.end(), idx) == cae.end()) {
          cae.push_back(idx);
        }
      }
    }
    const size_t at = pick(cae);
    if (at == kStop) break;
    next = cae[at];
  }
  return grown;
}

// The walks' seed: the largest weight (first such edge for determinism).
size_t HeaviestEdge(const WeightedCsg& wcsg) {
  const std::vector<double>& w = wcsg.edge_weights;
  return static_cast<size_t>(std::max_element(w.begin(), w.end()) -
                             w.begin());
}

}  // namespace

Pcp GeneratePcp(const WeightedCsg& wcsg, size_t target_edges, Rng& rng) {
  if (wcsg.csg->NumEdges() == 0 || target_edges == 0) return Pcp();
  std::vector<double> weights;  // parallel to the CAE list
  return GrowFromSeed(
      *wcsg.csg, HeaviestEdge(wcsg), target_edges,
      [&](size_t idx) { return wcsg.edge_weights[idx] > 0.0; },
      [&](const std::vector<size_t>& cae) {
        if (cae.empty()) {
          obs::Count(obs::Counter::kWalkDeadEnds);
          return kStop;
        }
        obs::Count(obs::Counter::kWalkSteps);
        weights.clear();
        for (size_t idx : cae) weights.push_back(wcsg.edge_weights[idx]);
        return rng.WeightedIndex(weights);
      });
}

std::vector<Pcp> GeneratePcpLibrary(const WeightedCsg& wcsg,
                                    size_t target_edges, size_t count,
                                    Rng& rng, const RunContext& ctx) {
  std::vector<Pcp> library;
  library.reserve(count);
  for (size_t walk = 0; walk < count; ++walk) {
    if (ctx.StopRequested("selector.pcp_walk")) break;
    Pcp pcp = GeneratePcp(wcsg, target_edges, rng);
    if (!pcp.empty()) {
      obs::Count(obs::Counter::kPcpEmitted);
      obs::Observe(obs::Hist::kPcpEdges, pcp.size());
      library.push_back(std::move(pcp));
    }
  }
  return library;
}

Pcp GenerateGreedyPcp(const WeightedCsg& wcsg, size_t target_edges) {
  if (wcsg.csg->NumEdges() == 0 || target_edges == 0) return Pcp();
  const std::vector<double>& w = wcsg.edge_weights;
  return GrowFromSeed(
      *wcsg.csg, HeaviestEdge(wcsg), target_edges,
      [&](size_t idx) { return w[idx] > 0.0; },
      [&](const std::vector<size_t>& cae) {
        if (cae.empty()) return kStop;
        return static_cast<size_t>(
            std::max_element(cae.begin(), cae.end(),
                             [&](size_t a, size_t b) { return w[a] < w[b]; }) -
            cae.begin());
      });
}

Pcp GenerateFcp(const ClusterSummaryGraph& csg,
                const std::vector<Pcp>& library, size_t target_edges) {
  if (library.empty() || target_edges == 0) return Pcp();

  std::unordered_map<size_t, size_t> frequency;
  for (const Pcp& pcp : library) {
    for (size_t idx : pcp) ++frequency[idx];
  }
  if (frequency.empty()) return Pcp();

  // Most frequent edge first (ties: lowest index, deterministic).
  auto MoreFrequent = [&](size_t a, size_t b) {
    size_t fa = frequency.count(a) ? frequency.at(a) : 0;
    size_t fb = frequency.count(b) ? frequency.at(b) : 0;
    if (fa != fb) return fa > fb;
    return a < b;
  };
  size_t first = frequency.begin()->first;
  for (const auto& [idx, freq] : frequency) {
    if (MoreFrequent(idx, first)) first = idx;
  }
  return GrowFromSeed(
      csg, first, target_edges,
      [&](size_t idx) { return frequency.count(idx) != 0; },
      [&](const std::vector<size_t>& cae) {
        if (cae.empty()) return kStop;
        return static_cast<size_t>(
            std::min_element(cae.begin(), cae.end(), MoreFrequent) -
            cae.begin());
      });
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
