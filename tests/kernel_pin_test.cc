// Pinned results and work counts of the two search kernels, MCS/MCCS
// (src/iso/mcs.h) and exact GED (src/iso/ged.h), over seeded pairs cut from
// generated molecules. Each row is one kernel call: every result field, the
// mapping as a digest, and the call's node count. The kernels are anytime
// searches whose truncated answers depend on the order they visit nodes in,
// so a change to that order changes the panels even when every exact answer
// stays right; this table catches it. A second table runs connected MCS at
// every budget from 1 to 64 and at each shipped budget, and folds the calls
// of each pair and edge-label mode into one digest row, so it also pins
// where every budget cuts the search. A change that alters a search tree on
// purpose re-pins the rows it printed and says why.

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/data/molecule_generator.h"
#include "src/graph/algorithms.h"
#include "src/iso/ged.h"
#include "src/iso/mcs.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace catapult {
namespace {

// `g` with every edge relabelled to 1 or 2, drawn from `rng`.
Graph WithEdgeLabels(const Graph& g, Rng& rng) {
  Graph out;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    out.AddVertex(g.VertexLabel(v));
  }
  for (const Edge& e : g.EdgeList()) {
    out.AddEdge(e.u, e.v, static_cast<Label>(1 + rng.UniformInt(2)));
  }
  return out;
}

// Twelve pairs: connected subgraphs of 3 to 14 edges, cut from one molecule
// for even pairs (large overlaps, deep searches) and from two for odd ones,
// every third pair with random non-zero edge labels, and the last two pairs
// whole molecules (the size fine clustering compares).
std::vector<std::pair<Graph, Graph>> PinnedPairs() {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 24;
  gen.seed = 11;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  Rng rng(2207);
  std::vector<std::pair<Graph, Graph>> pairs;
  for (GraphId i = 0; i < 12; ++i) {
    Graph a = db.graph(i);
    Graph b = db.graph(i % 2 == 0 && i < 10 ? i : i + 12);
    if (i < 10) {
      a = RandomConnectedSubgraph(a, 3 + (i * 5) % 12, rng);
      b = RandomConnectedSubgraph(b, 3 + (i * 7) % 12, rng);
    }
    if (i % 3 == 2) {
      a = WithEdgeLabels(a, rng);
      b = WithEdgeLabels(b, rng);
    }
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

// One FNV-1a step over the low `bytes` bytes of `x`.
void FnvMix(uint64_t& h, uint64_t x, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}

// FNV-1a over the mapping's pairs, in order.
uint64_t MappingDigest(const std::vector<std::pair<VertexId, VertexId>>& m) {
  uint64_t h = kFnvOffset;
  for (const auto& [u, v] : m) {
    FnvMix(h, u, 4);
    FnvMix(h, v, 4);
  }
  return h;
}

// One MCS call and the nodes it counted against its budget.
McsResult RunMcs(const Graph& a, const Graph& b, const McsOptions& options,
                 uint64_t& nodes) {
  obs::MetricsRegistry registry;
  McsResult r;
  {
    obs::ScopedMetricsScope scope(&registry);
    r = MaxCommonSubgraph(a, b, options);
  }
  nodes = registry.Snapshot().counter(obs::Counter::kMcsNodes);
  return r;
}

std::string Row(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Row(const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

// One row per kernel call, in table order.
std::vector<std::string> KernelRows() {
  std::vector<std::string> rows;
  const std::vector<std::pair<Graph, Graph>> pairs = PinnedPairs();
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto& [a, b] = pairs[p];
    for (bool connected : {true, false}) {
      for (bool match_edge_labels : {false, true}) {
        for (uint64_t budget : {50, 5000}) {
          McsOptions options;
          options.connected = connected;
          options.match_edge_labels = match_edge_labels;
          options.node_budget = budget;
          uint64_t nodes = 0;
          const McsResult r = RunMcs(a, b, options, nodes);
          rows.push_back(Row(
              "%zu %s%s/%llu: edges %zu vertices %zu map %016llx exact %d "
              "nodes %llu",
              p, connected ? "mccs" : "mcs", match_edge_labels ? "+el" : "",
              static_cast<unsigned long long>(budget), r.common_edges,
              r.common_vertices,
              static_cast<unsigned long long>(MappingDigest(r.mapping)),
              r.exact ? 1 : 0, static_cast<unsigned long long>(nodes)));
        }
      }
    }
    for (uint64_t budget : {3, 2000, 500000}) {
      GedOptions options;
      options.node_budget = budget;
      obs::MetricsRegistry registry;
      GedResult r;
      {
        obs::ScopedMetricsScope scope(&registry);
        r = GraphEditDistance(a, b, options);
      }
      rows.push_back(Row(
          "%zu ged/%llu: distance %g exact %d nodes %llu", p,
          static_cast<unsigned long long>(budget), r.distance, r.exact ? 1 : 0,
          static_cast<unsigned long long>(
              registry.Snapshot().counter(obs::Counter::kGedNodes))));
    }
    rows.push_back(Row("%zu greedy: %g", p, GedGreedyUpperBound(a, b)));
  }
  return rows;
}

// One row per kernel call, in KernelRows() order. A kernel change that keeps
// its search trees reproduces every row.
const char* const kPinnedRows[] = {
    "0 mccs/50: edges 3 vertices 4 map b68ce6e5ca5f0aa3 exact 1 nodes 9",
    "0 mccs/5000: edges 3 vertices 4 map b68ce6e5ca5f0aa3 exact 1 nodes 9",
    "0 mccs+el/50: edges 3 vertices 4 map b68ce6e5ca5f0aa3 exact 1 nodes 9",
    "0 mccs+el/5000: edges 3 vertices 4 map b68ce6e5ca5f0aa3 exact 1 nodes 9",
    "0 mcs/50: edges 3 vertices 4 map b68ce6e5ca5f0aa3 exact 1 nodes 30",
    "0 mcs/5000: edges 3 vertices 4 map b68ce6e5ca5f0aa3 exact 1 nodes 30",
    "0 mcs+el/50: edges 3 vertices 4 map b68ce6e5ca5f0aa3 exact 1 nodes 30",
    "0 mcs+el/5000: edges 3 vertices 4 map b68ce6e5ca5f0aa3 exact 1 nodes 30",
    "0 ged/3: distance 2 exact 0 nodes 3",
    "0 ged/2000: distance 0 exact 1 nodes 29",
    "0 ged/500000: distance 0 exact 1 nodes 29",
    "0 greedy: 2",
    "1 mccs/50: edges 3 vertices 4 map 340cb03cff368b87 exact 0 nodes 50",
    "1 mccs/5000: edges 3 vertices 4 map 340cb03cff368b87 exact 1 nodes 293",
    "1 mccs+el/50: edges 3 vertices 4 map 340cb03cff368b87 exact 0 nodes 50",
    "1 mccs+el/5000: edges 3 vertices 4 map 340cb03cff368b87 exact 1 nodes 293",
    "1 mcs/50: edges 0 vertices 5 map b271df43aac3a754 exact 0 nodes 50",
    "1 mcs/5000: edges 1 vertices 5 map c49d563c74b54ad4 exact 0 nodes 5000",
    "1 mcs+el/50: edges 0 vertices 5 map b271df43aac3a754 exact 0 nodes 50",
    "1 mcs+el/5000: edges 1 vertices 5 map c49d563c74b54ad4 exact 0 nodes 5000",
    "1 ged/3: distance 20 exact 0 nodes 3",
    "1 ged/2000: distance 20 exact 0 nodes 2000",
    "1 ged/500000: distance 10 exact 1 nodes 108246",
    "1 greedy: 20",
    "2 mccs/50: edges 3 vertices 4 map 5d980f567da78fc7 exact 0 nodes 50",
    "2 mccs/5000: edges 3 vertices 4 map 5d980f567da78fc7 exact 1 nodes 211",
    "2 mccs+el/50: edges 2 vertices 3 map e4c32e69c9a93a42 exact 0 nodes 50",
    "2 mccs+el/5000: edges 2 vertices 3 map e4c32e69c9a93a42 exact 1 nodes 63",
    "2 mcs/50: edges 2 vertices 6 map a7b3afa36be13950 exact 0 nodes 50",
    "2 mcs/5000: edges 3 vertices 6 map e75eaaac85278931 exact 0 nodes 5000",
    "2 mcs+el/50: edges 1 vertices 6 map a7b3afa36be13950 exact 0 nodes 50",
    "2 mcs+el/5000: edges 3 vertices 6 map 169a5bfd1c81f8fb exact 0 nodes 5000",
    "2 ged/3: distance 23 exact 0 nodes 3",
    "2 ged/2000: distance 18 exact 0 nodes 2000",
    "2 ged/500000: distance 18 exact 1 nodes 52713",
    "2 greedy: 23",
    "3 mccs/50: edges 3 vertices 4 map d627e43b87652038 exact 0 nodes 50",
    "3 mccs/5000: edges 3 vertices 4 map d627e43b87652038 exact 1 nodes 78",
    "3 mccs+el/50: edges 3 vertices 4 map d627e43b87652038 exact 0 nodes 50",
    "3 mccs+el/5000: edges 3 vertices 4 map d627e43b87652038 exact 1 nodes 78",
    "3 mcs/50: edges 3 vertices 5 map d4ee9b16136d73bc exact 0 nodes 50",
    "3 mcs/5000: edges 3 vertices 5 map d4ee9b16136d73bc exact 1 nodes 503",
    "3 mcs+el/50: edges 3 vertices 5 map d4ee9b16136d73bc exact 0 nodes 50",
    "3 mcs+el/5000: edges 3 vertices 5 map d4ee9b16136d73bc exact 1 nodes 503",
    "3 ged/3: distance 25 exact 0 nodes 3",
    "3 ged/2000: distance 17 exact 0 nodes 2000",
    "3 ged/500000: distance 16 exact 1 nodes 2736",
    "3 greedy: 25",
    "4 mccs/50: edges 5 vertices 6 map 4ab561e7082454f2 exact 0 nodes 50",
    "4 mccs/5000: edges 6 vertices 7 map a5e679f78ee4b55b exact 0 nodes 5000",
    "4 mccs+el/50: edges 5 vertices 6 map 4ab561e7082454f2 exact 0 nodes 50",
    "4 mccs+el/5000: edges 6 vertices 7 map a5e679f78ee4b55b exact 0 nodes 5000",
    "4 mcs/50: edges 2 vertices 8 map 8578b324a2569ee0 exact 0 nodes 50",
    "4 mcs/5000: edges 5 vertices 8 map 55bf148d651126ac exact 0 nodes 5000",
    "4 mcs+el/50: edges 2 vertices 8 map 8578b324a2569ee0 exact 0 nodes 50",
    "4 mcs+el/5000: edges 5 vertices 8 map 55bf148d651126ac exact 0 nodes 5000",
    "4 ged/3: distance 14 exact 0 nodes 3",
    "4 ged/2000: distance 12 exact 0 nodes 2000",
    "4 ged/500000: distance 10 exact 1 nodes 57946",
    "4 greedy: 14",
    "5 mccs/50: edges 1 vertices 2 map c4176ea150ec0273 exact 0 nodes 50",
    "5 mccs/5000: edges 1 vertices 2 map c4176ea150ec0273 exact 1 nodes 59",
    "5 mccs+el/50: edges 1 vertices 2 map c4176ea150ec0273 exact 1 nodes 43",
    "5 mccs+el/5000: edges 1 vertices 2 map c4176ea150ec0273 exact 1 nodes 43",
    "5 mcs/50: edges 1 vertices 3 map 104e6711a6d82f50 exact 0 nodes 50",
    "5 mcs/5000: edges 1 vertices 3 map 104e6711a6d82f50 exact 1 nodes 979",
    "5 mcs+el/50: edges 1 vertices 3 map 70291b4c02505747 exact 0 nodes 50",
    "5 mcs+el/5000: edges 1 vertices 3 map 70291b4c02505747 exact 1 nodes 916",
    "5 ged/3: distance 29 exact 0 nodes 3",
    "5 ged/2000: distance 22 exact 1 nodes 553",
    "5 ged/500000: distance 22 exact 1 nodes 553",
    "5 greedy: 29",
    "6 mccs/50: edges 6 vertices 7 map faf26fefd6b93597 exact 0 nodes 50",
    "6 mccs/5000: edges 6 vertices 7 map faf26fefd6b93597 exact 1 nodes 4093",
    "6 mccs+el/50: edges 6 vertices 7 map faf26fefd6b93597 exact 0 nodes 50",
    "6 mccs+el/5000: edges 6 vertices 7 map faf26fefd6b93597 exact 1 nodes 4093",
    "6 mcs/50: edges 5 vertices 8 map 9cba9d673d3478c8 exact 0 nodes 50",
    "6 mcs/5000: edges 7 vertices 9 map b7791b68288f1309 exact 1 nodes 1587",
    "6 mcs+el/50: edges 5 vertices 8 map 9cba9d673d3478c8 exact 0 nodes 50",
    "6 mcs+el/5000: edges 7 vertices 9 map b7791b68288f1309 exact 1 nodes 1587",
    "6 ged/3: distance 17 exact 0 nodes 3",
    "6 ged/2000: distance 7 exact 0 nodes 2000",
    "6 ged/500000: distance 5 exact 1 nodes 9048",
    "6 greedy: 17",
    "7 mccs/50: edges 2 vertices 3 map 916af4fea1e5565b exact 0 nodes 50",
    "7 mccs/5000: edges 2 vertices 3 map 916af4fea1e5565b exact 1 nodes 105",
    "7 mccs+el/50: edges 2 vertices 3 map 916af4fea1e5565b exact 0 nodes 50",
    "7 mccs+el/5000: edges 2 vertices 3 map 916af4fea1e5565b exact 1 nodes 105",
    "7 mcs/50: edges 2 vertices 5 map 8799a941f4173f60 exact 0 nodes 50",
    "7 mcs/5000: edges 3 vertices 5 map 500a5e7e4a5532c0 exact 0 nodes 5000",
    "7 mcs+el/50: edges 2 vertices 5 map 8799a941f4173f60 exact 0 nodes 50",
    "7 mcs+el/5000: edges 3 vertices 5 map 500a5e7e4a5532c0 exact 0 nodes 5000",
    "7 ged/3: distance 23 exact 0 nodes 3",
    "7 ged/2000: distance 22 exact 0 nodes 2000",
    "7 ged/500000: distance 21 exact 1 nodes 10028",
    "7 greedy: 23",
    "8 mccs/50: edges 6 vertices 7 map 9ae1f5a0dfedb17c exact 0 nodes 50",
    "8 mccs/5000: edges 6 vertices 7 map 9ae1f5a0dfedb17c exact 1 nodes 1495",
    "8 mccs+el/50: edges 4 vertices 5 map 76f31e09f3f35e8a exact 0 nodes 50",
    "8 mccs+el/5000: edges 4 vertices 5 map 76f31e09f3f35e8a exact 1 nodes 171",
    "8 mcs/50: edges 5 vertices 8 map 96fb271746202f7c exact 0 nodes 50",
    "8 mcs/5000: edges 6 vertices 8 map cfdc4316e593efbc exact 1 nodes 508",
    "8 mcs+el/50: edges 2 vertices 8 map 1ddf635818521d01 exact 0 nodes 50",
    "8 mcs+el/5000: edges 5 vertices 8 map 8881dffc2e14a3c1 exact 1 nodes 1507",
    "8 ged/3: distance 18 exact 0 nodes 3",
    "8 ged/2000: distance 15 exact 0 nodes 2000",
    "8 ged/500000: distance 11 exact 1 nodes 7756",
    "8 greedy: 18",
    "9 mccs/50: edges 3 vertices 4 map bb087eb2ae6db893 exact 0 nodes 50",
    "9 mccs/5000: edges 3 vertices 4 map bb087eb2ae6db893 exact 1 nodes 340",
    "9 mccs+el/50: edges 3 vertices 4 map bb087eb2ae6db893 exact 0 nodes 50",
    "9 mccs+el/5000: edges 3 vertices 4 map bb087eb2ae6db893 exact 1 nodes 340",
    "9 mcs/50: edges 2 vertices 6 map 02eb94f677ef68b6 exact 0 nodes 50",
    "9 mcs/5000: edges 3 vertices 6 map 10852e144bf8aaf6 exact 0 nodes 5000",
    "9 mcs+el/50: edges 2 vertices 6 map 02eb94f677ef68b6 exact 0 nodes 50",
    "9 mcs+el/5000: edges 3 vertices 6 map 10852e144bf8aaf6 exact 0 nodes 5000",
    "9 ged/3: distance 19 exact 0 nodes 3",
    "9 ged/2000: distance 18 exact 0 nodes 2000",
    "9 ged/500000: distance 14 exact 1 nodes 25746",
    "9 greedy: 19",
    "10 mccs/50: edges 6 vertices 7 map 6725a30b2176be90 exact 0 nodes 50",
    "10 mccs/5000: edges 6 vertices 7 map 6725a30b2176be90 exact 0 nodes 5000",
    "10 mccs+el/50: edges 6 vertices 7 map 6725a30b2176be90 exact 0 nodes 50",
    "10 mccs+el/5000: edges 6 vertices 7 map 6725a30b2176be90 exact 0 nodes 5000",
    "10 mcs/50: edges 5 vertices 10 map 4040e91eb735e207 exact 0 nodes 50",
    "10 mcs/5000: edges 5 vertices 10 map 4040e91eb735e207 exact 0 nodes 5000",
    "10 mcs+el/50: edges 5 vertices 10 map 4040e91eb735e207 exact 0 nodes 50",
    "10 mcs+el/5000: edges 5 vertices 10 map 4040e91eb735e207 exact 0 nodes 5000",
    "10 ged/3: distance 41 exact 0 nodes 3",
    "10 ged/2000: distance 41 exact 0 nodes 2000",
    "10 ged/500000: distance 41 exact 0 nodes 500000",
    "10 greedy: 41",
    "11 mccs/50: edges 4 vertices 5 map f80435ef0f0cc8a1 exact 0 nodes 50",
    "11 mccs/5000: edges 4 vertices 5 map f80435ef0f0cc8a1 exact 1 nodes 762",
    "11 mccs+el/50: edges 3 vertices 4 map b55ebb3b6de8c16f exact 0 nodes 50",
    "11 mccs+el/5000: edges 3 vertices 4 map b55ebb3b6de8c16f exact 1 nodes 266",
    "11 mcs/50: edges 3 vertices 10 map 158237427554cce8 exact 0 nodes 50",
    "11 mcs/5000: edges 3 vertices 10 map 158237427554cce8 exact 0 nodes 5000",
    "11 mcs+el/50: edges 2 vertices 10 map 158237427554cce8 exact 0 nodes 50",
    "11 mcs+el/5000: edges 2 vertices 10 map 158237427554cce8 exact 0 nodes 5000",
    "11 ged/3: distance 47 exact 0 nodes 3",
    "11 ged/2000: distance 47 exact 0 nodes 2000",
    "11 ged/500000: distance 45 exact 0 nodes 500000",
    "11 greedy: 47",
};

// Connected MCS at every budget from 1 to 64, then at 100, 250, 1,000,
// 2,500, 5,000 and unlimited, on every pinned pair with and without edge
// labels: one row per (pair, mode). Each call's edges, vertices, mapping
// digest, exactness and node count are folded into the row's digest, so the
// row pins where the search stands after each of its first 64 nodes and
// where every shipped budget cuts it; the unlimited call is also spelled out.
std::vector<std::string> BudgetSweepRows() {
  std::vector<uint64_t> budgets;
  for (uint64_t budget = 1; budget <= 64; ++budget) budgets.push_back(budget);
  for (uint64_t budget : {100, 250, 1000, 2500, 5000, 0}) {
    budgets.push_back(budget);
  }
  std::vector<std::string> rows;
  const std::vector<std::pair<Graph, Graph>> pairs = PinnedPairs();
  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto& [a, b] = pairs[p];
    for (bool match_edge_labels : {false, true}) {
      uint64_t digest = kFnvOffset;
      McsResult r;
      uint64_t nodes = 0;
      for (uint64_t budget : budgets) {
        McsOptions options;
        options.match_edge_labels = match_edge_labels;
        options.node_budget = budget;
        r = RunMcs(a, b, options, nodes);
        FnvMix(digest, r.common_edges, 8);
        FnvMix(digest, r.common_vertices, 8);
        FnvMix(digest, MappingDigest(r.mapping), 8);
        FnvMix(digest, r.exact ? 1 : 0, 1);
        FnvMix(digest, nodes, 8);
      }
      rows.push_back(Row(
          "%zu mccs%s sweep %016llx, unlimited: edges %zu exact %d nodes %llu",
          p, match_edge_labels ? "+el" : "",
          static_cast<unsigned long long>(digest), r.common_edges,
          r.exact ? 1 : 0, static_cast<unsigned long long>(nodes)));
    }
  }
  return rows;
}

// One row per (pair, edge-label mode), in BudgetSweepRows() order.
const char* const kPinnedSweepRows[] = {
    "0 mccs sweep 89b3f1eecb36c0af, unlimited: edges 3 exact 1 nodes 9",
    "0 mccs+el sweep 89b3f1eecb36c0af, unlimited: edges 3 exact 1 nodes 9",
    "1 mccs sweep 626072fff64aa0fa, unlimited: edges 3 exact 1 nodes 293",
    "1 mccs+el sweep 626072fff64aa0fa, unlimited: edges 3 exact 1 nodes 293",
    "2 mccs sweep 14907807a5af2cd5, unlimited: edges 3 exact 1 nodes 211",
    "2 mccs+el sweep 2b8048aadb76987a, unlimited: edges 2 exact 1 nodes 63",
    "3 mccs sweep f75ce0cc628f21de, unlimited: edges 3 exact 1 nodes 78",
    "3 mccs+el sweep f75ce0cc628f21de, unlimited: edges 3 exact 1 nodes 78",
    "4 mccs sweep b655b5e6adfad5c9, unlimited: edges 6 exact 1 nodes 6800",
    "4 mccs+el sweep b655b5e6adfad5c9, unlimited: edges 6 exact 1 nodes 6800",
    "5 mccs sweep f37bcafebfbc6460, unlimited: edges 1 exact 1 nodes 59",
    "5 mccs+el sweep fc9fd3a267252e30, unlimited: edges 1 exact 1 nodes 43",
    "6 mccs sweep c98941cf4dcc9040, unlimited: edges 6 exact 1 nodes 4093",
    "6 mccs+el sweep c98941cf4dcc9040, unlimited: edges 6 exact 1 nodes 4093",
    "7 mccs sweep d16b56ef77606278, unlimited: edges 2 exact 1 nodes 105",
    "7 mccs+el sweep d16b56ef77606278, unlimited: edges 2 exact 1 nodes 105",
    "8 mccs sweep 52548cf7d81db054, unlimited: edges 6 exact 1 nodes 1495",
    "8 mccs+el sweep ddd203a4057c92c4, unlimited: edges 4 exact 1 nodes 171",
    "9 mccs sweep 88d1e2f00a0daefa, unlimited: edges 3 exact 1 nodes 340",
    "9 mccs+el sweep 88d1e2f00a0daefa, unlimited: edges 3 exact 1 nodes 340",
    "10 mccs sweep fdf66325d9464699, unlimited: edges 6 exact 1 nodes 18624",
    "10 mccs+el sweep fdf66325d9464699, unlimited: edges 6 exact 1 nodes 18624",
    "11 mccs sweep 9e0945eb548a0f34, unlimited: edges 4 exact 1 nodes 762",
    "11 mccs+el sweep 53a53f7b8130ceb8, unlimited: edges 3 exact 1 nodes 266",
};

// Checks `rows` against `pinned` and prints the actual rows on a mismatch.
void ExpectRows(const std::vector<std::string>& rows,
                const char* const* pinned, size_t pinned_size) {
  EXPECT_EQ(rows.size(), pinned_size) << "the table has one row per entry";
  std::string actual;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i < pinned_size) {
      EXPECT_EQ(rows[i], pinned[i]) << "row " << i;
    }
    actual += "    \"" + rows[i] + "\",\n";
  }
  if (::testing::Test::HasFailure()) {
    std::printf("actual rows:\n%s", actual.c_str());
  }
}

TEST(KernelPinTest, ResultsAndNodeCountsMatchPinnedTable) {
  ExpectRows(KernelRows(), kPinnedRows, std::size(kPinnedRows));
}

TEST(KernelPinTest, McsBudgetSweepMatchesPinnedTable) {
  ExpectRows(BudgetSweepRows(), kPinnedSweepRows, std::size(kPinnedSweepRows));
}

}  // namespace
}  // namespace catapult
