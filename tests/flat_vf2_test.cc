// The subgraph-isomorphism kernel (src/iso/flat_vf2.h) and its Graph entry
// points (src/iso/vf2.h), checked two ways. A brute-force oracle decides
// existence, the embedding set and isomorphism on tiny graphs straight from
// the definitions; it also checks the reference selector's own containment
// search (tests/reference_selector.h). A pinned reference-output table
// fixes what the oracle cannot see but panels depend on: the order of
// FindEmbeddings results (the query cover keeps the first ones) and the
// nodes an existence test spends (budgets truncate by that count). The
// order pins were recorded from the search before the nested-vector and
// flat kernels were merged into one, those of the generated cases before
// the search skipped candidates by labels, and none has moved since; the
// node counts were re-pinned when the label filters came in.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/flat_graph.h"
#include "src/iso/flat_vf2.h"
#include "src/iso/vf2.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "tests/reference_selector.h"

namespace catapult {
namespace {

// Every embedding of `pattern` in `target`, in lexicographic order: all
// injective vertex maps that preserve vertex labels and edges (edge labels
// too under match_edge_labels) and, under `induced`, non-edges.
std::vector<Embedding> OracleEmbeddings(const Graph& pattern,
                                        const Graph& target,
                                        const IsoOptions& options) {
  std::vector<Embedding> out;
  Embedding m(pattern.NumVertices());
  std::vector<bool> used(target.NumVertices(), false);
  auto preserves = [&] {
    for (VertexId u = 0; u < m.size(); ++u) {
      if (pattern.VertexLabel(u) != target.VertexLabel(m[u])) return false;
      for (VertexId v = u + 1; v < m.size(); ++v) {
        bool edge = pattern.HasEdge(u, v);
        if (edge != target.HasEdge(m[u], m[v]) && (edge || options.induced)) {
          return false;
        }
        if (edge && options.match_edge_labels &&
            pattern.EdgeLabel(u, v) != target.EdgeLabel(m[u], m[v])) {
          return false;
        }
      }
    }
    return true;
  };
  auto extend = [&](auto& self, size_t depth) -> void {
    if (depth == m.size()) {
      if (preserves()) out.push_back(m);
      return;
    }
    for (VertexId t = 0; t < target.NumVertices(); ++t) {
      if (used[t]) continue;
      used[t] = true;
      m[depth] = t;
      self(self, depth + 1);
      used[t] = false;
    }
  };
  extend(extend, 0);
  return out;
}

// A graph on 1..max_v vertices over two vertex and two edge labels, its
// edges inserted in shuffled order so adjacency order differs from id order.
Graph RandomGraph(Rng& rng, size_t max_v, bool connected) {
  while (true) {
    size_t n = 1 + rng.UniformInt(max_v);
    Graph g;
    for (size_t v = 0; v < n; ++v) {
      g.AddVertex(static_cast<Label>(rng.UniformInt(2)));
    }
    std::vector<Edge> edges;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(0.5)) {
          edges.push_back({u, v, static_cast<Label>(rng.UniformInt(2))});
        }
      }
    }
    rng.Shuffle(edges);
    for (const Edge& e : edges) g.AddEdge(e.u, e.v, e.label);
    if (!connected || IsConnected(g)) return g;
  }
}

// `a` with permuted vertex ids and shuffled edge order; one time in three a
// vertex label, one time in three an edge label, is flipped as well.
Graph PermutedVariant(const Graph& a, Rng& rng) {
  std::vector<VertexId> perm(a.NumVertices());
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);
  std::vector<Label> labels(a.NumVertices());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    labels[perm[v]] = a.VertexLabel(v);
  }
  std::vector<Edge> edges = a.EdgeList();
  rng.Shuffle(edges);
  size_t kind = rng.UniformInt(3);
  if (kind == 1) labels[0] = 1 - labels[0];
  if (kind == 2 && !edges.empty()) edges[0].label = 1 - edges[0].label;
  Graph b;
  for (Label l : labels) b.AddVertex(l);
  for (const Edge& e : edges) b.AddEdge(perm[e.u], perm[e.v], e.label);
  return b;
}

TEST(FlatVf2Test, MatchesBruteForceOracle) {
  constexpr size_t kPairs = 250;
  size_t contained = 0, isomorphic = 0;
  for (uint64_t seed = 0; seed < kPairs; ++seed) {
    Rng rng(seed * 7919 + 3);
    const Graph pattern = RandomGraph(rng, 5, /*connected=*/true);
    const Graph target = RandomGraph(rng, 7, /*connected=*/false);
    const Graph variant = PermutedVariant(pattern, rng);
    for (int flags = 0; flags < 4; ++flags) {
      IsoOptions options;
      options.induced = flags & 1;
      options.match_edge_labels = flags & 2;
      SCOPED_TRACE("seed " + std::to_string(seed) + " flags " +
                   std::to_string(flags));
      std::vector<Embedding> expected =
          OracleEmbeddings(pattern, target, options);
      EXPECT_EQ(ContainsSubgraph(pattern, target, options), !expected.empty());
      std::vector<Embedding> found =
          FindEmbeddings(pattern, target, 0, options);
      std::sort(found.begin(), found.end());
      EXPECT_EQ(std::adjacent_find(found.begin(), found.end()), found.end());
      EXPECT_EQ(found, expected);
      contained += expected.empty() ? 0 : 1;

      // Isomorphism: equal sizes and a bijective embedding (AreIsomorphic
      // forces `induced`; only match_edge_labels applies).
      IsoOptions bijection;
      bijection.match_edge_labels = options.match_edge_labels;
      bool iso = pattern.NumVertices() == variant.NumVertices() &&
                 pattern.NumEdges() == variant.NumEdges() &&
                 !OracleEmbeddings(pattern, variant, bijection).empty();
      EXPECT_EQ(AreIsomorphic(pattern, variant, options), iso);
      isomorphic += iso ? 1 : 0;
      if (flags == 0) {
        // The reference selector's search, under its default semantics; the
        // reversed pair exercises disconnected patterns.
        EXPECT_EQ(reference::ReferenceContains(pattern, target),
                  !expected.empty());
        EXPECT_EQ(reference::ReferenceContains(target, pattern),
                  !OracleEmbeddings(target, pattern, options).empty());
        EXPECT_EQ(reference::ReferenceIsomorphic(pattern, variant), iso);
      }
    }
  }
  // Both answers of both predicates must be exercised.
  EXPECT_GT(contained, kPairs / 2);
  EXPECT_LT(contained, 4 * kPairs - kPairs / 2);
  EXPECT_GT(isomorphic, kPairs / 2);
  EXPECT_LT(isomorphic, 4 * kPairs - kPairs / 2);
}

// A node budget cuts the search after that many nodes, and the search meets
// embeddings in one fixed order, so a budgeted FindEmbeddings returns a
// prefix of the unbudgeted list at every budget, and a search the budget
// did not cut answers exactly. Every budget from 1 to one past the
// unbudgeted node count N runs; the search reports truncation iff the
// budget is below N, and vf2.budget_exhausted counts exactly the searches
// that reported it (a search that used up its budget and ended is not
// cut).
TEST(FlatVf2Test, BudgetedSearchIsAPrefix) {
  for (uint64_t seed = 0; seed < 250; ++seed) {
    Rng rng(seed * 7919 + 3);  // the pairs of MatchesBruteForceOracle
    const Graph pattern = RandomGraph(rng, 5, /*connected=*/true);
    const Graph target = RandomGraph(rng, 7, /*connected=*/false);
    for (int flags = 0; flags < 4; ++flags) {
      IsoOptions options;
      options.induced = flags & 1;
      options.match_edge_labels = flags & 2;
      SCOPED_TRACE("seed " + std::to_string(seed) + " flags " +
                   std::to_string(flags));
      const bool contained =
          !OracleEmbeddings(pattern, target, options).empty();
      obs::MetricsRegistry registry;
      std::vector<Embedding> all;
      {
        obs::ScopedMetricsScope scope(&registry);
        all = FindEmbeddings(pattern, target, 0, options);
      }
      const uint64_t n = registry.Snapshot().counter(obs::Counter::kVf2Nodes);
      bool truncated = false;
      options.budget_exhausted = &truncated;
      uint64_t truncations = 0;
      obs::MetricsRegistry budgeted;
      {
        obs::ScopedMetricsScope scope(&budgeted);
        for (options.node_budget = 1; options.node_budget <= n + 1;
             ++options.node_budget) {
          const std::vector<Embedding> some =
              FindEmbeddings(pattern, target, 0, options);
          truncations += truncated ? 1 : 0;
          EXPECT_EQ(truncated, options.node_budget < n) << options.node_budget;
          ASSERT_LE(some.size(), all.size()) << options.node_budget;
          EXPECT_TRUE(std::equal(some.begin(), some.end(), all.begin()))
              << options.node_budget;
          if (!truncated) {
            EXPECT_EQ(some.size(), all.size()) << options.node_budget;
          }
          const bool found = ContainsSubgraph(pattern, target, options);
          truncations += truncated ? 1 : 0;
          if (found || !truncated) {
            EXPECT_EQ(found, contained) << options.node_budget;
          }
        }
      }
      EXPECT_EQ(budgeted.Snapshot().counter(obs::Counter::kVf2BudgetExhausted),
                truncations);
    }
  }
}

// --- Pinned reference-output table ----------------------------------------

// Generator local to the table, so the pins depend on nothing outside this
// file: a random tree on `n` vertices plus up to `chords` extra edges, with
// the edge insertion order scrambled.
Graph LcgGraph(uint64_t state, size_t n, size_t chords, uint32_t num_labels) {
  auto next = [&state](size_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>((state >> 33) % bound);
  };
  Graph g;
  for (size_t v = 0; v < n; ++v) g.AddVertex(next(num_labels));
  std::vector<Edge> edges;
  for (size_t v = 1; v < n; ++v) {
    edges.push_back({next(v), static_cast<VertexId>(v), next(2)});
  }
  for (size_t c = 0; c < chords; ++c) {
    VertexId u = next(n);
    VertexId v = next(n);
    bool dup = u == v;
    for (const Edge& e : edges) {
      dup = dup || (e.u == u && e.v == v) || (e.u == v && e.v == u);
    }
    if (!dup) edges.push_back({u, v, next(2)});
  }
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[next(i)]);
  }
  for (const Edge& e : edges) g.AddEdge(e.u, e.v, e.label);
  return g;
}

Graph FromEdges(const std::vector<Label>& labels,
                const std::vector<Edge>& edges) {
  Graph g;
  for (Label l : labels) g.AddVertex(l);
  for (const Edge& e : edges) g.AddEdge(e.u, e.v, e.label);
  return g;
}

struct PinnedCase {
  Graph pattern;
  Graph target;
  IsoOptions options;
};

std::map<std::string, PinnedCase> PinnedCases() {
  IsoOptions labelled, induced;
  labelled.match_edge_labels = true;
  induced.induced = true;
  std::vector<Edge> ring12;  // a 12-ring, edges inserted out of order
  for (VertexId k = 0; k < 12; ++k) {
    ring12.push_back({k * 5 % 12, (k * 5 + 1) % 12, 0});
  }
  return {
      {"path3_in_ring5",
       {FromEdges({0, 0, 0}, {{0, 1, 0}, {1, 2, 0}}),
        FromEdges({0, 0, 0, 0, 0},
                  {{2, 3, 0}, {0, 1, 0}, {4, 0, 0}, {1, 2, 0}, {3, 4, 0}}),
        {}}},
      // C(-O)(-N)-C in a molecule with two C(O)(N) centres; the root is the
      // rarest target label.
      {"star_in_molecule",
       {FromEdges({0, 1, 2, 0}, {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}}),
        FromEdges({0, 0, 0, 1, 1, 2, 2, 0},
                  {{2, 6, 0}, {0, 3, 0}, {1, 2, 0}, {0, 5, 0}, {2, 4, 0},
                   {0, 1, 0}, {2, 7, 0}, {1, 5, 0}}),
        {}}},
      {"labelled_triangle_tail",
       {FromEdges({0, 0, 0, 1}, {{0, 1, 1}, {1, 2, 0}, {2, 0, 0}, {2, 3, 1}}),
        FromEdges({0, 0, 0, 0, 1, 1},
                  {{3, 1, 0}, {0, 1, 1}, {2, 4, 1}, {0, 2, 0}, {1, 2, 0},
                   {3, 0, 0}, {3, 2, 1}, {3, 5, 1}, {1, 4, 1}}),
        labelled}},
      {"ring6_in_ring12",
       {FromEdges(std::vector<Label>(6, 0),
                  {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}, {4, 5, 0},
                   {5, 0, 0}}),
        FromEdges(std::vector<Label>(12, 0), ring12), {}}},
      {"tree_in_generated",
       {LcgGraph(108, 5, 1, 3), LcgGraph(208, 18, 10, 3), {}}},
      {"cyclic_in_generated",
       {LcgGraph(130, 6, 2, 2), LcgGraph(230, 20, 14, 2), {}}},
      {"induced_in_generated",
       {LcgGraph(130, 6, 2, 2), LcgGraph(230, 20, 14, 2), induced}},
      {"labelled_in_generated",
       {LcgGraph(114, 6, 2, 2), LcgGraph(214, 20, 14, 2), labelled}},
  };
}

const std::map<std::string, std::vector<Embedding>> kEmbeddingOrderReference{
    {"path3_in_ring5",
     {{1, 0, 4}, {4, 0, 1}, {0, 1, 2}, {2, 1, 0}, {3, 2, 1},
      {1, 2, 3}, {2, 3, 4}, {4, 3, 2}, {0, 4, 3}, {3, 4, 0}}},
    {"star_in_molecule", {{0, 3, 5, 1}, {2, 4, 6, 1}, {2, 4, 6, 7}}},
    {"labelled_triangle_tail",
     {{1, 0, 2, 4}, {0, 1, 2, 4}, {2, 3, 1, 4}, {3, 2, 1, 4},
      {0, 1, 3, 5}, {1, 0, 3, 5}}},
    // The generated cases are where the candidate filters prune; their
    // lists were recorded before the filters existed.
    {"tree_in_generated", {{16, 5, 7, 3, 12}}},
    {"cyclic_in_generated",
     {{2, 1, 0, 12, 3, 5}, {2, 1, 14, 12, 3, 5}, {2, 1, 15, 12, 3, 5},
      {3, 2, 13, 6, 5, 4}, {3, 2, 13, 6, 5, 8}, {3, 2, 0, 6, 5, 4},
      {3, 2, 0, 6, 5, 8}, {3, 4, 17, 6, 5, 8}, {3, 4, 10, 6, 5, 8},
      {5, 4, 17, 6, 3, 2}, {5, 4, 10, 6, 3, 2}}},
    {"induced_in_generated", {{3, 2, 13, 6, 5, 8}, {3, 2, 0, 6, 5, 8}}},
    {"labelled_in_generated",
     {{1, 13, 10, 8, 3, 17}, {14, 9, 10, 8, 3, 17}, {1, 13, 10, 8, 3, 6},
      {14, 9, 10, 8, 3, 6}, {1, 13, 10, 8, 3, 7}, {14, 9, 10, 8, 3, 7}}},
};

// (contained, search nodes) of one existence test. Re-pinned when the
// search began to skip candidates by neighbour labels; the one-label ring
// has nothing to skip.
const std::map<std::string, std::pair<bool, uint64_t>> kNodeCountReference{
    {"ring6_in_ring12", {false, 109}},
    {"tree_in_generated", {true, 9}},
    {"cyclic_in_generated", {true, 43}},
    {"induced_in_generated", {true, 42}},
    {"labelled_in_generated", {true, 24}},
};

TEST(FlatVf2Test, PinnedEmbeddingOrder) {
  const std::map<std::string, PinnedCase> cases = PinnedCases();
  for (const auto& [name, expected] : kEmbeddingOrderReference) {
    const PinnedCase& c = cases.at(name);
    EXPECT_EQ(FindEmbeddings(c.pattern, c.target, 0, c.options), expected)
        << name;
  }
}

TEST(FlatVf2Test, PinnedNodeCounts) {
  const std::map<std::string, PinnedCase> cases = PinnedCases();
  for (const auto& [name, expected] : kNodeCountReference) {
    const PinnedCase& c = cases.at(name);
    // Nodes spent, read from outside: the smallest node_budget at which the
    // search finishes without reporting truncation.
    IsoOptions options = c.options;
    bool truncated = true;
    options.budget_exhausted = &truncated;
    for (options.node_budget = 1; truncated; ++options.node_budget) {
      ContainsSubgraph(c.pattern, c.target, options);
    }
    EXPECT_EQ(std::make_pair(ContainsSubgraph(c.pattern, c.target, c.options),
                             options.node_budget - 1),
              expected)
        << name;
  }
}

// --- Kernel interface ------------------------------------------------------

TEST(FlatVf2Test, NullDomainsBuildsOwn) {
  const PinnedCase c = PinnedCases().at("cyclic_in_generated");
  FlatGraph pattern = FlatGraph::Build(c.pattern);
  FlatGraph target = FlatGraph::Build(c.target);
  LabelDomains domains = LabelDomains::Build(target.View());
  EXPECT_TRUE(FlatContainsSubgraph(pattern.View(), target.View(), nullptr));
  EXPECT_EQ(FlatFindEmbeddings(pattern.View(), target.View(), nullptr, 0),
            FlatFindEmbeddings(pattern.View(), target.View(), &domains, 0));
}

TEST(FlatVf2Test, SizePrecheckRejectsSilently) {
  FlatGraph big = FlatGraph::Build(LcgGraph(2, 11, 2, 2));
  FlatGraph small = FlatGraph::Build(LcgGraph(1, 4, 0, 2));
  bool exhausted = true;
  IsoOptions options;
  options.budget_exhausted = &exhausted;
  EXPECT_FALSE(
      FlatContainsSubgraph(big.View(), small.View(), nullptr, options));
  EXPECT_FALSE(exhausted);  // precheck resets the flag, no search ran
}

TEST(FlatVf2Test, LabelCountPrecheckRejectsSilently) {
  // A path of three vertices labelled 1 against a 5-ring with two of them:
  // the sizes fit, the label counts do not.
  FlatGraph ring = FlatGraph::Build(FromEdges(
      {0, 1, 0, 1, 0},
      {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}, {4, 0, 0}}));
  FlatGraph path3 =
      FlatGraph::Build(FromEdges({1, 1, 1}, {{0, 1, 0}, {1, 2, 0}}));
  FlatGraph path2 = FlatGraph::Build(FromEdges({1, 0}, {{0, 1, 0}}));
  bool exhausted = true;
  IsoOptions options;
  options.budget_exhausted = &exhausted;
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsScope scope(&registry);
    EXPECT_FALSE(
        FlatContainsSubgraph(path3.View(), ring.View(), nullptr, options));
    EXPECT_FALSE(exhausted);  // precheck resets the flag, no search ran
    EXPECT_TRUE(
        FlatFindEmbeddings(path3.View(), ring.View(), nullptr, 0).empty());
  }
  EXPECT_EQ(registry.Snapshot().counter(obs::Counter::kVf2Calls), 0u);
  {
    obs::ScopedMetricsScope scope(&registry);  // control: a search records
    EXPECT_TRUE(
        FlatContainsSubgraph(path2.View(), ring.View(), nullptr, options));
  }
  EXPECT_EQ(registry.Snapshot().counter(obs::Counter::kVf2Calls), 1u);
}

TEST(FlatVf2Test, ContainingGraphsFollowsIdsAndRestriction) {
  GraphDatabase db;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    db.Add(LcgGraph(500 + seed, 6 + seed % 5, 3, 2));
  }
  const std::vector<GraphId> ids = {11, 3, 7, 0, 5, 9, 2, 8};
  FlatGraphDatabase flat = FlatGraphDatabase::Build(db, ids);
  Graph pattern = LcgGraph(600, 3, 0, 2);
  FlatGraph flat_pattern = FlatGraph::Build(pattern);
  DynamicBitset odd(ids.size());
  for (size_t i = 1; i < ids.size(); i += 2) odd.Set(i);
  DynamicBitset all = ContainingGraphs(flat_pattern.View(), flat);
  DynamicBitset restricted = ContainingGraphs(flat_pattern.View(), flat, &odd);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(all.Test(i), ContainsSubgraph(pattern, db.graph(ids[i]))) << i;
    EXPECT_EQ(restricted.Test(i), all.Test(i) && odd.Test(i)) << i;
  }
  EXPECT_GT(all.Count(), 1u);
  EXPECT_LT(all.Count(), ids.size() - 1);
}

}  // namespace
}  // namespace catapult
