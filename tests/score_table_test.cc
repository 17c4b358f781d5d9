// Selection hot-path structures (DESIGN.md §15): the structure-of-arrays
// ScoreTable, the cross-iteration SelectorClassCache, the flat coverage
// kernel, the incremental diversity fold and its search-free bound against
// their definition (tests/reference_ged.h), the bound-first argmax against
// the eager one, and the end-to-end invariants the memoized selector must
// preserve — recorded per-pattern diagnostics that replay against from-scratch
// recomputation, panels and scores equal to Algorithm 4 run from its
// definition (tests/reference_selector.h), and a stop in the exact pass
// that never lets a bound win.

#include "src/core/score_table.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/core/catapult.h"
#include "src/core/pattern_score.h"
#include "src/core/selector.h"
#include "src/csg/csg.h"
#include "src/data/molecule_generator.h"
#include "src/graph/algorithms.h"
#include "src/iso/canonical_code.h"
#include "src/iso/ged_bipartite.h"
#include "src/iso/vf2.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"
#include "tests/reference_ged.h"
#include "tests/reference_selector.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

struct SelectorEnv {
  GraphDatabase db;
  SelectionCorpus corpus;
};

// Clusters `setup->db` into contiguous runs of ten graphs, summarises them
// and builds the corpus indices.
void ClusterByTens(SelectorEnv* setup) {
  for (GraphId start = 0; start < setup->db.size(); start += 10) {
    std::vector<GraphId> cluster;
    for (GraphId i = start;
         i < std::min<GraphId>(start + 10, setup->db.size()); ++i) {
      cluster.push_back(i);
    }
    setup->corpus.clusters.push_back(std::move(cluster));
  }
  setup->corpus.csgs = BuildCsgs(setup->db, setup->corpus.clusters);
  BuildCorpusIndices(setup->db, &setup->corpus);
}

SelectorEnv MakeSetup(size_t num_graphs = 60, uint64_t seed = 13) {
  SelectorEnv setup;
  MoleculeGeneratorOptions gen;
  gen.num_graphs = num_graphs;
  gen.min_vertices = 8;
  gen.max_vertices = 16;
  gen.scaffold_families = 4;
  gen.seed = seed;
  setup.db = GenerateMoleculeDatabase(gen);
  ClusterByTens(&setup);
  return setup;
}

// Ring molecules (benzene, pyridine and furan scaffolds) and ring-free ones
// (urea stars, carbon chains), clustered apart: the spanning trees of the
// ring clusters' cyclic patterns occur in the chain summaries, so coverage
// and isomorphism must check every pattern edge, not a spanning tree.
SelectorEnv MakeRingChainSetup() {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 20;
  gen.min_vertices = 8;
  gen.max_vertices = 16;
  gen.scaffold_families = 3;
  gen.seed = 41;
  SelectorEnv setup;
  setup.db = GenerateMoleculeDatabase(gen);
  gen.scaffold_family_offset = 3;
  gen.scaffold_families = 2;
  gen.extra_ring_probability = 0.0;
  gen.seed = 43;
  const GraphDatabase chains = GenerateMoleculeDatabase(gen);
  for (const Graph& g : chains.graphs()) setup.db.Add(g);
  ClusterByTens(&setup);
  return setup;
}

// Structural equality of two graphs produced by identical runs: same vertex
// labels in order, same edge list in order.
bool SameGraph(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    if (a.VertexLabel(v) != b.VertexLabel(v)) return false;
  }
  std::vector<Edge> ea = a.EdgeList();
  std::vector<Edge> eb = b.EdgeList();
  for (size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].u != eb[i].u || ea[i].v != eb[i].v ||
        ea[i].label != eb[i].label) {
      return false;
    }
  }
  return true;
}

TEST(ScoreTableTest, ResetDimensionsAndZeroes) {
  ScoreTable table;
  table.Reset(5, 130);  // 130 csgs -> 3 coverage words
  EXPECT_EQ(table.size(), 5u);
  EXPECT_EQ(table.coverage_words(), 3u);
  table.score[4] = 2.0;
  table.valid[4] = 1;
  table.CoverageRow(4)[2] = ~uint64_t{0};
  table.div_min[4] = 0.5;
  table.div_folded[4] = 3;
  table.exact[4] = 1;

  // Shrinking then regrowing must hand back zeroed rows, not stale state:
  // a row starts inexact, folding its own graph from (0, +max).
  table.Reset(2, 130);
  table.Reset(5, 130);
  EXPECT_EQ(table.score[4], 0.0);
  EXPECT_EQ(table.valid[4], 0);
  EXPECT_EQ(table.CoverageRow(4)[2], 0u);
  EXPECT_EQ(table.div_min[4], std::numeric_limits<double>::max());
  EXPECT_EQ(table.div_folded[4], 0u);
  EXPECT_EQ(table.exact[4], 0);
}

TEST(ScoreTableTest, CoverageRowsDoNotOverlap) {
  ScoreTable table;
  table.Reset(3, 64);
  table.CoverageRow(1)[0] = 0xff;
  EXPECT_EQ(table.CoverageRow(0)[0], 0u);
  EXPECT_EQ(table.CoverageRow(2)[0], 0u);
}

TEST(SelectorClassCacheTest, ProbeFindsIsomorphicClass) {
  Rng rng(7);
  Graph base = RandomConnectedSubgraph(
      GenerateMoleculeDatabase({.num_graphs = 1, .seed = 3}).graph(0), 6, rng);
  const std::string code = CanonicalCode(base);

  SelectorClassCache cache;
  EXPECT_FALSE(cache.contains(code));
  SelectorClassEntry entry;
  entry.rep = base;
  entry.lcov = 0.25;
  cache.emplace(code, std::move(entry));

  // A vertex-permuted copy probes with the same code and lands on the
  // class, whose representative stays the first-seen graph.
  Graph shuffled = Permuted(base, rng);
  const auto hit = cache.find(CanonicalCode(shuffled));
  ASSERT_NE(hit, cache.end());
  EXPECT_TRUE(SameGraph(hit->second.rep, base));
  EXPECT_EQ(hit->second.lcov, 0.25);

  // A graph of another class, even of the same size, misses.
  Graph other = base;
  other.SetVertexLabel(0, other.VertexLabel(0) + 100);
  EXPECT_FALSE(cache.contains(CanonicalCode(other)));
}

// Coverage from the definition, one Graph-level containment test per
// summary, with CoveredCsgsFlat's budget conventions.
std::vector<bool> ReferenceCoverage(const Graph& pattern,
                                    const std::vector<Graph>& summaries,
                                    uint64_t budget, uint64_t* exhausted) {
  std::vector<bool> covered(summaries.size(), false);
  IsoOptions options;
  options.node_budget = budget == 0 ? kDefaultCoverageIsoBudget : budget;
  for (size_t i = 0; i < summaries.size(); ++i) {
    if (summaries[i].NumVertices() == 0) continue;
    bool truncated = false;
    options.budget_exhausted = &truncated;
    covered[i] = ContainsSubgraph(pattern, summaries[i], options);
    if (truncated) ++*exhausted;
  }
  return covered;
}

TEST(CoveredCsgsFlatTest, MatchesReferenceCoverage) {
  SelectorEnv setup = MakeSetup();
  const FlatGraphDatabase& index = setup.corpus.summary_index;
  ASSERT_EQ(index.size(), setup.corpus.csgs.size());
  std::vector<Graph> summaries;
  for (const ClusterSummaryGraph& csg : setup.corpus.csgs) {
    summaries.push_back(csg.ToGraph());
  }
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Graph pattern = RandomConnectedSubgraph(
        setup.db.graph(static_cast<GraphId>(trial * 5)), 3 + trial % 5, rng);
    for (uint64_t budget : {uint64_t{0}, uint64_t{50}, uint64_t{100000}}) {
      uint64_t ref_exhausted = 0;
      std::vector<bool> reference =
          ReferenceCoverage(pattern, summaries, budget, &ref_exhausted);
      uint64_t flat_exhausted = 0;
      std::vector<uint64_t> words(CoverageWords(index.size()), 0);
      CoveredCsgsFlat(pattern, index, budget, &flat_exhausted, words.data());
      for (size_t i = 0; i < reference.size(); ++i) {
        bool flat_bit = (words[i >> 6] >> (i & 63)) & 1;
        EXPECT_EQ(flat_bit, reference[i])
            << "trial " << trial << " budget " << budget << " csg " << i;
      }
      EXPECT_EQ(flat_exhausted, ref_exhausted)
          << "trial " << trial << " budget " << budget;
    }
  }
}

// Diversity from its definition (Section 3.2): the minimum of the pair
// distance over every selected pattern, nothing pruned. The fold from
// (0, +inf) must land on it exactly for the exact oracle at the default
// node budget and at one that truncates, and for the bipartite oracle.
TEST(FoldDiversityTest, FromScratchEqualsDefinition) {
  SelectorEnv setup = MakeSetup(30, 9);
  Rng rng(17);
  std::vector<Graph> panel;
  for (int i = 0; i < 5; ++i) {
    panel.push_back(RandomConnectedSubgraph(
        setup.db.graph(static_cast<GraphId>(i * 3)), 3 + i, rng));
  }
  std::vector<Graph> patterns;
  for (int trial = 0; trial < 8; ++trial) {
    patterns.push_back(RandomConnectedSubgraph(
        setup.db.graph(static_cast<GraphId>(trial)), 4 + trial % 3, rng));
  }
  const double inf = std::numeric_limits<double>::infinity();
  size_t truncated = 0;
  for (uint64_t budget : {GedOptions{}.node_budget, uint64_t{40}}) {
    GedOptions ged;
    ged.node_budget = budget;
    auto exact_oracle = [&](const Graph& a, const Graph& b) {
      GedResult r = GraphEditDistance(a, b, ged);
      if (!r.exact) ++truncated;
      return r.distance;
    };
    for (size_t t = 0; t < patterns.size(); ++t) {
      const Graph& p = patterns[t];
      EXPECT_EQ(FoldDiversity(p, panel, 0, inf, ged, /*approximate=*/false),
                reference::ReferenceDiversity(p, panel, exact_oracle))
          << "budget " << budget << " pattern " << t;
      EXPECT_EQ(FoldDiversity(p, panel, 0, inf, ged, /*approximate=*/true),
                reference::ReferenceDiversity(p, panel, BipartiteGed))
          << "budget " << budget << " pattern " << t;
    }
  }
  EXPECT_GT(truncated, 0u) << "the 40-node budget must truncate some GED";
}

TEST(FoldDiversityTest, IncrementalFoldEqualsFullFold) {
  SelectorEnv setup = MakeSetup(30, 9);
  Rng rng(23);
  std::vector<Graph> panel;
  for (int i = 0; i < 6; ++i) {
    panel.push_back(RandomConnectedSubgraph(
        setup.db.graph(static_cast<GraphId>(i * 2 + 1)), 3 + i % 4, rng));
  }
  GedOptions ged;
  Graph p = RandomConnectedSubgraph(setup.db.graph(20), 5, rng);
  double full = FoldDiversity(p, panel, 0,
                              std::numeric_limits<double>::max(), ged, false);
  // Folding a prefix, then continuing from its running minimum, must land on
  // the same value for every split point.
  for (size_t split = 0; split <= panel.size(); ++split) {
    std::vector<Graph> prefix(panel.begin(), panel.begin() + split);
    double carried = FoldDiversity(p, prefix, 0,
                                   std::numeric_limits<double>::max(), ged,
                                   false);
    double resumed = FoldDiversity(p, panel, split, carried, ged, false);
    EXPECT_EQ(resumed, full) << "split " << split;
  }
}

// The bound the selector ranks candidates by: never below the exact fold
// over the same range from the same start, whether the kernel runs to
// optimality or is truncated by its node budget.
TEST(FoldDiversityTest, BoundIsNeverBelowTheFold) {
  SelectorEnv setup = MakeSetup(30, 9);
  Rng rng(29);
  std::vector<Graph> panel;
  for (int i = 0; i < 6; ++i) {
    panel.push_back(RandomConnectedSubgraph(
        setup.db.graph(static_cast<GraphId>(i * 4)), 3 + i % 4, rng));
  }
  const double max = std::numeric_limits<double>::max();
  size_t strict = 0;
  for (uint64_t budget : {GedOptions{}.node_budget, uint64_t{40}}) {
    GedOptions ged;
    ged.node_budget = budget;
    for (int trial = 0; trial < 10; ++trial) {
      Graph p = RandomConnectedSubgraph(
          setup.db.graph(static_cast<GraphId>(trial + 5)), 3 + trial % 5, rng);
      for (size_t q = 0; q < panel.size(); ++q) {
        EXPECT_LE(GraphEditDistance(p, panel[q], ged).distance,
                  GedGreedyUpperBound(p, panel[q]));
      }
      for (size_t from = 0; from <= panel.size(); ++from) {
        // The memo a class carries after folding the first `from` picks.
        const std::vector<Graph> prefix(panel.begin(), panel.begin() + from);
        const double start = FoldDiversity(p, prefix, 0, max, ged, false);
        const double exact = FoldDiversity(p, panel, from, start, ged, false);
        const double bound = FoldDiversityBound(p, panel, from, start);
        EXPECT_LE(exact, bound) << "budget " << budget << " from " << from;
        if (exact < bound) ++strict;
      }
    }
  }
  EXPECT_GT(strict, 0u) << "the greedy seed should overestimate some pairs";
}

// Bound-first against the eager argmax over synthetic tables whose scores
// and bounds are small integers, so ties — between scores, between bounds,
// and between a bound and the best score so far at a wave boundary — are
// common. The winner must be the eager strict-> first-in-order maximum,
// every row whose bound reaches the winning score must have been
// evaluated, and the evaluated rows must not depend on the thread count.
TEST(BoundFirstArgmaxTest, WinnerIsTheEagerFirstMaximum) {
  ThreadPool one(1);
  ThreadPool four(4);
  Rng rng(2024);
  size_t partial = 0;  // tables where the bound spared some row
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t n = 1 + rng.UniformInt(4 * kBoundFirstWave);
    ScoreTable table;
    table.Reset(n, 1);
    std::vector<double> truth(n, 0.0);
    int eager = -1;
    for (size_t i = 0; i < n; ++i) {
      table.valid[i] = rng.UniformInt(6) != 0;
      truth[i] = static_cast<double>(rng.UniformInt(4));
      if (rng.UniformInt(4) == 0) {
        table.exact[i] = 1;
        table.score[i] = truth[i];
      } else {
        table.bound[i] = truth[i] + static_cast<double>(rng.UniformInt(3));
      }
      if (table.valid[i] && (eager < 0 || truth[i] > truth[eager])) {
        eager = static_cast<int>(i);
      }
    }
    std::vector<uint8_t> evaluated[2];
    size_t run = 0;
    for (ThreadPool* pool : {&one, &four}) {
      ScoreTable t = table;
      std::vector<uint8_t>& seen = evaluated[run++];
      seen.assign(n, 0);
      const int winner =
          BoundFirstArgmax(t, [&](const uint32_t* rows, size_t count) {
            pool->ParallelFor(count, 1, [&](size_t k) {
              const uint32_t i = rows[k];
              t.score[i] = truth[i];
              t.exact[i] = 1;
              seen[i] = 1;
            });
            return true;
          });
      ASSERT_EQ(winner, eager) << "trial " << trial;
      for (size_t i = 0; i < n; ++i) {
        if (!table.valid[i] || table.exact[i]) {
          EXPECT_FALSE(seen[i]) << "trial " << trial << " row " << i;
        } else if (table.bound[i] >= truth[winner]) {
          EXPECT_TRUE(seen[i]) << "trial " << trial << " row " << i;
        }
      }
    }
    EXPECT_EQ(evaluated[0], evaluated[1]) << "trial " << trial;
    for (size_t i = 0; i < n; ++i) {
      if (table.valid[i] && !table.exact[i] && !evaluated[0][i]) {
        ++partial;
        break;
      }
    }
  }
  EXPECT_GT(partial, 1000u);
}

// The tie rule at a wave boundary: a full first wave finds best score 3 at
// its last row, and the next row in bound order has bound 3 and score 3 at
// a lower index. It must be evaluated (the stop needs a bound strictly
// below the best) and win, as it would in the eager first-in-order scan.
TEST(BoundFirstArgmaxTest, BoundEqualToBestIsStillEvaluated) {
  const size_t n = kBoundFirstWave + 1;
  ScoreTable table;
  table.Reset(n, 1);
  std::vector<double> truth(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    table.valid[i] = 1;
    table.bound[i] = i == 0 ? 3.0 : 5.0;
  }
  truth[0] = 3.0;
  truth[n - 1] = 3.0;
  size_t waves = 0;
  const int winner =
      BoundFirstArgmax(table, [&](const uint32_t* rows, size_t count) {
        ++waves;
        for (size_t k = 0; k < count; ++k) {
          table.score[rows[k]] = truth[rows[k]];
          table.exact[rows[k]] = 1;
        }
        return true;
      });
  EXPECT_EQ(waves, 2u);
  EXPECT_EQ(winner, 0);
}

TEST(SelectorReplayTest, RecordedDiagnosticsReplay) {
  SelectorEnv setup = MakeSetup();
  SelectorOptions options;
  options.budget = {.eta_min = 3, .eta_max = 6, .gamma = 8};
  options.walks_per_candidate = 8;
  Rng rng(7);
  SelectionResult result =
      FindCannedPatternSet(setup.db, setup.corpus, options, rng);
  ASSERT_GE(result.patterns.size(), 2u);

  std::vector<Graph> summaries;
  for (const ClusterSummaryGraph& csg : setup.corpus.csgs) {
    summaries.push_back(csg.ToGraph());
  }
  ClusterWeights cw(setup.corpus.clusters, setup.db.size());
  LabelCoverageIndex label_index(setup.db);
  std::vector<Graph> prefix;
  for (const SelectedPattern& p : result.patterns) {
    if (p.fallback) break;
    // Diversity: the memoized fold must equal the definition — the minimum
    // full-enumeration GED to the panel selected before this pattern (the
    // first pick has no diversity signal and scores a neutral 1).
    double expected_div =
        prefix.empty()
            ? 1.0
            : reference::ReferenceDiversity(p.graph, prefix,
                                            reference::ReferenceGed);
    EXPECT_EQ(p.div, expected_div);
    // Coverage: the recorded ccov must equal a fresh coverage test summed
    // against the weights as decayed by the preceding selections.
    uint64_t truncated = 0;
    std::vector<bool> covered =
        ReferenceCoverage(p.graph, summaries, 0, &truncated);
    double expected_ccov = 0.0;
    for (size_t c = 0; c < covered.size(); ++c) {
      if (covered[c]) expected_ccov += cw.Get(c);
    }
    EXPECT_EQ(p.ccov, expected_ccov);
    EXPECT_EQ(p.lcov, label_index.PatternLabelCoverage(p.graph));
    EXPECT_EQ(p.cog, CognitiveLoad(p.graph));
    for (size_t c = 0; c < covered.size(); ++c) {
      if (covered[c]) cw.Decay(c, options.weight_decay);
    }
    prefix.push_back(p.graph);
  }
}

// Algorithm 4 against its definition (tests/reference_selector.h): the
// class cache, the diversity folds and the pool must not change a panel or
// a score bit. Exact GED and unexhausted coverage searches are asserted,
// since under truncation a cached class may legitimately answer with its
// representative's values (DESIGN.md §15). In the dry mode nothing decays,
// so the greedy proposals repeat until every one is isomorphic to a
// selected pattern and the loop must stop short of gamma. The ring/chain
// corpus runs the exact oracle only: there the approximate oracle shows
// the class cache's numbering caveat (BipartiteGed depends on vertex
// numbering, and a cache hit answers with the representative's value;
// DESIGN.md §15).
TEST(ReferenceSelectorTest, PanelsAndScoresMatchDefinition) {
  enum Mode { kWalks, kGreedy, kApproximate, kDry };
  const PatternBudget budgets[] = {{.eta_min = 3, .eta_max = 5, .gamma = 6},
                                   {.eta_min = 3, .eta_max = 6, .gamma = 8}};
  constexpr unsigned kRingChain = 0;
  ThreadPool one(1);
  ThreadPool four(4);
  for (uint64_t corpus_seed : {5u, 13u, 29u, kRingChain}) {
    SelectorEnv setup = corpus_seed == kRingChain
                            ? MakeRingChainSetup()
                            : MakeSetup(40, corpus_seed);
    for (const PatternBudget& budget : budgets) {
      for (Mode mode : {kWalks, kGreedy, kApproximate, kDry}) {
        if (corpus_seed == kRingChain && mode == kApproximate) continue;
        SelectorOptions options;
        options.budget = budget;
        options.walks_per_candidate = 10;
        if (mode == kGreedy || mode == kDry) {
          options.strategy = CandidateStrategy::kGreedyBfs;
        }
        options.approximate_diversity = mode == kApproximate;
        if (mode == kDry) {
          options.weight_decay = 1.0;
          options.budget.gamma = 30;
        }
        const uint64_t seed = corpus_seed * 7 + budget.eta_max;
        Rng ref_rng(seed);
        const reference::ReferenceSelection expected =
            reference::ReferenceSelect(setup.db, setup.corpus.clusters,
                                       setup.corpus.csgs, options, ref_rng);
        ASSERT_TRUE(expected.ged_exact);
        ASSERT_FALSE(expected.patterns.empty());
        if (mode == kDry) {
          ASSERT_LT(expected.patterns.size(), options.budget.gamma);
        }
        for (ThreadPool* pool : {&one, &four}) {
          SCOPED_TRACE(::testing::Message()
                       << "corpus " << corpus_seed << " eta_max "
                       << budget.eta_max << " mode " << mode << " threads "
                       << pool->num_threads());
          Rng rng(seed);
          const SelectionResult got = FindCannedPatternSet(
              setup.db, setup.corpus, options, rng,
              RunContext::NoLimit().WithPool(pool));
          EXPECT_TRUE(got.complete);
          EXPECT_EQ(got.iso_budget_exhausted, 0u);
          ASSERT_EQ(got.patterns.size(), expected.patterns.size());
          for (size_t i = 0; i < got.patterns.size(); ++i) {
            const SelectedPattern& g = got.patterns[i];
            const SelectedPattern& e = expected.patterns[i];
            EXPECT_TRUE(SameGraph(g.graph, e.graph)) << "pattern " << i;
            EXPECT_EQ(g.score, e.score) << "pattern " << i;
            EXPECT_EQ(g.ccov, e.ccov) << "pattern " << i;
            EXPECT_EQ(g.lcov, e.lcov) << "pattern " << i;
            EXPECT_EQ(g.div, e.div) << "pattern " << i;
            EXPECT_EQ(g.cog, e.cog) << "pattern " << i;
            EXPECT_EQ(g.source_csg, e.source_csg) << "pattern " << i;
          }
        }
      }
    }
  }
}

// A stop in the exact pass never lets a bound win. After pick k the hook
// arms selector.exact_div, so the next iteration's first fold stops; no
// row of that iteration was scored exactly (the panel just grew, and the
// exact oracle has no fold-free rows), so it adds no greedy pattern, and
// the panel is topped up with fallback patterns. Every greedy pick keeps
// its definitional diversity and score.
TEST(SelectorStopTest, ExactPassStopNeverSelectsByBound) {
  SelectorEnv setup = MakeSetup(40, 13);
  SelectorOptions options;
  options.budget.eta_min = 3;
  options.budget.eta_max = 6;
  options.budget.gamma = 8;
  options.walks_per_candidate = 10;
  ThreadPool one(1);
  ThreadPool four(4);
  for (size_t arm_after : {size_t{1}, size_t{2}}) {
    for (ThreadPool* pool : {&one, &four}) {
      SCOPED_TRACE(::testing::Message() << "arm after " << arm_after
                                        << " threads "
                                        << pool->num_threads());
      SelectorCheckpointHooks hooks;
      hooks.on_pattern_selected = [&](const SelectorCheckpointState& state) {
        if (state.patterns.size() == arm_after) {
          failpoint::Arm("selector.exact_div");
        }
      };
      Rng rng(11);
      const SelectionResult got = FindCannedPatternSet(
          setup.db, setup.corpus, options, rng,
          RunContext::NoLimit().WithPool(pool), hooks);
      const size_t fired = failpoint::HitCount("selector.exact_div");
      failpoint::DisarmAll();
      EXPECT_GE(fired, 1u);
      EXPECT_FALSE(got.complete);
      ASSERT_EQ(got.patterns.size(), options.budget.gamma);
      EXPECT_EQ(got.fallback_patterns, options.budget.gamma - arm_after);
      std::vector<Graph> prefix;
      for (size_t i = 0; i < got.patterns.size(); ++i) {
        const SelectedPattern& p = got.patterns[i];
        EXPECT_EQ(p.fallback, i >= arm_after) << "pattern " << i;
        if (p.fallback) continue;
        const double expected_div =
            prefix.empty()
                ? 1.0
                : reference::ReferenceDiversity(p.graph, prefix,
                                                reference::ReferenceGed);
        EXPECT_EQ(p.div, expected_div) << "pattern " << i;
        EXPECT_EQ(p.score, p.ccov * p.lcov * p.div / p.cog) << "pattern " << i;
        prefix.push_back(p.graph);
      }
    }
  }
}

TEST(PreparedCorpusTest, CarriesSummaryIndex) {
  SelectorEnv setup = MakeSetup(30, 21);
  CatapultOptions options;
  options.selector.budget = {.eta_min = 3, .eta_max = 5, .gamma = 4};
  options.selector.walks_per_candidate = 6;
  PreparedCorpus corpus =
      PrepareCorpus(setup.db, options, RunContext::NoLimit());
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus.summary_index.size(), corpus.csgs.size());
  // The index's flat summaries match the CSGs' own views.
  for (size_t i = 0; i < corpus.csgs.size(); ++i) {
    Graph expected = corpus.csgs[i].ToGraph();
    FlatGraphView got = corpus.summary_index.view(i);
    EXPECT_EQ(got.NumVertices(), expected.NumVertices());
    EXPECT_EQ(got.NumEdges(), expected.NumEdges());
  }
}

}  // namespace
}  // namespace catapult
