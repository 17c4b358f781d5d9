// End-to-end tests of the Catapult pipeline (Algorithm 1) and the selector
// (Algorithm 4) on small synthetic databases: cheap enough for CI, large
// enough to exercise every phase.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/data/query_generator.h"
#include "src/formulate/evaluate.h"
#include "src/graph/algorithms.h"
#include "src/iso/vf2.h"
#include "src/util/failpoint.h"
#include "tests/scratch_dir.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

CatapultOptions FastOptions() {
  CatapultOptions options;
  options.selector.budget = {.eta_min = 3, .eta_max = 6, .gamma = 8};
  options.selector.walks_per_candidate = 10;
  options.clustering.max_cluster_size = 12;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 99;
  return options;
}

GraphDatabase SmallDb(uint64_t seed = 31, size_t n = 80) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = n;
  gen.min_vertices = 8;
  gen.max_vertices = 18;
  gen.seed = seed;
  return GenerateMoleculeDatabase(gen);
}

TEST(CatapultIntegrationTest, ProducesPatternsWithinBudget) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  CatapultResult result = RunCatapult(db, options);
  EXPECT_FALSE(result.selection.patterns.empty());
  EXPECT_LE(result.selection.patterns.size(), options.selector.budget.gamma);
  std::map<size_t, size_t> per_size;
  for (const SelectedPattern& p : result.selection.patterns) {
    EXPECT_GE(p.graph.NumEdges(), options.selector.budget.eta_min);
    EXPECT_LE(p.graph.NumEdges(), options.selector.budget.eta_max);
    EXPECT_TRUE(IsConnected(p.graph));
    ++per_size[p.graph.NumEdges()];
  }
  // Uniform size distribution: per-size counts within cap (+ remainder).
  for (const auto& [size, count] : per_size) {
    EXPECT_LE(count, options.selector.budget.MaxPerSize() + 1);
  }
}

TEST(CatapultIntegrationTest, PatternsAreDistinct) {
  GraphDatabase db = SmallDb();
  CatapultResult result = RunCatapult(db, FastOptions());
  const auto& patterns = result.selection.patterns;
  for (size_t i = 0; i < patterns.size(); ++i) {
    for (size_t j = i + 1; j < patterns.size(); ++j) {
      EXPECT_FALSE(AreIsomorphic(patterns[i].graph, patterns[j].graph))
          << "patterns " << i << " and " << j << " are duplicates";
    }
  }
}

TEST(CatapultIntegrationTest, PatternsOccurInDatabase) {
  GraphDatabase db = SmallDb();
  CatapultResult result = RunCatapult(db, FastOptions());
  // Every selected pattern should be contained in at least one data graph:
  // patterns are assembled from CSG edges, and CSG edges all come from
  // member graphs, so a pattern failing this would indicate a broken
  // summary. (The closure-graph *combination* of edges is a heuristic, so
  // we allow a small number of misses but not systematic failure.)
  size_t hits = 0;
  for (const SelectedPattern& p : result.selection.patterns) {
    for (const Graph& g : db.graphs()) {
      if (ContainsSubgraph(p.graph, g)) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits * 2, result.selection.patterns.size())
      << "most patterns must occur in the data";
}

TEST(CatapultIntegrationTest, DeterministicGivenSeed) {
  GraphDatabase db = SmallDb();
  CatapultResult a = RunCatapult(db, FastOptions());
  CatapultResult b = RunCatapult(db, FastOptions());
  ASSERT_EQ(a.selection.patterns.size(), b.selection.patterns.size());
  for (size_t i = 0; i < a.selection.patterns.size(); ++i) {
    EXPECT_TRUE(StructurallyEqual(a.selection.patterns[i].graph,
                                  b.selection.patterns[i].graph));
    EXPECT_DOUBLE_EQ(a.selection.patterns[i].score,
                     b.selection.patterns[i].score);
  }
}

TEST(CatapultIntegrationTest, ClustersPartitionDatabase) {
  GraphDatabase db = SmallDb();
  CatapultResult result = RunCatapult(db, FastOptions());
  std::set<GraphId> seen;
  for (const auto& cluster : result.clusters) {
    for (GraphId id : cluster) {
      EXPECT_TRUE(seen.insert(id).second) << "graph in two clusters";
    }
  }
  EXPECT_EQ(seen.size(), db.size());
  EXPECT_EQ(result.csgs.size(), result.clusters.size());
}

TEST(CatapultIntegrationTest, SamplingPathRuns) {
  GraphDatabase db = SmallDb(77, 120);
  CatapultOptions options = FastOptions();
  options.use_sampling = true;
  options.eager.epsilon = 0.08;  // sample ~414 > 120, passthrough
  options.lazy.min_cluster_size_to_sample = 10;
  CatapultResult result = RunCatapult(db, options);
  EXPECT_FALSE(result.selection.patterns.empty());
}

TEST(CatapultIntegrationTest, SelectionScoresDecreaseWeaklyOverall) {
  // The greedy loop decays weights, so the first pattern should have the
  // highest coverage contribution among all selected ones.
  GraphDatabase db = SmallDb();
  CatapultResult result = RunCatapult(db, FastOptions());
  ASSERT_GE(result.selection.patterns.size(), 2u);
  double first_ccov = result.selection.patterns.front().ccov;
  for (const SelectedPattern& p : result.selection.patterns) {
    EXPECT_LE(p.ccov, first_ccov + 1e-9);
  }
}

TEST(CatapultIntegrationTest, PatternsSpeedUpFormulation) {
  GraphDatabase db = SmallDb();
  CatapultResult result = RunCatapult(db, FastOptions());
  QueryWorkloadOptions wl;
  wl.count = 30;
  wl.min_edges = 4;
  wl.max_edges = 12;
  wl.seed = 17;
  std::vector<Graph> queries = GenerateQueryWorkload(db, wl);
  GuiModel gui = MakeCatapultGui(result.Patterns());
  WorkloadReport report = EvaluateGui(queries, gui);
  // The pattern set must help at least some queries.
  EXPECT_GT(report.max_mu, 0.0);
  EXPECT_LT(report.mp_percent, 100.0);
}

TEST(CatapultIntegrationTest, EmptyDatabaseYieldsNothing) {
  GraphDatabase db;
  CatapultResult result = RunCatapult(db, FastOptions());
  EXPECT_TRUE(result.selection.patterns.empty());
  EXPECT_TRUE(result.clusters.empty());
}

TEST(CatapultIntegrationTest, TinyDatabaseStillWorks) {
  GraphDatabase db = SmallDb(5, 3);
  CatapultResult result = RunCatapult(db, FastOptions());
  EXPECT_EQ(result.csgs.size(), result.clusters.size());
  // With 3 graphs the pipeline must not crash; patterns are best-effort.
}

// ---------------------------------------------------------------------------
// Thread-count invariance: the parallel refactor's contract is that N
// threads produce the same bytes as one.

// The full panel, clusters included, compared exactly: structural pattern
// equality plus bit-exact doubles (EXPECT_EQ, not NEAR — the determinism
// contract is bit-identity, so even the fp accumulation order must match).
void ExpectIdenticalResults(const CatapultResult& a, const CatapultResult& b) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i], b.clusters[i]) << "cluster " << i;
  }
  ASSERT_EQ(a.selection.patterns.size(), b.selection.patterns.size());
  for (size_t i = 0; i < a.selection.patterns.size(); ++i) {
    const SelectedPattern& pa = a.selection.patterns[i];
    const SelectedPattern& pb = b.selection.patterns[i];
    EXPECT_TRUE(StructurallyEqual(pa.graph, pb.graph)) << "pattern " << i;
    EXPECT_EQ(pa.score, pb.score) << "pattern " << i;
    EXPECT_EQ(pa.ccov, pb.ccov) << "pattern " << i;
    EXPECT_EQ(pa.lcov, pb.lcov) << "pattern " << i;
    EXPECT_EQ(pa.div, pb.div) << "pattern " << i;
    EXPECT_EQ(pa.source_csg, pb.source_csg) << "pattern " << i;
    EXPECT_EQ(pa.fallback, pb.fallback) << "pattern " << i;
  }
  EXPECT_EQ(a.selection.fallback_patterns, b.selection.fallback_patterns);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CatapultThreadsTest, ThreadCountDoesNotChangeOutput) {
  GraphDatabase db = SmallDb();

  CatapultOptions one = FastOptions();
  one.threads = 1;
  CatapultResult r1 = RunCatapult(db, one);
  ASSERT_FALSE(r1.selection.patterns.empty());
  EXPECT_EQ(r1.execution.threads, 1u);

  CatapultOptions four = FastOptions();
  four.threads = 4;
  CatapultResult r4 = RunCatapult(db, four);
  EXPECT_EQ(r4.execution.threads, 4u);

  ExpectIdenticalResults(r1, r4);
}

TEST(CatapultThreadsTest, CheckpointsAreByteIdenticalAcrossThreadCounts) {
  // Checkpoints serialise the decayed weights and the rng cursor, so a
  // byte-compare of the files is the strongest available probe that the
  // *internal* state — not just the visible panel — matched.
  GraphDatabase db = SmallDb();

  CatapultOptions one = FastOptions();
  one.threads = 1;
  one.checkpoint_dir = ScratchDir("one");
  RunCatapult(db, one);

  CatapultOptions four = FastOptions();
  four.threads = 4;
  four.checkpoint_dir = ScratchDir("four");
  RunCatapult(db, four);

  for (const char* file : {"clustering.ckpt", "csgs.ckpt", "selection.ckpt"}) {
    std::string a = one.checkpoint_dir + "/" + file;
    std::string b = four.checkpoint_dir + "/" + file;
    ASSERT_TRUE(std::filesystem::exists(a)) << a;
    ASSERT_TRUE(std::filesystem::exists(b)) << b;
    EXPECT_EQ(FileBytes(a), FileBytes(b)) << file << " differs";
  }
  std::filesystem::remove_all(one.checkpoint_dir);
  std::filesystem::remove_all(four.checkpoint_dir);
}

TEST(CatapultThreadsTest, KillAndResumeUnderFourThreadsIsBitIdentical) {
  // Mid-run kill while four workers are live, then resume — still must
  // reproduce the uninterrupted single-thread panel exactly.
  GraphDatabase db = SmallDb();
  CatapultOptions baseline_options = FastOptions();
  baseline_options.threads = 1;
  CatapultResult baseline = RunCatapult(db, baseline_options);
  ASSERT_FALSE(baseline.selection.patterns.empty());

  CatapultOptions options = FastOptions();
  options.threads = 4;
  options.checkpoint_dir = ScratchDir("kill");
  {
    failpoint::ScopedFailpoint fp("catapult.crash_after_csg_checkpoint", 1);
    CatapultResult killed = RunCatapult(db, options);
    EXPECT_FALSE(killed.execution.selection_complete);
  }

  options.resume = true;
  CatapultResult resumed = RunCatapult(db, options);
  EXPECT_EQ(resumed.execution.resumed_from, "csgs");
  ExpectIdenticalResults(baseline, resumed);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST(CatapultThreadsTest, SamplingPathIsThreadCountInvariant) {
  GraphDatabase db = SmallDb(77, 120);
  CatapultOptions one = FastOptions();
  one.use_sampling = true;
  one.eager.epsilon = 0.08;
  one.lazy.min_cluster_size_to_sample = 10;
  one.threads = 1;
  CatapultResult r1 = RunCatapult(db, one);

  CatapultOptions four = one;
  four.threads = 4;
  CatapultResult r4 = RunCatapult(db, four);
  ExpectIdenticalResults(r1, r4);
}

TEST(CatapultThreadsTest, RejectsAbsurdThreadCount) {
  GraphDatabase db = SmallDb(5, 3);
  CatapultOptions options = FastOptions();
  options.threads = 100000;
  CatapultResult result = RunCatapult(db, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.option_errors[0].field, "threads");
}

TEST(CatapultThreadsTest, ReportsPhaseParallelStats) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  options.threads = 2;
  CatapultResult result = RunCatapult(db, options);
  EXPECT_EQ(result.execution.threads, 2u);
  // Every phase did parallel work and the accounting is self-consistent:
  // busy time accrued and items were executed through the pool.
  EXPECT_GT(result.execution.clustering_parallel.parallel_items, 0u);
  EXPECT_GT(result.execution.csg_parallel.parallel_items, 0u);
  EXPECT_GT(result.execution.selection_parallel.parallel_items, 0u);
  EXPECT_GE(result.execution.clustering_parallel.wall_seconds, 0.0);
  EXPECT_GE(result.execution.selection_parallel.busy_seconds, 0.0);
}

}  // namespace
}  // namespace catapult
