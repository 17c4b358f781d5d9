// Tests of resource-governed ingestion (DESIGN.md Section 9): the
// MemoryBudget ledger, the hardened streaming parser with its structural
// limits and quarantine mode, and the pipeline's degradation behaviour when
// the budget tightens. The adversarial inputs here mirror the fuzz corpus:
// degree bombs, label bombs, truncated files, NUL bytes, and overlong lines
// must all land as quarantined records or structured errors, never crashes.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/graph/io.h"
#include "src/util/deadline.h"
#include "src/util/failpoint.h"
#include "src/util/mem_budget.h"
#include "tests/scratch_dir.h"

namespace catapult {
namespace {

class IngestTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

GraphDatabase SmallDb(uint64_t seed = 17, size_t n = 50) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = n;
  gen.min_vertices = 8;
  gen.max_vertices = 16;
  gen.seed = seed;
  return GenerateMoleculeDatabase(gen);
}

CatapultOptions FastOptions() {
  CatapultOptions options;
  options.selector.budget.eta_min = 3;
  options.selector.budget.eta_max = 6;
  options.selector.budget.gamma = 6;
  options.selector.walks_per_candidate = 8;
  options.clustering.max_cluster_size = 12;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 99;
  return options;
}

// Parses `text` in quarantine mode under `options`, asserting the read
// itself never fails (quarantine mode always yields a database).
GraphDatabase ParseQuarantine(const std::string& text, IngestOptions options,
                              IngestReport* report) {
  std::istringstream in(text);
  auto db = ReadDatabase(in, options, report);
  EXPECT_TRUE(db.has_value());
  return db.has_value() ? std::move(*db) : GraphDatabase();
}

// ---------------------------------------------------------------------------
// MemoryBudget ledger.

TEST_F(IngestTest, UnlimitedBudgetTracksButNeverRefuses) {
  MemoryBudget budget;
  EXPECT_FALSE(budget.limited());
  EXPECT_TRUE(budget.TryCharge(size_t{1} << 40, "test"));
  EXPECT_EQ(budget.used(), size_t{1} << 40);
  EXPECT_EQ(budget.peak(), size_t{1} << 40);
  EXPECT_FALSE(budget.SoftExceeded());
  EXPECT_FALSE(budget.HardBreached());
  budget.Release(size_t{1} << 40);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), size_t{1} << 40);  // peak is a high-water mark
}

TEST_F(IngestTest, HardLimitRefusesAndLatchesError) {
  MemoryBudget budget = MemoryBudget::Limited(0, 1000);
  EXPECT_EQ(budget.soft_limit(), 750u);  // defaults to 3/4 of hard
  EXPECT_TRUE(budget.TryCharge(900, "phase.a"));
  EXPECT_TRUE(budget.SoftExceeded());
  EXPECT_FALSE(budget.HardBreached());
  EXPECT_FALSE(budget.TryCharge(200, "phase.b"));
  EXPECT_TRUE(budget.HardBreached());
  EXPECT_EQ(budget.used(), 900u);  // refused charge left the ledger alone
  ResourceError error = budget.error();
  EXPECT_EQ(error.site, "phase.b");
  EXPECT_EQ(error.requested, 200u);
  EXPECT_EQ(error.hard_limit, 1000u);
  EXPECT_NE(error.ToString().find("phase.b"), std::string::npos);
  // The breach is sticky even after a release frees room.
  budget.Release(900);
  EXPECT_TRUE(budget.HardBreached());
  // The first error is the one retained.
  EXPECT_FALSE(budget.TryCharge(5000, "phase.c"));
  EXPECT_EQ(budget.error().site, "phase.b");
}

TEST_F(IngestTest, CopiesShareTheLedger) {
  MemoryBudget budget = MemoryBudget::Limited(0, 1000);
  MemoryBudget copy = budget;
  EXPECT_TRUE(copy.TryCharge(800, "a"));
  EXPECT_EQ(budget.used(), 800u);
  EXPECT_FALSE(budget.TryCharge(300, "b"));
  EXPECT_TRUE(copy.HardBreached());
}

TEST_F(IngestTest, ScopedChargeReleasesOnExit) {
  MemoryBudget budget = MemoryBudget::Limited(0, 1000);
  {
    ScopedMemoryCharge charge(budget, 600, "scoped");
    EXPECT_TRUE(charge.ok());
    EXPECT_EQ(budget.used(), 600u);
  }
  EXPECT_EQ(budget.used(), 0u);
  {
    ScopedMemoryCharge charge(budget, 2000, "scoped");
    EXPECT_FALSE(charge.ok());
    EXPECT_EQ(budget.used(), 0u);
  }
  EXPECT_EQ(budget.used(), 0u);  // refused charge releases nothing
}

TEST_F(IngestTest, FailpointInjectsAllocationFailure) {
  MemoryBudget budget;  // unlimited — only the failpoint can refuse
  failpoint::ScopedFailpoint fp("mem.charge", 1);
  EXPECT_FALSE(budget.TryCharge(8, "anything"));
  EXPECT_TRUE(budget.HardBreached());
  EXPECT_TRUE(budget.TryCharge(8, "anything"));  // fires once
}

TEST_F(IngestTest, HardBreachTripsRunContextStop) {
  MemoryBudget budget = MemoryBudget::Limited(0, 100);
  RunContext ctx = RunContext::NoLimit().WithMemory(budget);
  EXPECT_FALSE(ctx.StopRequested("test.site"));
  EXPECT_FALSE(budget.TryCharge(200, "test.site"));
  EXPECT_TRUE(ctx.StopRequested("test.site"));
}

// ---------------------------------------------------------------------------
// Quarantine-mode parsing of adversarial input.

TEST_F(IngestTest, DegreeBombIsQuarantinedAndIngestionContinues) {
  std::string text = "t # 0\nv 0 C\nv 1 O\ne 0 1 0\n";
  text += "t # 1\n";  // the bomb: more vertices than the limit admits
  for (int i = 0; i < 100; ++i) {
    text += "v " + std::to_string(i) + " C\n";
  }
  text += "t # 2\nv 0 N\nv 1 C\ne 0 1 0\n";

  IngestOptions options;
  options.limits.max_vertices_per_graph = 16;
  IngestReport report;
  GraphDatabase db = ParseQuarantine(text, options, &report);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(report.graphs_ingested, 2u);
  EXPECT_EQ(report.graphs_quarantined, 1u);
  ASSERT_EQ(report.quarantined_indices.size(), 1u);
  EXPECT_EQ(report.quarantined_indices[0], 1u);  // input-order index
  ASSERT_FALSE(report.quarantine_reasons.empty());
  EXPECT_EQ(report.quarantine_reasons[0].first, "vertex limit exceeded");
  EXPECT_NE(report.quarantine_digest, 0u);
  EXPECT_NE(report.Summary().find("quarantined 1"), std::string::npos);
}

TEST_F(IngestTest, EdgeBombIsQuarantined) {
  std::string text = "t # 0\n";
  for (int i = 0; i < 20; ++i) text += "v " + std::to_string(i) + " C\n";
  for (int u = 0; u < 20; ++u) {
    for (int v = u + 1; v < 20; ++v) {
      text += "e " + std::to_string(u) + " " + std::to_string(v) + " 0\n";
    }
  }
  text += "t # 1\nv 0 C\nv 1 C\ne 0 1 0\n";

  IngestOptions options;
  options.limits.max_edges_per_graph = 32;
  IngestReport report;
  GraphDatabase db = ParseQuarantine(text, options, &report);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(report.graphs_quarantined, 1u);
  EXPECT_EQ(report.quarantine_reasons[0].first, "edge limit exceeded");
}

TEST_F(IngestTest, LabelBombDoesNotPolluteTheLabelMap) {
  // One graph tries to intern more distinct labels than the database-wide
  // limit allows; it must be quarantined WITHOUT leaking its labels into
  // the shared LabelMap.
  std::string text = "t # 0\nv 0 C\nv 1 O\ne 0 1 0\n";
  text += "t # 1\n";
  for (int i = 0; i < 64; ++i) {
    text += "v " + std::to_string(i) + " L" + std::to_string(i) + "\n";
  }
  text += "t # 2\nv 0 C\nv 1 O\ne 0 1 0\n";

  IngestOptions options;
  options.limits.max_labels = 8;
  IngestReport report;
  GraphDatabase db = ParseQuarantine(text, options, &report);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(report.graphs_quarantined, 1u);
  EXPECT_EQ(report.quarantine_reasons[0].first, "vertex label limit exceeded");
  // Only "C" and "O" were interned; the bomb's 64 labels never landed.
  EXPECT_EQ(db.labels().size(), 2u);
}

TEST_F(IngestTest, OverlongLineIsDiscardedNotBuffered) {
  // A "100MB line" attack, scaled down: the line is discarded unread past
  // the bound, the enclosing graph is quarantined, and parsing continues
  // with the next graph.
  std::string text = "t # 0\nv 0 ";
  text += std::string(1 << 16, 'X');  // far past max_line_bytes
  text += "\nt # 1\nv 0 C\n";

  IngestOptions options;
  options.limits.max_line_bytes = 256;
  IngestReport report;
  GraphDatabase db = ParseQuarantine(text, options, &report);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(report.graphs_quarantined, 1u);
  EXPECT_EQ(report.quarantine_reasons[0].first, "line exceeds max_line_bytes");
}

TEST_F(IngestTest, NulByteIsQuarantined) {
  std::string text = "t # 0\nv 0 C\nv 1 ";
  text += '\0';
  text += "O\ne 0 1 0\nt # 1\nv 0 C\n";

  IngestReport report;
  GraphDatabase db = ParseQuarantine(text, IngestOptions(), &report);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(report.graphs_quarantined, 1u);
  EXPECT_EQ(report.quarantine_reasons[0].first, "NUL byte in record");
}

TEST_F(IngestTest, TruncatedFileCommitsTheCompletePrefix) {
  // Input ends mid-record: the truncated 'v' line is malformed, the last
  // graph is quarantined, and the complete graphs before it survive.
  std::string text = "t # 0\nv 0 C\nv 1 O\ne 0 1 0\nt # 1\nv 0 ";
  IngestReport report;
  GraphDatabase db = ParseQuarantine(text, IngestOptions(), &report);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(report.graphs_quarantined, 1u);
}

TEST_F(IngestTest, StructuralViolationsAreQuarantinedPerReason) {
  std::string text;
  text += "t # 0\nv 0 C\nv 1 C\ne 0 1 0\ne 0 1 0\n";  // duplicate edge
  text += "t # 1\nv 0 C\ne 0 0 0\n";                  // self loop
  text += "t # 2\nv 0 C\ne 0 5 0\n";                  // dangling endpoint
  text += "t # 3\nv 2 C\n";                           // non-dense vertex id
  text += "t # 4\nq nonsense\n";                      // unknown record type
  text += "t # 5\nv 0 C\nv 1 O\ne 0 1 0\n";           // fine

  IngestReport report;
  GraphDatabase db = ParseQuarantine(text, IngestOptions(), &report);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(report.graphs_quarantined, 5u);
  EXPECT_EQ(report.quarantine_reasons.size(), 5u);
  EXPECT_EQ(report.quarantined_indices.size(), 5u);
}

TEST_F(IngestTest, MaxGraphsStopsEarly) {
  std::string text;
  for (int g = 0; g < 10; ++g) {
    text += "t # " + std::to_string(g) + "\nv 0 C\nv 1 O\ne 0 1 0\n";
  }
  IngestOptions options;
  options.limits.max_graphs = 3;
  IngestReport report;
  GraphDatabase db = ParseQuarantine(text, options, &report);
  EXPECT_EQ(db.size(), 3u);
  EXPECT_TRUE(report.stopped_early);
  EXPECT_NE(report.stop_reason.find("max_graphs"), std::string::npos);
}

TEST_F(IngestTest, MemoryBudgetBreachStopsIngestionWithPartialDatabase) {
  std::string text;
  for (int g = 0; g < 50; ++g) {
    text += "t # " + std::to_string(g) + "\n";
    for (int i = 0; i < 10; ++i) {
      text += "v " + std::to_string(i) + " C\n";
    }
    for (int i = 0; i + 1 < 10; ++i) {
      text += "e " + std::to_string(i) + " " + std::to_string(i + 1) + " 0\n";
    }
  }
  IngestOptions options;
  options.memory = MemoryBudget::Limited(0, 4096);  // a few graphs' worth
  IngestReport report;
  GraphDatabase db = ParseQuarantine(text, options, &report);
  EXPECT_GT(db.size(), 0u);
  EXPECT_LT(db.size(), 50u);
  EXPECT_TRUE(report.stopped_early);
  EXPECT_TRUE(report.mem_breached);
  EXPECT_EQ(report.resource_error.site, "ingest.graph");
  EXPECT_GT(report.mem_peak_bytes, 0u);
}

TEST_F(IngestTest, RoundTripThroughWriterStaysClean) {
  GraphDatabase db = SmallDb(5, 20);
  std::ostringstream out;
  WriteDatabase(db, out);
  IngestReport report;
  GraphDatabase reread = ParseQuarantine(out.str(), IngestOptions(), &report);
  EXPECT_EQ(reread.size(), db.size());
  EXPECT_EQ(report.graphs_quarantined, 0u);
  EXPECT_EQ(report.quarantine_digest, 0u);
  EXPECT_FALSE(report.stopped_early);
}

// ---------------------------------------------------------------------------
// Strict mode and ParseError diagnostics.

TEST_F(IngestTest, StrictModeFailsOnFirstViolationWithGraphIndex) {
  std::string text = "t # 0\nv 0 C\nv 1 O\ne 0 1 0\n";
  text += "t # 1\nv 0 C\n";
  text += "t # 2\nv 0 C\ne 0 7 0\n";  // line 9: dangling endpoint

  std::istringstream in(text);
  IngestOptions options;
  options.strict = true;
  ParseError error;
  auto db = ReadDatabase(in, options, nullptr, &error);
  EXPECT_FALSE(db.has_value());
  EXPECT_EQ(error.graph_index, 2u);
  EXPECT_EQ(error.line, 9u);
  EXPECT_NE(error.message.find("out of range"), std::string::npos);
}

TEST_F(IngestTest, LegacyStrictReaderStillRejectsMalformedInput) {
  std::istringstream in("t # 0\nv 0 C\ne 0 0 0\n");
  ParseError error;
  auto db = ReadDatabase(in, &error);
  EXPECT_FALSE(db.has_value());
  EXPECT_NE(error.message.find("self-loop"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Quarantine digest and checkpoint fingerprint compatibility.

TEST_F(IngestTest, QuarantineDigestIsStableAndDiscriminates) {
  std::string bomb = "t # 1\n";
  for (int i = 0; i < 50; ++i) bomb += "v " + std::to_string(i) + " C\n";
  std::string good = "t # 0\nv 0 C\nv 1 O\ne 0 1 0\n";
  std::string tail = "t # 2\nv 0 N\nv 1 C\ne 0 1 0\n";

  IngestOptions options;
  options.limits.max_vertices_per_graph = 16;

  IngestReport with_bomb1, with_bomb2, clean;
  ParseQuarantine(good + bomb + tail, options, &with_bomb1);
  ParseQuarantine(good + bomb + tail, options, &with_bomb2);
  ParseQuarantine(good + tail, options, &clean);

  EXPECT_EQ(with_bomb1.quarantine_digest, with_bomb2.quarantine_digest);
  EXPECT_NE(with_bomb1.quarantine_digest, 0u);
  EXPECT_EQ(clean.quarantine_digest, 0u);
}

TEST_F(IngestTest, IngestDigestChangesTheConfigFingerprint) {
  GraphDatabase db = SmallDb(7, 12);
  CatapultOptions options = FastOptions();
  uint64_t clean = ConfigFingerprint(options, db);
  options.ingest_digest = 0x9E3779B97F4A7C15ULL;
  uint64_t quarantined = ConfigFingerprint(options, db);
  EXPECT_NE(clean, quarantined);
  // Memory limits, like the deadline, do NOT change the fingerprint:
  // resuming under a different resource budget is the expected use.
  options.mem_hard_limit_bytes = 64u << 20;
  EXPECT_EQ(ConfigFingerprint(options, db), quarantined);
}

TEST_F(IngestTest, ResumeWithQuarantinedGraphsIsBitIdentical) {
  // A database whose file contains one quarantined graph: mining fresh and
  // mining with --resume from a checkpoint must agree bit-for-bit, because
  // the quarantine digest pins the dense graph-id space the checkpoint
  // indexes into.
  GraphDatabase gen = SmallDb(11, 25);
  std::ostringstream out;
  WriteDatabase(gen, out);
  std::string bomb = "t # 99\n";
  for (int i = 0; i < 200; ++i) bomb += "v " + std::to_string(i) + " C\n";
  std::string text = out.str() + bomb;

  IngestOptions ingest;
  ingest.limits.max_vertices_per_graph = 64;
  IngestReport report;
  GraphDatabase db = ParseQuarantine(text, ingest, &report);
  EXPECT_EQ(report.graphs_quarantined, 1u);

  const std::string dir = ScratchDir("resume");

  CatapultOptions options = FastOptions();
  options.ingest_digest = report.quarantine_digest;
  options.checkpoint_dir = dir;
  CatapultResult fresh = RunCatapult(db, options);
  ASSERT_TRUE(fresh.ok());

  options.resume = true;
  CatapultResult resumed = RunCatapult(db, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed.execution.Resumed());
  ASSERT_EQ(resumed.selection.patterns.size(),
            fresh.selection.patterns.size());
  for (size_t i = 0; i < fresh.selection.patterns.size(); ++i) {
    EXPECT_EQ(resumed.selection.patterns[i].score,
              fresh.selection.patterns[i].score);
    EXPECT_EQ(resumed.selection.patterns[i].graph.NumEdges(),
              fresh.selection.patterns[i].graph.NumEdges());
  }

  // A different quarantine outcome (different digest) must reject the
  // checkpoints and cold-start rather than silently mis-index clusters.
  options.ingest_digest ^= 0xDEADBEEF;
  CatapultResult mismatched = RunCatapult(db, options);
  ASSERT_TRUE(mismatched.ok());
  EXPECT_FALSE(mismatched.execution.Resumed());

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Pipeline degradation under a memory budget.

TEST_F(IngestTest, UnbudgetedRunReportsNoMemoryGovernance) {
  GraphDatabase db = SmallDb(19, 20);
  CatapultResult result = RunCatapult(db, FastOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.execution.mem_budget_set);
  EXPECT_FALSE(result.execution.mem_hard_breached);
}

TEST_F(IngestTest, GenerousBudgetRunsCleanAndReportsPeak) {
  GraphDatabase db = SmallDb(23, 30);
  CatapultOptions options = FastOptions();
  options.mem_hard_limit_bytes = 64u << 20;
  CatapultResult result = RunCatapult(db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.execution.mem_budget_set);
  EXPECT_EQ(result.execution.mem_hard_limit, 64u << 20);
  EXPECT_FALSE(result.execution.mem_hard_breached);
  EXPECT_GT(result.execution.mem_peak_bytes, 0u);
  EXPECT_FALSE(result.selection.patterns.empty());
  // Bit-identical to the unbudgeted run: governance that never fires must
  // be invisible in the output.
  CatapultResult plain = RunCatapult(db, FastOptions());
  ASSERT_EQ(result.selection.patterns.size(), plain.selection.patterns.size());
  for (size_t i = 0; i < plain.selection.patterns.size(); ++i) {
    EXPECT_EQ(result.selection.patterns[i].score,
              plain.selection.patterns[i].score);
  }
}

TEST_F(IngestTest, TightBudgetDegradesButStillYieldsPatterns) {
  GraphDatabase db = SmallDb(29, 60);
  CatapultOptions options = FastOptions();
  // Tight enough that the feature matrix / CSG charges breach it.
  options.mem_hard_limit_bytes = 64u << 10;  // 64 KB
  CatapultResult result = RunCatapult(db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.execution.mem_budget_set);
  // The run must degrade gracefully, never abort — and still hand back a
  // non-empty panel (fallback patterns at worst).
  EXPECT_FALSE(result.selection.patterns.empty());
  if (result.execution.mem_hard_breached) {
    EXPECT_TRUE(result.execution.Degraded());
    EXPECT_FALSE(result.execution.resource_error.site.empty());
  }
}

TEST_F(IngestTest, InjectedFeatureChargeFailureDegradesClustering) {
  GraphDatabase db = SmallDb(31, 40);
  CatapultOptions options = FastOptions();
  options.mem_hard_limit_bytes = 256u << 20;  // generous: only the
                                              // failpoint refuses
  failpoint::ScopedFailpoint fp("mem.features");
  CatapultResult result = RunCatapult(db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.execution.mem_hard_breached);
  EXPECT_TRUE(result.execution.Degraded());
  EXPECT_FALSE(result.selection.patterns.empty());
  EXPECT_EQ(result.execution.resource_error.site, "mem.features");
}

TEST_F(IngestTest, SoftPressureShedsFineClustering) {
  GraphDatabase db = SmallDb(37, 40);
  // A shared ledger already holding more than the soft limit (e.g. the
  // serving process's other tenants): every phase observes pressure from
  // the start, but the huge hard limit means nothing is ever refused.
  MemoryBudget budget = MemoryBudget::Limited(1, size_t{1} << 40);
  ASSERT_TRUE(budget.TryCharge(4096, "test.pin"));
  RunContext ctx = RunContext::NoLimit().WithMemory(budget);
  CatapultResult result = RunCatapult(db, FastOptions(), ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.execution.mem_budget_set);
  EXPECT_FALSE(result.execution.mem_hard_breached);
  EXPECT_TRUE(result.execution.mem_soft_exceeded);
  // The ladder's coarse-only rung: fine splitting was shed, yet the run
  // still produces a usable panel.
  EXPECT_TRUE(result.execution.clustering_coarse_only);
  EXPECT_FALSE(result.selection.patterns.empty());
}

}  // namespace
}  // namespace catapult
