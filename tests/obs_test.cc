// Tests of the observability layer (DESIGN.md Section 11): the JSON writer,
// the log2 histogram bucketing, thread-local shard merging across the
// ThreadPool, the deterministic span tracer, the report schema with its
// metrics section — and the layer's central contract, asserted end-to-end:
// a run with metrics and tracing attached produces bit-identical patterns
// and checkpoint bytes to a run without them, at 1 and at 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/catapult.h"
#include "src/core/report.h"
#include "src/data/molecule_generator.h"
#include "src/iso/ged.h"
#include "src/iso/mcs.h"
#include "src/obs/admin.h"
#include "src/obs/clock.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/reqlog.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"
#include "tests/scratch_dir.h"
#include "tests/test_graphs.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace catapult {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriterTest, CompactDocument) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("a").Value(uint64_t{1});
  w.Key("b").BeginArray().Value(2).Value(3).EndArray();
  w.Key("c").BeginObject().Key("d").Value(true).EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[2,3],"c":{"d":true}})");
}

TEST(JsonWriterTest, PrettyDocumentMatchesReportShape) {
  obs::JsonWriter w(2);
  w.BeginObject();
  w.Key("patterns").BeginArray().EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\n  \"patterns\": [\n  ]\n}");
}

TEST(JsonWriterTest, EscapesEverything) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("k\"ey").Value(std::string("a\\b\n\t\r\b\f\x01z"));
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"k\\\"ey\":\"a\\\\b\\n\\t\\r\\b\\f\\u0001z\"}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.BeginArray();
  w.Value(1.5);
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(w.str(), "[1.5,null,null]");
}

// ---------------------------------------------------------------------------
// Histogram bucketing

TEST(MetricsTest, HistBucketEdges) {
  EXPECT_EQ(obs::HistBucket(0), 0u);
  EXPECT_EQ(obs::HistBucket(1), 1u);
  EXPECT_EQ(obs::HistBucket(2), 2u);
  EXPECT_EQ(obs::HistBucket(3), 2u);
  EXPECT_EQ(obs::HistBucket(4), 3u);
  EXPECT_EQ(obs::HistBucket(7), 3u);
  EXPECT_EQ(obs::HistBucket(8), 4u);
  EXPECT_EQ(obs::HistBucket(uint64_t{1} << 62), 63u);
  EXPECT_EQ(obs::HistBucket(uint64_t{1} << 63), 64u);
  EXPECT_EQ(obs::HistBucket(UINT64_MAX), 64u);
}

TEST(MetricsTest, HistDataRecordAndMerge) {
  obs::HistData a;
  a.Record(1);
  a.Record(100);
  obs::HistData b;
  b.Record(7);
  a.MergeFrom(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 108u);
  EXPECT_EQ(a.min, 1u);
  EXPECT_EQ(a.max, 100u);
  EXPECT_DOUBLE_EQ(a.Mean(), 36.0);
}

TEST(MetricsTest, QuantileInterpolatesLog2Buckets) {
  obs::HistData empty;
  EXPECT_EQ(empty.Quantile(0.5), 0u);

  obs::HistData same;
  for (int i = 0; i < 100; ++i) same.Record(7);
  EXPECT_EQ(same.Quantile(0.5), 7u);
  EXPECT_EQ(same.Quantile(0.95), 7u);
  EXPECT_EQ(same.Quantile(0.99), 7u);

  obs::HistData spread;
  spread.Record(1);
  spread.Record(1000);
  EXPECT_EQ(spread.Quantile(0.0), 1u);
  EXPECT_EQ(spread.Quantile(1.0), 1000u);
  // p50's target rank lands in the first populated bucket (value 1).
  EXPECT_EQ(spread.Quantile(0.5), 1u);
  // Quantiles are always clamped into [min, max].
  for (double p : {0.01, 0.25, 0.5, 0.9, 0.999}) {
    const uint64_t q = spread.Quantile(p);
    EXPECT_GE(q, 1u) << p;
    EXPECT_LE(q, 1000u) << p;
  }
}

TEST(MetricsTest, SnapshotMergeFromAddsCountersAndMaxesGauges) {
  obs::MetricsSnapshot a;
  a.counters[static_cast<size_t>(obs::Counter::kVf2Calls)] = 3;
  a.gauges[static_cast<size_t>(obs::Gauge::kPoolThreads)] = 2;
  a.hists[static_cast<size_t>(obs::Hist::kPcpEdges)].Record(10);
  obs::MetricsSnapshot b;
  b.enabled = true;
  b.counters[static_cast<size_t>(obs::Counter::kVf2Calls)] = 4;
  b.gauges[static_cast<size_t>(obs::Gauge::kPoolThreads)] = 7;
  b.hists[static_cast<size_t>(obs::Hist::kPcpEdges)].Record(30);
  a.MergeFrom(b);
  EXPECT_TRUE(a.enabled);
  EXPECT_EQ(a.counter(obs::Counter::kVf2Calls), 7u);
  EXPECT_EQ(a.gauge(obs::Gauge::kPoolThreads), 7u);
  EXPECT_EQ(a.hist(obs::Hist::kPcpEdges).count, 2u);
  EXPECT_EQ(a.hist(obs::Hist::kPcpEdges).sum, 40u);
}

TEST(MetricsTest, HumanSummaryIncludesQuantiles) {
  obs::MetricsSnapshot snap;
  snap.enabled = true;
  obs::HistData& h = snap.hists[static_cast<size_t>(obs::Hist::kPcpEdges)];
  for (int i = 0; i < 50; ++i) h.Record(9);
  std::string text = obs::HumanSummary(snap);
  EXPECT_NE(text.find("p50=9"), std::string::npos) << text;
  EXPECT_NE(text.find("p95=9"), std::string::npos) << text;
  EXPECT_NE(text.find("p99=9"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Registry + scopes

TEST(MetricsTest, CountsNothingWithoutScope) {
  obs::MetricsRegistry registry;
  obs::Count(obs::Counter::kVf2Calls);  // no scope installed: dropped
  EXPECT_EQ(registry.Snapshot().counter(obs::Counter::kVf2Calls), 0u);
}

TEST(MetricsTest, ScopeInstallsAndRestores) {
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsScope scope(&registry);
    obs::Count(obs::Counter::kVf2Calls, 3);
    obs::SetGaugeMax(obs::Gauge::kPoolThreads, 7);
    obs::SetGaugeMax(obs::Gauge::kPoolThreads, 2);  // below the watermark
    obs::Observe(obs::Hist::kVf2NodesPerCall, 5);
  }
  obs::Count(obs::Counter::kVf2Calls);  // scope closed: dropped
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.counter(obs::Counter::kVf2Calls), 3u);
  EXPECT_EQ(snap.gauge(obs::Gauge::kPoolThreads), 7u);
  EXPECT_EQ(snap.hist(obs::Hist::kVf2NodesPerCall).count, 1u);
  EXPECT_EQ(snap.hist(obs::Hist::kVf2NodesPerCall).sum, 5u);
}

TEST(MetricsTest, NullRegistryScopeIsInert) {
  obs::ScopedMetricsScope scope(nullptr);
  obs::Count(obs::Counter::kVf2Calls);  // must not crash
}

TEST(MetricsTest, ShardsMergeAcrossPoolThreads) {
  obs::MetricsRegistry registry;
  ThreadPool pool(4);
  obs::ScopedMetricsScope scope(&registry);
  // 100 parallel items, each counting once and observing its index: the
  // merged totals must be exact regardless of which worker ran which item.
  pool.ParallelFor(
      100, 1,
      [](size_t i) {
        obs::Count(obs::Counter::kWalkSteps);
        obs::Observe(obs::Hist::kPcpEdges, i);
      },
      &registry);
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kWalkSteps), 100u);
  EXPECT_EQ(snap.hist(obs::Hist::kPcpEdges).count, 100u);
  EXPECT_EQ(snap.hist(obs::Hist::kPcpEdges).sum, 99u * 100u / 2);
  EXPECT_EQ(snap.hist(obs::Hist::kPcpEdges).min, 0u);
  EXPECT_EQ(snap.hist(obs::Hist::kPcpEdges).max, 99u);
}

TEST(MetricsTest, ResetClearsEverything) {
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsScope scope(&registry);
    obs::Count(obs::Counter::kVf2Calls);
  }
  registry.Reset();
  EXPECT_EQ(registry.Snapshot().counter(obs::Counter::kVf2Calls), 0u);
}

TEST(MetricsTest, EveryNameIsNonEmptyAndUnique) {
  std::set<std::string> names;
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    names.insert(obs::CounterName(static_cast<obs::Counter>(i)));
  }
  for (size_t i = 0; i < obs::kNumGauges; ++i) {
    names.insert(obs::GaugeName(static_cast<obs::Gauge>(i)));
  }
  for (size_t i = 0; i < obs::kNumHists; ++i) {
    names.insert(obs::HistName(static_cast<obs::Hist>(i)));
  }
  EXPECT_EQ(names.size(),
            obs::kNumCounters + obs::kNumGauges + obs::kNumHists);
  EXPECT_EQ(names.count(""), 0u);
}

TEST(MetricsTest, HumanSummarySkipsZerosByDefault) {
  obs::MetricsSnapshot snap;
  snap.enabled = true;
  snap.counters[static_cast<size_t>(obs::Counter::kVf2Calls)] = 42;
  std::string text = obs::HumanSummary(snap);
  EXPECT_NE(text.find("vf2.calls"), std::string::npos);
  EXPECT_EQ(text.find("ged.bipartite_calls"), std::string::npos);
  std::string all = obs::HumanSummary(snap, /*include_zeros=*/true);
  EXPECT_NE(all.find("ged.bipartite_calls"), std::string::npos);
}

// One node-budget-exhausting call of each exact kernel: the call, the
// search state's own node count (the budget, since the search stops when
// it reaches it) and the exhaustion are each counted once.
TEST(MetricsTest, ExactKernelsCountCallsNodesAndExhaustion) {
  // Equal vertex labels keep the label-only GED lower bound at 0, so the
  // search cannot prove the greedy seed optimal within a few nodes.
  Graph ring;
  Graph path;
  for (int i = 0; i < 6; ++i) {
    ring.AddVertex(0);
    path.AddVertex(0);
  }
  for (VertexId v = 0; v < 6; ++v) {
    ring.AddEdge(v, (v + 1) % 6);
    if (v + 1 < 6) path.AddEdge(v, v + 1);
  }
  constexpr uint64_t kBudget = 3;
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsScope scope(&registry);
    GedOptions ged;
    ged.node_budget = kBudget;
    EXPECT_FALSE(GraphEditDistance(ring, path, ged).exact);
    McsOptions mcs;
    mcs.node_budget = kBudget;
    EXPECT_FALSE(MaxCommonSubgraph(ring, path, mcs).exact);
  }
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kGedCalls), 1u);
  EXPECT_EQ(snap.counter(obs::Counter::kGedNodes), kBudget);
  EXPECT_EQ(snap.counter(obs::Counter::kGedBudgetExhausted), 1u);
  EXPECT_EQ(snap.counter(obs::Counter::kMcsCalls), 1u);
  EXPECT_EQ(snap.counter(obs::Counter::kMcsNodes), kBudget);
  EXPECT_EQ(snap.counter(obs::Counter::kMcsBudgetExhausted), 1u);
}

// ---------------------------------------------------------------------------
// Clock + tracer

// Deterministic tick source: advances 1 microsecond per call.
uint64_t g_test_ticks = 0;
uint64_t TestTicks() { return g_test_ticks += 1000; }

TEST(ClockTest, ScopedTickSourceInstallsAndRestores) {
  g_test_ticks = 0;
  {
    obs::ScopedTickSourceForTest scoped(&TestTicks);
    EXPECT_EQ(obs::NowNanos(), 1000u);
    EXPECT_EQ(obs::NowNanos(), 2000u);
  }
  // Default source restored: monotonic real time again.
  uint64_t a = obs::NowNanos();
  uint64_t b = obs::NowNanos();
  EXPECT_GE(b, a);
}

TEST(ClockTest, WallTimerUsesInstalledSource) {
  g_test_ticks = 0;
  obs::ScopedTickSourceForTest scoped(&TestTicks);
  WallTimer timer;                             // tick 1: start = 1000
  EXPECT_DOUBLE_EQ(timer.ElapsedSeconds(), 1e-6);  // tick 2: 2000 - 1000
  EXPECT_DOUBLE_EQ(timer.ElapsedMillis(), 2e-3);   // tick 3
}

TEST(TracerTest, DeterministicSpanTree) {
  g_test_ticks = 0;
  obs::ScopedTickSourceForTest scoped(&TestTicks);
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  obs::ScopedMetricsScope scope(&registry);
  {
    obs::Span root(&tracer, "run");  // opens at 1000
    {
      obs::Span child(&tracer, "phase", root.id());  // opens at 2000
      obs::Count(obs::Counter::kVf2Calls, 5);
      // A wall-clock-paced count: in the metrics, never in span args.
      obs::Count(obs::Counter::kDistHeartbeats);
      // child closes at 3000: dur 1000, delta vf2.calls=5
    }
    obs::Count(obs::Counter::kVf2Calls, 2);
    // root closes at 4000: dur 3000, delta vf2.calls=7
  }
  EXPECT_EQ(tracer.event_count(), 2u);
  std::string json = tracer.ToJson();
  // Child emitted first (closed first); exact timestamps in microseconds.
  const std::string child_args =
      "{\"span_id\":2,\"parent_id\":1,\"vf2.calls\":5";
  const std::string root_args =
      "{\"span_id\":1,\"parent_id\":0,\"vf2.calls\":7";
  EXPECT_NE(json.find("{\"name\":\"phase\",\"cat\":\"catapult\",\"ph\":\"X\","
                      "\"ts\":2,\"dur\":1,\"pid\":1,\"tid\":0,\"args\":" +
                      child_args + "}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\":\"run\",\"cat\":\"catapult\",\"ph\":\"X\","
                      "\"ts\":1,\"dur\":3,\"pid\":1,\"tid\":0,\"args\":" +
                      root_args + "}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_EQ(json.find("dist.heartbeats"), std::string::npos) << json;
  EXPECT_EQ(registry.Snapshot().counter(obs::Counter::kDistHeartbeats), 1u);
}

TEST(TracerTest, InertSpanDoesNothing) {
  obs::Span span(nullptr, "nothing");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  span.Close();  // must not crash
}

TEST(TracerTest, CloseIsIdempotent) {
  obs::Tracer tracer;
  obs::Span span(&tracer, "once");
  span.Close();
  span.Close();
  EXPECT_EQ(tracer.event_count(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: report schema and the no-effect-on-results contract

CatapultOptions FastOptions() {
  CatapultOptions options;
  options.selector.budget = {.eta_min = 3, .eta_max = 6, .gamma = 8};
  options.selector.walks_per_candidate = 10;
  options.clustering.max_cluster_size = 12;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 99;
  return options;
}

GraphDatabase SmallDb(uint64_t seed = 31, size_t n = 60) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = n;
  gen.min_vertices = 8;
  gen.max_vertices = 18;
  gen.seed = seed;
  return GenerateMoleculeDatabase(gen);
}

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
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The tentpole contract: attaching a registry and a tracer changes neither
// the patterns nor the checkpoint bytes, at 1 and at 4 threads.
TEST(ObsPipelineTest, ObservabilityDoesNotChangeResults) {
  GraphDatabase db = SmallDb();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    CatapultOptions plain_options = FastOptions();
    plain_options.threads = threads;
    plain_options.checkpoint_dir = ScratchDir(
        "plain" + std::to_string(threads));
    CatapultResult plain = RunCatapult(db, plain_options);
    ASSERT_FALSE(plain.selection.patterns.empty());
    EXPECT_FALSE(plain.execution.metrics.enabled);

    CatapultOptions observed_options = FastOptions();
    observed_options.threads = threads;
    observed_options.checkpoint_dir = ScratchDir(
        "observed" + std::to_string(threads));
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    RunContext ctx =
        RunContext::NoLimit().WithObservability(&registry, &tracer);
    CatapultResult observed = RunCatapult(db, observed_options, ctx);

    ExpectIdenticalResults(plain, observed);
    for (const char* file :
         {"clustering.ckpt", "csgs.ckpt", "selection.ckpt"}) {
      std::string a = plain_options.checkpoint_dir + "/" + file;
      std::string b = observed_options.checkpoint_dir + "/" + file;
      ASSERT_TRUE(std::filesystem::exists(a)) << a;
      ASSERT_TRUE(std::filesystem::exists(b)) << b;
      EXPECT_EQ(FileBytes(a), FileBytes(b)) << file << " differs";
    }
    // And the instrumentation did observe the run.
    obs::MetricsSnapshot snap = observed.execution.metrics;
    EXPECT_TRUE(snap.enabled);
    EXPECT_GT(snap.counter(obs::Counter::kVf2Calls), 0u);
    EXPECT_GT(snap.counter(obs::Counter::kWalkSteps), 0u);
    EXPECT_GT(snap.counter(obs::Counter::kCsgFolds), 0u);
    EXPECT_GT(snap.counter(obs::Counter::kCheckpointRecordsWritten), 0u);
    EXPECT_EQ(snap.gauge(obs::Gauge::kPoolThreads), threads);
    EXPECT_GT(tracer.event_count(), 0u);

    std::filesystem::remove_all(plain_options.checkpoint_dir);
    std::filesystem::remove_all(observed_options.checkpoint_dir);
  }
}

// Counter totals are thread-count independent: the work performed is
// deterministic, and the shard merge is commutative.
TEST(ObsPipelineTest, CounterTotalsAreThreadCountInvariant) {
  GraphDatabase db = SmallDb();
  obs::MetricsSnapshot snaps[2];
  size_t idx = 0;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    CatapultOptions options = FastOptions();
    options.threads = threads;
    obs::MetricsRegistry registry;
    RunContext ctx =
        RunContext::NoLimit().WithObservability(&registry, nullptr);
    snaps[idx++] = RunCatapult(db, options, ctx).execution.metrics;
  }
  EXPECT_EQ(snaps[0].counters, snaps[1].counters);
  for (size_t h = 0; h < obs::kNumHists; ++h) {
    SCOPED_TRACE(obs::HistName(static_cast<obs::Hist>(h)));
    EXPECT_EQ(snaps[0].hists[h].count, snaps[1].hists[h].count);
    EXPECT_EQ(snaps[0].hists[h].sum, snaps[1].hists[h].sum);
    EXPECT_EQ(snaps[0].hists[h].buckets, snaps[1].hists[h].buckets);
  }
}

// The per-iteration selection records explain the bound-first argmax: no
// candidate left unevaluated had a bound reaching the winning score, every
// candidate was either scored exactly or skipped, and the skips are the
// selector.bound_skipped counter.
TEST(ObsPipelineTest, SelectionIterationsExplainTheBound) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  obs::MetricsRegistry registry;
  RunContext ctx =
      RunContext::NoLimit().WithObservability(&registry, nullptr);
  CatapultResult result = RunCatapult(db, options, ctx);
  ASSERT_TRUE(result.selection.complete);
  const std::vector<SelectionIteration>& iterations =
      result.selection.iterations;
  EXPECT_EQ(iterations.size(), result.selection.patterns.size());
  size_t skipped = 0;
  for (size_t i = 0; i < iterations.size(); ++i) {
    const SelectionIteration& it = iterations[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(it.candidates, it.exact + it.skipped);
    EXPECT_LT(it.best_skipped_bound, it.winning_score);
    EXPECT_EQ(it.winning_score, result.selection.patterns[i].score);
    skipped += it.skipped;
  }
  EXPECT_GT(skipped, 0u) << "the corpus should let the bound skip rows";
  EXPECT_EQ(
      result.execution.metrics.counter(obs::Counter::kSelectorBoundSkipped),
      skipped);
}

// Minimal structural JSON validation: balanced containers outside strings,
// correct escaping inside them. Catches the classes of breakage a schema
// change could introduce without pulling in a parser.
void ExpectStructurallyValidJson(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else {
        ASSERT_GE(static_cast<unsigned char>(c), 0x20)
            << "raw control character inside string";
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '{');
        stack.pop_back();
        break;
      case ']':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '[');
        stack.pop_back();
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_TRUE(stack.empty());
}

// Sampling changes only the coarse stage's mining step, so a traced
// sampling run has the unsampled span tree: catapult.run over clustering
// (clustering.mining, clustering.coarse, clustering.fine), csg, selection.
TEST(ObsPipelineTest, SampledRunTracesEveryClusteringStage) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  options.use_sampling = true;
  obs::Tracer tracer;
  RunContext ctx = RunContext::NoLimit().WithObservability(nullptr, &tracer);
  ASSERT_TRUE(RunCatapult(db, options, ctx).ok());
  const std::string json = tracer.ToJson();
  for (const char* name :
       {"catapult.run", "clustering", "clustering.mining", "clustering.coarse",
        "clustering.fine", "csg", "selection"}) {
    EXPECT_NE(json.find(std::string("{\"name\":\"") + name + "\""),
              std::string::npos)
        << "missing span " << name;
  }
}

// Golden schema test: every documented key of the selection report is
// present, including the new metrics section with every counter name.
TEST(ObsPipelineTest, SelectionReportSchemaIncludesMetrics) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = FastOptions();
  obs::MetricsRegistry registry;
  RunContext ctx =
      RunContext::NoLimit().WithObservability(&registry, nullptr);
  CatapultResult result = RunCatapult(db, options, ctx);
  ASSERT_FALSE(result.selection.patterns.empty());
  std::string json = SelectionReportJson(result, db.labels());
  ExpectStructurallyValidJson(json);
  for (const char* key :
       {"\"database\"", "\"graphs\"", "\"clusters\"", "\"timings\"",
        "\"clustering_s\"", "\"csg_s\"", "\"selection_s\"", "\"metrics\"",
        "\"enabled\": true", "\"counters\"", "\"gauges\"", "\"histograms\"",
        "\"iterations\"", "\"candidates\"", "\"exact\"", "\"skipped\"",
        "\"winning_score\"", "\"best_skipped_bound\"",
        "\"patterns\"", "\"id\"", "\"score\"", "\"ccov\"", "\"lcov\"",
        "\"div\"", "\"cog\"", "\"vertices\"", "\"label\"", "\"edges\"",
        "\"u\"", "\"v\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Every metric name is present even when its value is zero.
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    std::string quoted =
        std::string("\"") + obs::CounterName(static_cast<obs::Counter>(i)) +
        "\"";
    EXPECT_NE(json.find(quoted), std::string::npos) << "missing " << quoted;
  }
}

TEST(ObsPipelineTest, ReportWithoutRegistryHasDisabledMetrics) {
  CatapultResult empty;
  LabelMap labels;
  std::string json = SelectionReportJson(empty, labels);
  ExpectStructurallyValidJson(json);
  EXPECT_NE(json.find("\"enabled\": false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (DESIGN.md §16)

TEST(PrometheusExportTest, NameMapping) {
  EXPECT_EQ(obs::PrometheusName("vf2.calls"), "catapult_vf2_calls");
  EXPECT_EQ(obs::PrometheusName("serve.queue_wait_millis"),
            "catapult_serve_queue_wait_millis");
}

TEST(PrometheusExportTest, RendersEveryMetricDeterministically) {
  obs::MetricsSnapshot snap;
  snap.counters[static_cast<size_t>(obs::Counter::kVf2Calls)] = 3;
  snap.gauges[static_cast<size_t>(obs::Gauge::kPoolThreads)] = 4;
  obs::HistData& h =
      snap.hists[static_cast<size_t>(obs::Hist::kPcpEdges)];
  h.Record(0);
  h.Record(1);
  h.Record(5);  // bucket 3 (values 4..7)
  const std::string text = obs::RenderPrometheusText(snap);
  EXPECT_NE(text.find("# TYPE catapult_vf2_calls counter\n"
                      "catapult_vf2_calls 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE catapult_pool_threads gauge\n"
                      "catapult_pool_threads 4\n"),
            std::string::npos);
  // Cumulative buckets: le edges 0, 1, 3, 7; +Inf always equals count.
  const std::string hist_name = obs::PrometheusName(
      obs::HistName(obs::Hist::kPcpEdges));
  EXPECT_NE(text.find("# TYPE " + hist_name + " histogram"),
            std::string::npos);
  EXPECT_NE(text.find(hist_name + "_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find(hist_name + "_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find(hist_name + "_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find(hist_name + "_bucket{le=\"7\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find(hist_name + "_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find(hist_name + "_sum 6\n"), std::string::npos);
  EXPECT_NE(text.find(hist_name + "_count 3\n"), std::string::npos);
  // Trailing all-zero buckets are trimmed: no le edge past 7.
  EXPECT_EQ(text.find(hist_name + "_bucket{le=\"15\"}"), std::string::npos);
  // Every metric appears, and equal snapshots render byte-identically.
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    const std::string name =
        obs::PrometheusName(obs::CounterName(static_cast<obs::Counter>(i)));
    EXPECT_NE(text.find("# TYPE " + name + " counter\n"), std::string::npos)
        << name;
  }
  EXPECT_EQ(text, obs::RenderPrometheusText(snap));
}

// ---------------------------------------------------------------------------
// Admin endpoint + request log

// One admin exchange over a raw AF_UNIX socket: send `request`, read to EOF.
std::string AdminExchange(const std::string& socket_path,
                          const std::string& request) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) return "";
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "";
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  (void)!::write(fd, request.data(), request.size());
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(AdminServerTest, ServesHandlerPathsAndBuiltinHealthz) {
  const std::string dir = ScratchDir("admin");
  const std::string path = dir + "/admin.sock";
  obs::AdminServer admin;
  std::string err = admin.Start("unix:" + path, [](const std::string& p) {
    obs::AdminResponse r;
    if (p == "/metrics") {
      r.body = "catapult_up 1\n";
      return r;
    }
    r.status = 404;
    r.body = "not found\n";
    return r;
  });
  ASSERT_EQ(err, "");
  ASSERT_TRUE(admin.started());

  // Bare-path form.
  std::string metrics = AdminExchange(path, "/metrics\n");
  EXPECT_NE(metrics.find("200"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("catapult_up 1\n"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("Content-Length:"), std::string::npos) << metrics;

  // HTTP request-line form (what curl sends).
  std::string curl = AdminExchange(
      path, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(curl.find("catapult_up 1\n"), std::string::npos) << curl;

  // /healthz is answered built-in, without consulting the handler.
  std::string health = AdminExchange(path, "/healthz\n");
  EXPECT_NE(health.find("ok\n"), std::string::npos) << health;

  // Unknown paths surface the handler's 404.
  std::string missing = AdminExchange(path, "/nope\n");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  EXPECT_GE(admin.requests_served(), 4u);
  admin.Stop();
  EXPECT_FALSE(admin.started());
  std::filesystem::remove_all(dir);
}

TEST(AdminServerTest, ScraperHangingUpBeforeTheReplyLeavesTheProcessUp) {
  const std::string dir = ScratchDir("admin_hangup");
  const std::string path = dir + "/admin.sock";
  std::atomic<bool> hung_up{false};
  obs::AdminServer admin;
  ASSERT_EQ(admin.Start("unix:" + path,
                        [&](const std::string&) {
                          // Reply only once the scraper is gone.
                          while (!hung_up.load()) ::usleep(1000);
                          obs::AdminResponse r;
                          r.body = "catapult_up 1\n";
                          return r;
                        }),
            "");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "/metrics\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::close(fd);
  hung_up.store(true);
  for (int i = 0; i < 2000 && admin.requests_served() == 0; ++i) {
    ::usleep(1000);
  }
  ASSERT_EQ(admin.requests_served(), 1u);
  // The reply went to a closed peer; the endpoint still answers.
  EXPECT_NE(AdminExchange(path, "/healthz\n").find("ok\n"),
            std::string::npos);
  admin.Stop();
  std::filesystem::remove_all(dir);
}

TEST(AdminServerTest, RejectsUnbindableAddress) {
  obs::AdminServer admin;
  EXPECT_NE(admin.Start("bogus:address", [](const std::string&) {
    return obs::AdminResponse{};
  }),
            "");
  EXPECT_FALSE(admin.started());
}

TEST(RequestLogTest, WritesOneJsonLinePerEvent) {
  const std::string dir = ScratchDir("reqlog");
  const std::string path = dir + "/requests.jsonl";
  obs::RequestLog log;
  ASSERT_EQ(log.Start(path), "");

  obs::RequestLogEvent ok;
  ok.request_id = 1;
  ok.budget_key = "3-8x12";
  ok.outcome = "ok";
  ok.queue_wait_ms = 1.5;
  ok.run_ms = 20.0;
  ok.panel_patterns = 12;
  ok.panel_bytes = 4096;
  ok.worker = 0;
  EXPECT_TRUE(log.Record(ok));

  obs::RequestLogEvent shed;
  shed.request_id = 2;
  shed.budget_key = "3-8x12";
  shed.outcome = "shed";
  shed.detail = "queue_full";
  shed.trace_id = 0xabcd;
  shed.parent_span_id = 7;
  EXPECT_TRUE(log.Record(shed));
  log.Stop();

  std::string contents = FileBytes(path);
  ASSERT_FALSE(contents.empty());
  EXPECT_NE(contents.find("\"request_id\":1"), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"budget\":\"3-8x12\""), std::string::npos);
  EXPECT_NE(contents.find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(contents.find("\"outcome\":\"shed\""), std::string::npos);
  EXPECT_NE(contents.find("\"detail\":\"queue_full\""), std::string::npos);
  EXPECT_NE(contents.find("\"trace_id\":43981"), std::string::npos);
  // Untraced events omit the trace keys entirely.
  const size_t first_line_end = contents.find('\n');
  ASSERT_NE(first_line_end, std::string::npos);
  EXPECT_EQ(contents.substr(0, first_line_end).find("trace_id"),
            std::string::npos);
  // One JSON object per line, structurally valid.
  size_t lines = 0;
  std::istringstream in(contents);
  for (std::string line; std::getline(in, line);) {
    ++lines;
    ExpectStructurallyValidJson(line);
  }
  EXPECT_EQ(lines, 2u);
  std::filesystem::remove_all(dir);
}

TEST(RequestLogTest, DropsWhenNotStarted) {
  obs::RequestLog log;
  obs::RequestLogEvent ev;
  EXPECT_FALSE(log.Record(ev));
  EXPECT_FALSE(log.started());
}

// ---------------------------------------------------------------------------
// Cross-process span shipping (DESIGN.md §16)

TEST(TracerTest, DrainSpansNormalizesTimestampsToBatchStart) {
  g_test_ticks = 1000000;  // a worker whose clock did not start at zero
  obs::ScopedTickSourceForTest scoped(&TestTicks);
  obs::Tracer tracer;
  {
    obs::Span root(&tracer, "cluster-0");
    obs::Span child(&tracer, "fold", root.id());
  }
  std::vector<obs::SpanRecord> spans = tracer.DrainSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(tracer.event_count(), 0u);  // drained
  uint64_t min_start = UINT64_MAX;
  for (const obs::SpanRecord& s : spans) {
    min_start = std::min(min_start, s.start_ns);
  }
  EXPECT_EQ(min_start, 0u);  // wall-clock independent
  // Parent links survive the trip: "fold" still points at "cluster-0".
  const obs::SpanRecord& fold = spans[0].name == "fold" ? spans[0] : spans[1];
  const obs::SpanRecord& cluster =
      spans[0].name == "fold" ? spans[1] : spans[0];
  EXPECT_EQ(fold.parent_id, cluster.span_id);
}

// The supervisor-side merge: imported batches land on their own process
// track, parent-linked under the supervisor span, deterministically.
TEST(TracerTest, ImportShardSpansIsDeterministicAndReparents) {
  // A worker batch produced under a deterministic clock.
  g_test_ticks = 0;
  std::vector<obs::SpanRecord> batch;
  {
    obs::ScopedTickSourceForTest scoped(&TestTicks);
    obs::Tracer worker;
    {
      obs::Span root(&worker, "cluster-0");
      obs::Span child(&worker, "fold", root.id());
    }
    batch = worker.DrainSpans();
  }
  ASSERT_EQ(batch.size(), 2u);

  auto merge = [&batch]() {
    g_test_ticks = 0;
    obs::ScopedTickSourceForTest scoped(&TestTicks);
    obs::Tracer super;
    super.SetTraceId(0x1234);
    super.SetProcessName(2, "catapult shard 0");
    obs::Span shard(&super, "dist.shard-0");
    const size_t merged =
        super.ImportShardSpans(batch, 2, shard.id(), "worker.shard-0", 0);
    EXPECT_EQ(merged, 2u);
    shard.Close();
    return super.ToJson();
  };
  const std::string a = merge();
  const std::string b = merge();
  EXPECT_EQ(a, b);  // byte-stable across reruns under fixed ticks
  EXPECT_NE(a.find("\"traceId\""), std::string::npos) << a;
  EXPECT_NE(a.find("process_name"), std::string::npos) << a;
  EXPECT_NE(a.find("catapult shard 0"), std::string::npos) << a;
  EXPECT_NE(a.find("\"worker.shard-0\""), std::string::npos) << a;
  EXPECT_NE(a.find("\"pid\":2"), std::string::npos) << a;
  // The supervisor's own span stays on the host process track.
  EXPECT_NE(a.find("\"pid\":1"), std::string::npos) << a;
}

}  // namespace
}  // namespace catapult
