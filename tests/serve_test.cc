// Chaos matrix for the resident pattern-selection service (DESIGN.md §13):
// bit-identity of served panels against one-shot RunCatapult, the result
// cache, per-request deadline degradation, and the network fault envelope —
// torn/corrupt frames, stalled and idle clients, mid-request disconnects,
// queue overflow, accept-loop failures, and graceful drain. Failpoints make
// every fault deterministic; the server must never crash, only shed or
// disconnect the offending client.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/dist/channel.h"
#include "src/dist/wire.h"
#include "src/persist/codec.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"
#include "tests/scratch_dir.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

namespace catapult {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

GraphDatabase MakeDb() {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 60;
  gen.min_vertices = 8;
  gen.max_vertices = 16;
  gen.seed = 31;
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

const GraphDatabase& TestDb() {
  static const GraphDatabase* db = new GraphDatabase(MakeDb());
  return *db;
}

// One corpus shared by every server in this suite: preparation is the
// expensive part, and Server::Start adopts a caller-owned corpus exactly so
// it is paid once per database.
const PreparedCorpus& TestCorpus() {
  static const PreparedCorpus* corpus = new PreparedCorpus(
      PrepareCorpus(TestDb(), FastOptions(), RunContext::NoLimit()));
  return *corpus;
}

std::vector<std::string> DbLabelNames(const GraphDatabase& db) {
  std::vector<std::string> names;
  names.reserve(db.labels().size());
  for (size_t l = 0; l < db.labels().size(); ++l) {
    names.push_back(db.labels().Name(static_cast<Label>(l)));
  }
  return names;
}

// The reference answer: the panel bytes a fault-free one-shot RunCatapult
// produces for FastOptions' budget. Every served complete panel must be
// byte-identical to this.
const std::string& ExpectedPanelBytes() {
  static const std::string* bytes = [] {
    const CatapultResult result = RunCatapult(TestDb(), FastOptions());
    serve::Panel panel;
    panel.degraded = result.execution.Degraded();
    panel.labels = DbLabelNames(TestDb());
    panel.patterns = result.selection.patterns;
    return new std::string(serve::EncodePanel(panel));
  }();
  return *bytes;
}

serve::ServeOptions BaseOptions(const std::string& name) {
  serve::ServeOptions options;
  options.socket_path = ScratchDir(name) + "/serve.sock";
  options.pipeline = FastOptions();
  options.worker_threads = 1;
  options.retry_after_ms = 5.0;
  options.drain_timeout_ms = 1000.0;
  return options;
}

serve::MineRequest FastRequest() {
  serve::MineRequest request;
  request.eta_min = 3;
  request.eta_max = 6;
  request.gamma = 6;
  return request;
}

uint64_t CounterOf(const serve::Server& server, obs::Counter c) {
  return server.Metrics().counters[static_cast<size_t>(c)];
}

// Event-loop counters are published once per poll tick, so they may trail
// the client-observable effect by a few milliseconds (see Server::Metrics).
// Polls until the counter reaches `at_least` and returns its final value.
uint64_t WaitCounterAtLeast(const serve::Server& server, obs::Counter c,
                            uint64_t at_least) {
  uint64_t value = CounterOf(server, c);
  for (int i = 0; i < 2500 && value < at_least; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    value = CounterOf(server, c);
  }
  return value;
}

std::string GraphBytes(const Graph& g) { return persist::Encode(g); }

using Kind = serve::ServeClient::MineOutcome::Kind;

// ---------------------------------------------------------------------------
// Protocol payloads (no server).

TEST_F(ServeTest, ProtocolRoundTrips) {
  serve::MineRequest req;
  req.eta_min = 4;
  req.eta_max = 9;
  req.gamma = 17;
  req.deadline_ms = 1234.5;
  req.bypass_cache = true;
  serve::MineRequest req2;
  ASSERT_TRUE(serve::Decode(serve::Encode(req), &req2));
  EXPECT_EQ(req2.eta_min, 4u);
  EXPECT_EQ(req2.eta_max, 9u);
  EXPECT_EQ(req2.gamma, 17u);
  EXPECT_EQ(req2.deadline_ms, 1234.5);
  EXPECT_TRUE(req2.bypass_cache);

  serve::ShedReply shed;
  shed.reason = serve::ShedReason::kMemoryPressure;
  shed.retry_after_ms = 250.0;
  shed.queue_depth = 7;
  serve::ShedReply shed2;
  ASSERT_TRUE(serve::Decode(serve::Encode(shed), &shed2));
  EXPECT_EQ(shed2.reason, serve::ShedReason::kMemoryPressure);
  EXPECT_EQ(shed2.queue_depth, 7u);

  serve::ErrorReply err{"bad budget"};
  serve::ErrorReply err2;
  ASSERT_TRUE(serve::Decode(serve::Encode(err), &err2));
  EXPECT_EQ(err2.message, "bad budget");

  serve::PongReply pong;
  pong.nonce = 99;
  pong.sessions = 3;
  pong.draining = true;
  serve::PongReply pong2;
  ASSERT_TRUE(serve::Decode(serve::Encode(pong), &pong2));
  EXPECT_EQ(pong2.nonce, 99u);
  EXPECT_TRUE(pong2.draining);
}

TEST_F(ServeTest, ProtocolRejectsMalformedPayloads) {
  // Truncation at every prefix must be rejected, never crash or accept.
  const std::string good = serve::Encode(FastRequest());
  for (size_t cut = 0; cut < good.size(); ++cut) {
    serve::MineRequest req;
    EXPECT_FALSE(serve::Decode(good.substr(0, cut), &req)) << "cut=" << cut;
  }
  // Trailing garbage is corruption too (AtEnd contract).
  serve::MineRequest req;
  EXPECT_FALSE(serve::Decode(good + "x", &req));

  // Out-of-range shed reasons are rejected.
  serve::ShedReply shed;
  std::string bytes = serve::Encode(shed);
  bytes[0] = 0x7f;
  serve::ShedReply shed2;
  EXPECT_FALSE(serve::Decode(bytes, &shed2));
}

TEST_F(ServeTest, PanelRoundTripsAndRejectsTruncation) {
  serve::Panel panel;
  panel.degraded = true;
  panel.labels = {"C", "N", "O"};
  SelectedPattern p;
  p.graph.AddVertex(0);
  p.graph.AddVertex(1);
  p.graph.AddEdge(0, 1, 2);
  p.score = 0.5;
  panel.patterns.push_back(p);
  const std::string bytes = serve::EncodePanel(panel);
  serve::Panel panel2;
  ASSERT_TRUE(serve::DecodePanel(bytes, &panel2));
  EXPECT_TRUE(panel2.degraded);
  ASSERT_EQ(panel2.labels.size(), 3u);
  EXPECT_EQ(panel2.labels[1], "N");
  ASSERT_EQ(panel2.patterns.size(), 1u);
  EXPECT_EQ(panel2.patterns[0].graph.NumEdges(), 1u);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    serve::Panel scratch;
    EXPECT_FALSE(serve::DecodePanel(bytes.substr(0, cut), &scratch));
  }
}

// ---------------------------------------------------------------------------
// Served panels: bit-identity against the one-shot pipeline.

TEST_F(ServeTest, ServedPanelBitIdenticalToOneShotRun) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("identity"), &TestCorpus()),
            "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");
  const auto outcome = client.Mine(FastRequest());
  ASSERT_EQ(outcome.kind, Kind::kPanel) << outcome.error;
  EXPECT_FALSE(outcome.reply.cache_hit);
  EXPECT_FALSE(outcome.panel.degraded);
  // The strongest possible claim: the served panel's encoded bytes equal
  // the bytes a fault-free one-shot RunCatapult produces.
  EXPECT_EQ(outcome.reply.panel, ExpectedPanelBytes());
  server.Stop();
}

TEST_F(ServeTest, CachedReplyBitIdenticalToRecomputed) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("cache"), &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");

  const auto first = client.Mine(FastRequest());
  ASSERT_EQ(first.kind, Kind::kPanel) << first.error;
  EXPECT_FALSE(first.reply.cache_hit);

  const auto cached = client.Mine(FastRequest());
  ASSERT_EQ(cached.kind, Kind::kPanel) << cached.error;
  EXPECT_TRUE(cached.reply.cache_hit);
  EXPECT_EQ(cached.reply.panel, first.reply.panel);

  // bypass_cache forces a recomputation; determinism makes it byte-equal.
  serve::MineRequest bypass = FastRequest();
  bypass.bypass_cache = true;
  const auto recomputed = client.Mine(bypass);
  ASSERT_EQ(recomputed.kind, Kind::kPanel) << recomputed.error;
  EXPECT_FALSE(recomputed.reply.cache_hit);
  EXPECT_EQ(recomputed.reply.panel, first.reply.panel);

  EXPECT_GE(WaitCounterAtLeast(server, obs::Counter::kServeCacheHits, 1), 1u);
  EXPECT_GE(WaitCounterAtLeast(server, obs::Counter::kServeCacheMisses, 1),
            1u);
  server.Stop();
}

TEST_F(ServeTest, DistinctBudgetsAreDistinctCacheEntries) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("budgets"), &TestCorpus()),
            "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");
  serve::MineRequest small = FastRequest();
  small.gamma = 4;
  const auto a = client.Mine(FastRequest());
  const auto b = client.Mine(small);
  ASSERT_EQ(a.kind, Kind::kPanel) << a.error;
  ASSERT_EQ(b.kind, Kind::kPanel) << b.error;
  EXPECT_FALSE(b.reply.cache_hit);
  EXPECT_EQ(a.panel.patterns.size(), 6u);
  EXPECT_EQ(b.panel.patterns.size(), 4u);
  // And the corpus answers any budget identically to a one-shot run with
  // that budget.
  CatapultOptions one_shot = FastOptions();
  one_shot.selector.budget.gamma = 4;
  const CatapultResult reference = RunCatapult(TestDb(), one_shot);
  ASSERT_EQ(reference.selection.patterns.size(), b.panel.patterns.size());
  serve::Panel reference_panel;
  reference_panel.degraded = reference.execution.Degraded();
  reference_panel.labels = DbLabelNames(TestDb());
  reference_panel.patterns = reference.selection.patterns;
  EXPECT_EQ(serve::EncodePanel(reference_panel), b.reply.panel);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Deadline degradation through the server path.

TEST_F(ServeTest, DeadlineExpiryDuringSelectionYieldsDegradedPanel) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("deadline"), &TestCorpus()),
            "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");

  // Force the selection loop to observe expiry on its first poll: the
  // degradation ladder must still deliver a full, size-conforming panel of
  // frequent-edge fallback patterns — degraded, valid, never an error.
  failpoint::Arm("selector.iteration");
  const auto degraded = client.Mine(FastRequest());
  failpoint::Disarm("selector.iteration");
  ASSERT_EQ(degraded.kind, Kind::kPanel) << degraded.error;
  EXPECT_TRUE(degraded.panel.degraded);
  EXPECT_FALSE(degraded.panel.patterns.empty());
  EXPECT_GE(CounterOf(server, obs::Counter::kServeDegraded), 1u);

  // Degraded panels must not poison the cache: the next request recomputes
  // and returns the fault-free bytes.
  const auto recovered = client.Mine(FastRequest());
  ASSERT_EQ(recovered.kind, Kind::kPanel) << recovered.error;
  EXPECT_FALSE(recovered.reply.cache_hit);
  EXPECT_FALSE(recovered.panel.degraded);
  EXPECT_EQ(recovered.reply.panel, ExpectedPanelBytes());
  server.Stop();
}

TEST_F(ServeTest, TinyRealDeadlineStillAnswers) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("tinydl"), &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");
  serve::MineRequest request = FastRequest();
  request.deadline_ms = 1.0;  // expires almost immediately
  const auto outcome = client.Mine(request);
  // Anytime semantics: whatever the clock did, the reply is a panel.
  ASSERT_EQ(outcome.kind, Kind::kPanel) << outcome.error;
  server.Stop();
}

// ---------------------------------------------------------------------------
// Poisoned streams: torn and corrupt frames.

TEST_F(ServeTest, TornFrameDisconnectsOnlyThatClient) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("torn"), &TestCorpus()), "");
  serve::ServeClient bad;
  ASSERT_EQ(bad.Connect(server.socket_path()), "");
  // A frame with valid length fields but a wrong magic: framing is
  // unrecoverable, the server must drop this client.
  std::string garbage =
      dist::EncodeFrame(dist::FrameType::kServeRequest,
                        serve::Encode(FastRequest()));
  garbage[0] = 'X';
  ASSERT_TRUE(bad.SendRawBytes(garbage));
  dist::Frame frame;
  EXPECT_NE(bad.ReadFrame(&frame, 5000.0), "");  // disconnected, no reply
  EXPECT_GE(
      WaitCounterAtLeast(server, obs::Counter::kServePoisonedStreams, 1), 1u);

  // The process survives and a healthy client still gets the exact panel.
  serve::ServeClient good;
  ASSERT_EQ(good.Connect(server.socket_path()), "");
  const auto outcome = good.Mine(FastRequest());
  ASSERT_EQ(outcome.kind, Kind::kPanel) << outcome.error;
  EXPECT_EQ(outcome.reply.panel, ExpectedPanelBytes());
  server.Stop();
}

TEST_F(ServeTest, CorruptChecksumPoisonsStream) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("crc"), &TestCorpus()), "");
  serve::ServeClient bad;
  ASSERT_EQ(bad.Connect(server.socket_path()), "");
  std::string frame_bytes =
      dist::EncodeFrame(dist::FrameType::kServeRequest,
                        serve::Encode(FastRequest()));
  frame_bytes.back() ^= 0x5a;  // flip payload bits; CRC now mismatches
  ASSERT_TRUE(bad.SendRawBytes(frame_bytes));
  dist::Frame frame;
  EXPECT_NE(bad.ReadFrame(&frame, 5000.0), "");
  EXPECT_GE(
      WaitCounterAtLeast(server, obs::Counter::kServePoisonedStreams, 1), 1u);
  server.Stop();
}

TEST_F(ServeTest, UnexpectedFrameTypePoisonsStream) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("unexpected"), &TestCorpus()),
            "");
  serve::ServeClient bad;
  ASSERT_EQ(bad.Connect(server.socket_path()), "");
  // A worker-pipe frame type has no business on a serve socket.
  dist::HeartbeatFrame heartbeat;
  ASSERT_TRUE(bad.SendRawBytes(
      dist::EncodeFrame(dist::FrameType::kHeartbeat, Encode(heartbeat))));
  dist::Frame frame;
  EXPECT_NE(bad.ReadFrame(&frame, 5000.0), "");
  EXPECT_GE(
      WaitCounterAtLeast(server, obs::Counter::kServePoisonedStreams, 1), 1u);
  server.Stop();
}

TEST_F(ServeTest, HalfFrameThenDisconnectIsNotCorruption) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("half"), &TestCorpus()), "");
  {
    serve::ServeClient flaky;
    ASSERT_EQ(flaky.Connect(server.socket_path()), "");
    const std::string frame_bytes =
        dist::EncodeFrame(dist::FrameType::kServeRequest,
                          serve::Encode(FastRequest()));
    ASSERT_TRUE(flaky.SendRawBytes(frame_bytes.substr(0, 7)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    flaky.Close();  // a dead peer, not a corrupt one
  }
  // Poison and disconnect are counted in the same tick the close happens,
  // so once the disconnect is visible a poison (had there been one) would
  // be too.
  EXPECT_GE(WaitCounterAtLeast(server, obs::Counter::kServeDisconnects, 1),
            1u);
  EXPECT_EQ(CounterOf(server, obs::Counter::kServePoisonedStreams), 0u);
  serve::ServeClient good;
  ASSERT_EQ(good.Connect(server.socket_path()), "");
  const auto outcome = good.Mine(FastRequest());
  ASSERT_EQ(outcome.kind, Kind::kPanel) << outcome.error;
  server.Stop();
}

// ---------------------------------------------------------------------------
// Admission control and load shedding.

TEST_F(ServeTest, OverloadShedsWithRetryAfter) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("overload"), &TestCorpus()),
            "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");

  failpoint::Arm("serve.overload");
  const auto shed = client.Mine(FastRequest());
  failpoint::Disarm("serve.overload");
  ASSERT_EQ(shed.kind, Kind::kShed) << shed.error;
  EXPECT_EQ(shed.shed.reason, serve::ShedReason::kQueueFull);
  EXPECT_EQ(shed.shed.retry_after_ms, 5.0);

  failpoint::Arm("serve.memory_pressure");
  const auto mem = client.Mine(FastRequest());
  failpoint::Disarm("serve.memory_pressure");
  ASSERT_EQ(mem.kind, Kind::kShed) << mem.error;
  EXPECT_EQ(mem.shed.reason, serve::ShedReason::kMemoryPressure);

  // The connection survived both sheds; MineWithRetry now succeeds.
  const auto outcome = client.MineWithRetry(FastRequest(), 3);
  ASSERT_EQ(outcome.kind, Kind::kPanel) << outcome.error;
  EXPECT_EQ(outcome.reply.panel, ExpectedPanelBytes());
  EXPECT_GE(WaitCounterAtLeast(server, obs::Counter::kServeShed, 2), 2u);
  server.Stop();
}

TEST_F(ServeTest, RealQueueOverflowSheds) {
  serve::ServeOptions options = BaseOptions("queue");
  options.max_queue_depth = 1;
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), options, &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");

  // Hold the single worker, then pipeline three requests: the first goes to
  // the worker, the second fills the queue, the third must be shed. Frames
  // are processed in order, so a pong proves the preceding request was
  // admitted; polling queue_depth alone races with admission itself.
  failpoint::Arm("serve.worker_hold");
  const std::string request_frame = dist::EncodeFrame(
      dist::FrameType::kServeRequest, serve::Encode(FastRequest()));
  serve::PongReply pong;
  ASSERT_TRUE(client.SendRawBytes(request_frame));
  ASSERT_EQ(client.Ping(&pong), "");  // request 1 admitted
  // Wait for the held worker to pick the first job up (queue drains to 0).
  for (int i = 0; i < 500 && server.queue_depth() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.queue_depth(), 0u);
  ASSERT_TRUE(client.SendRawBytes(request_frame));
  ASSERT_EQ(client.Ping(&pong), "");  // request 2 admitted (queue now full)
  ASSERT_EQ(server.queue_depth(), 1u);
  ASSERT_TRUE(client.SendRawBytes(request_frame));  // queue full -> shed

  // The shed reply arrives first (written at admission time)...
  dist::Frame frame;
  ASSERT_EQ(client.ReadFrame(&frame, 10000.0), "");
  ASSERT_EQ(frame.type, dist::FrameType::kServeShed);
  serve::ShedReply shed;
  ASSERT_TRUE(serve::Decode(frame.payload, &shed));
  EXPECT_EQ(shed.reason, serve::ShedReason::kQueueFull);

  // ...then the two held requests complete once the hold lifts.
  failpoint::Disarm("serve.worker_hold");
  for (int reply = 0; reply < 2; ++reply) {
    ASSERT_EQ(client.ReadFrame(&frame, 30000.0), "");
    ASSERT_EQ(frame.type, dist::FrameType::kServeResponse);
    serve::MineReply mine_reply;
    ASSERT_TRUE(serve::Decode(frame.payload, &mine_reply));
    EXPECT_EQ(mine_reply.panel, ExpectedPanelBytes());
  }
  EXPECT_GE(WaitCounterAtLeast(server, obs::Counter::kServeShed, 1), 1u);
  server.Stop();
}

TEST_F(ServeTest, SessionCapSheds) {
  serve::ServeOptions options = BaseOptions("sessions");
  options.max_sessions = 1;
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), options, &TestCorpus()), "");
  serve::ServeClient first;
  ASSERT_EQ(first.Connect(server.socket_path()), "");
  serve::PongReply pong;
  ASSERT_EQ(first.Ping(&pong), "");  // first session is fully registered

  serve::ServeClient second;
  ASSERT_EQ(second.Connect(server.socket_path()), "");
  // The server volunteers a shed reply and hangs up.
  dist::Frame frame;
  ASSERT_EQ(second.ReadFrame(&frame, 5000.0), "");
  ASSERT_EQ(frame.type, dist::FrameType::kServeShed);
  serve::ShedReply shed;
  ASSERT_TRUE(serve::Decode(frame.payload, &shed));
  EXPECT_EQ(shed.reason, serve::ShedReason::kSessionLimit);
  EXPECT_NE(second.ReadFrame(&frame, 5000.0), "");  // then disconnected

  // The first session is unaffected.
  ASSERT_EQ(first.Ping(&pong), "");
  server.Stop();
}

TEST_F(ServeTest, BadBudgetGetsErrorReplyConnectionSurvives) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("badopts"), &TestCorpus()),
            "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");

  serve::MineRequest bad = FastRequest();
  bad.eta_min = 2;  // violates Definition 3.1
  auto outcome = client.Mine(bad);
  ASSERT_EQ(outcome.kind, Kind::kError);
  EXPECT_NE(outcome.error.find("eta_min"), std::string::npos);

  bad = FastRequest();
  bad.gamma = 0;
  outcome = client.Mine(bad);
  ASSERT_EQ(outcome.kind, Kind::kError);

  bad = FastRequest();
  bad.protocol_version = 999;
  outcome = client.Mine(bad);
  ASSERT_EQ(outcome.kind, Kind::kError);
  EXPECT_NE(outcome.error.find("version"), std::string::npos);

  // Rejections are per-request, not per-connection.
  outcome = client.Mine(FastRequest());
  ASSERT_EQ(outcome.kind, Kind::kPanel) << outcome.error;
  server.Stop();
}

// eta_max sizes the selector's per-size tallies: one of 2^40 must get an
// error reply like any bad budget, and the server must keep serving.
TEST_F(ServeTest, OverBoundEtaMaxGetsErrorReplyServerSurvives) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("etamax"), &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");
  serve::MineRequest huge = FastRequest();
  huge.eta_max = uint64_t{1} << 40;
  huge.bypass_cache = true;
  auto outcome = client.Mine(huge);
  ASSERT_EQ(outcome.kind, Kind::kError);
  EXPECT_NE(outcome.error.find("selector.budget.eta_max"), std::string::npos)
      << outcome.error;

  serve::ServeClient next;
  ASSERT_EQ(next.Connect(server.socket_path()), "");
  outcome = next.Mine(FastRequest());
  ASSERT_EQ(outcome.kind, Kind::kPanel) << outcome.error;
  server.Stop();
}

// ---------------------------------------------------------------------------
// Observability: request ids, the structured request log, and the admin
// endpoint (DESIGN.md §16).

TEST_F(ServeTest, ShedAndErrorRepliesCarryDistinctRequestIds) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("reqids"), &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");

  failpoint::Arm("serve.overload");
  const auto shed_a = client.Mine(FastRequest());
  const auto shed_b = client.Mine(FastRequest());
  failpoint::Disarm("serve.overload");
  ASSERT_EQ(shed_a.kind, Kind::kShed) << shed_a.error;
  ASSERT_EQ(shed_b.kind, Kind::kShed) << shed_b.error;
  EXPECT_NE(shed_a.request_id, 0u);
  EXPECT_NE(shed_b.request_id, 0u);
  EXPECT_NE(shed_a.request_id, shed_b.request_id);
  EXPECT_EQ(shed_a.request_id, shed_a.shed.request_id);

  serve::MineRequest bad = FastRequest();
  bad.eta_min = 2;
  const auto err = client.Mine(bad);
  ASSERT_EQ(err.kind, Kind::kError);
  EXPECT_NE(err.request_id, 0u);
  EXPECT_NE(err.request_id, shed_a.request_id);
  EXPECT_NE(err.request_id, shed_b.request_id);

  // MineWithRetry surfaces each attempt's server-assigned id through the
  // retry log, so a client's stderr joins against the server's
  // --request-log lines.
  failpoint::Arm("serve.overload", 1);
  std::string retry_log;
  const auto outcome =
      client.MineWithRetry(FastRequest(), 3, 30000.0, &retry_log);
  ASSERT_EQ(outcome.kind, Kind::kPanel) << outcome.error;
  EXPECT_NE(retry_log.find("request_id="), std::string::npos);
  EXPECT_NE(retry_log.find("shed=queue_full"), std::string::npos);
  // Complete panels carry no id on the wire today; the outcome says so.
  EXPECT_EQ(outcome.request_id, 0u);
  server.Stop();
}

TEST_F(ServeTest, RequestLogRecordsOneLinePerOutcome) {
  serve::ServeOptions options = BaseOptions("reqlog");
  options.request_log_path = ScratchDir("log") + "/reqlog.jsonl";
  options.slow_request_ms = 0.0001;  // any computed panel counts as slow
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), options, &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");

  ASSERT_EQ(client.Mine(FastRequest()).kind, Kind::kPanel);  // -> ok
  ASSERT_EQ(client.Mine(FastRequest()).kind, Kind::kPanel);  // -> cache_hit
  // Cache hits are answered before admission control, so the shed probe
  // must bypass the cache to reach the overloaded queue.
  serve::MineRequest uncached = FastRequest();
  uncached.bypass_cache = true;
  failpoint::Arm("serve.overload", 1);
  ASSERT_EQ(client.Mine(uncached).kind, Kind::kShed);  // -> shed
  serve::MineRequest bad = FastRequest();
  bad.gamma = 0;
  ASSERT_EQ(client.Mine(bad).kind, Kind::kError);  // -> error
  server.Stop();                                   // flushes the async log

  std::ifstream in(options.request_log_path);
  ASSERT_TRUE(in.good()) << options.request_log_path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  // One client issuing requests back-to-back observes completion order, and
  // every event is enqueued before its reply is queued to the session.
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& l : lines) {
    EXPECT_EQ(l.front(), '{') << l;
    EXPECT_EQ(l.back(), '}') << l;
    EXPECT_NE(l.find("\"request_id\":"), std::string::npos) << l;
    EXPECT_NE(l.find("\"queue_wait_ms\":"), std::string::npos) << l;
    EXPECT_NE(l.find("\"worker\":"), std::string::npos) << l;
  }
  EXPECT_NE(lines[0].find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"budget\":\"3-6x6\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"slow\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"outcome\":\"cache_hit\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"outcome\":\"shed\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"detail\":\"queue_full\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"outcome\":\"error\""), std::string::npos);
  EXPECT_GE(CounterOf(server, obs::Counter::kServeSlowRequests), 1u);
}

// Raw line-oriented admin exchange: connect, send one request line, read to
// EOF. The endpoint speaks enough HTTP for curl, but a bare path works too.
std::string ServeAdminExchange(const std::string& socket_path,
                               const std::string& request) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  (void)!::write(fd, request.data(), request.size());
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) reply.append(buf, n);
  ::close(fd);
  return reply;
}

TEST_F(ServeTest, AdminEndpointScrapesMetricsAndStatuszMidFlight) {
  serve::ServeOptions options = BaseOptions("admin");
  const std::string admin_path = ScratchDir("scrape") + "/admin.sock";
  options.admin_listen = "unix:" + admin_path;
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), options, &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");
  ASSERT_EQ(client.Mine(FastRequest()).kind, Kind::kPanel);

  // Scrape while the serve socket stays responsive: /metrics is Prometheus
  // text over the merged snapshot, so serve counters appear with the
  // catapult_ prefix and dots mapped to underscores.
  const std::string metrics = ServeAdminExchange(admin_path, "/metrics\n");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE catapult_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("catapult_serve_responses "), std::string::npos);
  EXPECT_NE(metrics.find("catapult_serve_request_millis_bucket"),
            std::string::npos);

  const std::string statusz =
      ServeAdminExchange(admin_path, "GET /statusz HTTP/1.1\r\n\r\n");
  EXPECT_NE(statusz.find("application/json"), std::string::npos);
  EXPECT_NE(statusz.find("\"draining\":false"), std::string::npos);
  EXPECT_NE(statusz.find("\"fingerprint\":"), std::string::npos);
  EXPECT_NE(statusz.find("\"requests_assigned\":"), std::string::npos);

  const std::string healthz = ServeAdminExchange(admin_path, "/healthz\n");
  EXPECT_NE(healthz.find("ok"), std::string::npos);

  // The serve socket answered during and after the scrapes.
  serve::PongReply pong;
  ASSERT_EQ(client.Ping(&pong), "");
  server.Stop();
}

// ---------------------------------------------------------------------------
// Client misbehaviour: disconnects, stalls, idleness.

TEST_F(ServeTest, MidRequestDisconnectCancelsAndServerSurvives) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("disconnect"), &TestCorpus()),
            "");
  {
    serve::ServeClient vanishing;
    ASSERT_EQ(vanishing.Connect(server.socket_path()), "");
    failpoint::Arm("serve.worker_hold");
    ASSERT_TRUE(vanishing.SendRawBytes(dist::EncodeFrame(
        dist::FrameType::kServeRequest, serve::Encode(FastRequest()))));
    serve::PongReply pong;
    ASSERT_EQ(vanishing.Ping(&pong), "");  // request admitted
    // Wait until the worker holds the job, then vanish mid-request.
    for (int i = 0; i < 500 && server.queue_depth() != 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    vanishing.Close();
  }
  // Give the event loop a moment to observe the hangup and cancel the job;
  // the held worker exits its hold via the cancelled token.
  for (int i = 0; i < 500 && server.active_sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.active_sessions(), 0u);
  failpoint::Disarm("serve.worker_hold");

  serve::ServeClient good;
  ASSERT_EQ(good.Connect(server.socket_path()), "");
  const auto outcome = good.Mine(FastRequest());
  ASSERT_EQ(outcome.kind, Kind::kPanel) << outcome.error;
  EXPECT_EQ(outcome.reply.panel, ExpectedPanelBytes());
  EXPECT_GE(WaitCounterAtLeast(server, obs::Counter::kServeDisconnects, 1),
            1u);
  server.Stop();
}

TEST_F(ServeTest, StalledClientWriteTimesOut) {
  serve::ServeOptions options = BaseOptions("stall");
  options.write_timeout_ms = 50.0;
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), options, &TestCorpus()), "");
  serve::ServeClient warm;
  ASSERT_EQ(warm.Connect(server.socket_path()), "");
  ASSERT_EQ(warm.Mine(FastRequest()).kind, Kind::kPanel);  // prime the cache

  // With writes stalled, the cached reply sits in the session's out-buffer
  // making no progress; the write timeout must cut the client loose.
  failpoint::Arm("serve.write_stall");
  serve::ServeClient stalled;
  ASSERT_EQ(stalled.Connect(server.socket_path()), "");
  ASSERT_TRUE(stalled.SendRawBytes(dist::EncodeFrame(
      dist::FrameType::kServeRequest, serve::Encode(FastRequest()))));
  dist::Frame frame;
  EXPECT_NE(stalled.ReadFrame(&frame, 5000.0), "");  // disconnected
  failpoint::Disarm("serve.write_stall");
  EXPECT_GE(WaitCounterAtLeast(server, obs::Counter::kServeWriteTimeouts, 1),
            1u);
  server.Stop();
}

TEST_F(ServeTest, IdleSessionIsReaped) {
  serve::ServeOptions options = BaseOptions("idle");
  options.idle_timeout_ms = 50.0;
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), options, &TestCorpus()), "");
  serve::ServeClient idle;
  ASSERT_EQ(idle.Connect(server.socket_path()), "");
  serve::PongReply pong;
  ASSERT_EQ(idle.Ping(&pong), "");
  dist::Frame frame;
  EXPECT_NE(idle.ReadFrame(&frame, 5000.0), "");  // reaped after 50ms idle
  EXPECT_GE(WaitCounterAtLeast(server, obs::Counter::kServeIdleReaped, 1),
            1u);
  server.Stop();
}

TEST_F(ServeTest, AcceptFailureBacksOffThenRecovers) {
  serve::ServeOptions options = BaseOptions("emfile");
  options.accept_retry_ms = 20.0;
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), options, &TestCorpus()), "");
  // The next two accept sweeps report descriptor exhaustion; the listener
  // must back off (cooldown) instead of spinning, then recover.
  failpoint::Arm("serve.accept_fail", 2);
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");  // sits in the backlog
  serve::PongReply pong;
  ASSERT_EQ(client.Ping(&pong, 10000.0), "");  // accepted after the cooldown
  EXPECT_GE(
      WaitCounterAtLeast(server, obs::Counter::kServeAcceptFailures, 1), 1u);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Drain and shutdown.

TEST_F(ServeTest, DrainShedsNewRequestsAndStopRemovesSocket) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("drain"), &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");
  ASSERT_EQ(client.Mine(FastRequest()).kind, Kind::kPanel);

  server.BeginDrain();
  const auto shed = client.Mine(FastRequest());
  ASSERT_EQ(shed.kind, Kind::kShed) << shed.error;
  EXPECT_EQ(shed.shed.reason, serve::ShedReason::kDraining);

  // New connections are refused once draining (socket closed + unlinked).
  for (int i = 0; i < 500; ++i) {
    serve::ServeClient late;
    if (!late.Connect(server.socket_path()).empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  serve::ServeClient late;
  EXPECT_NE(late.Connect(server.socket_path()), "");

  server.Stop();
  EXPECT_NE(::access(server.socket_path().c_str(), F_OK), 0);
}

// ---------------------------------------------------------------------------
// The service on the fleet's transport (dist::Listener, Dial, WaitFrame).

TEST_F(ServeTest, StartReplacesStaleSocketFileAndStopRemovesIt) {
  const serve::ServeOptions options = BaseOptions("stale");
  // A crashed server leaves its socket file behind; a plain file stands in.
  std::ofstream(options.socket_path) << "stale";
  ASSERT_EQ(::access(options.socket_path.c_str(), F_OK), 0);
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), options, &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");
  serve::PongReply pong;
  ASSERT_EQ(client.Ping(&pong), "");
  server.Stop();
  EXPECT_NE(::access(options.socket_path.c_str(), F_OK), 0);
}

// The worker count is bounded like the pipeline's threads, and the bound is
// checked before Start binds the socket or spawns a thread.
TEST_F(ServeTest, StartRejectsMoreWorkersThanThePoolBound) {
  serve::ServeOptions options = BaseOptions("workers");
  options.worker_threads = ThreadPool::kMaxThreads + 1;
  serve::Server server;
  const std::string error = server.Start(TestDb(), options, &TestCorpus());
  EXPECT_EQ(error.rfind("options: worker_threads", 0), 0u) << error;
  EXPECT_FALSE(server.started());
  EXPECT_NE(::access(options.socket_path.c_str(), F_OK), 0);
}

TEST_F(ServeTest, ServiceAcceptsStayOffTheFleetAcceptCounter) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("accepts"), &TestCorpus()),
            "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");
  const auto outcome = client.Mine(FastRequest());
  ASSERT_EQ(outcome.kind, Kind::kPanel) << outcome.error;
  server.Stop();  // every event-loop delta is published by now
  EXPECT_EQ(CounterOf(server, obs::Counter::kServeAccepted), 1u);
  // dist.net.accepts counts fleet members joining a supervisor only.
  EXPECT_EQ(CounterOf(server, obs::Counter::kDistNetAccepts), 0u);
}

TEST_F(ServeTest, ClientReadsTheReplyAPeerSentBeforeClosing) {
  const std::string path = ScratchDir("peer") + "/peer.sock";
  dist::Address address;
  std::string error;
  ASSERT_TRUE(dist::ParseAddress("unix:" + path, &address, &error)) << error;
  dist::Listener listener;
  ASSERT_EQ(listener.Listen(address), "");
  // A peer that hangs up after replying ends the stream with EOF, or with a
  // reset when it leaves bytes of the client's unread (a doomed session's
  // shed reply, say). The reply arrives either way.
  for (const bool unread_request : {false, true}) {
    SCOPED_TRACE(unread_request ? "reset" : "end of stream");
    serve::ServeClient client;
    ASSERT_EQ(client.Connect(path), "");
    if (unread_request) {
      ASSERT_TRUE(client.SendRawBytes(dist::EncodeFrame(
          dist::FrameType::kServePing, serve::Encode(serve::PingRequest{}))));
    }
    pollfd pending{listener.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&pending, 1, 5000), 1);
    {
      // The peer replies and hangs up before the client starts reading, so
      // the reply and the end of the connection arrive in one drain.
      dist::Channel peer(listener.Accept());
      ASSERT_TRUE(peer.open());
      if (unread_request) {
        pollfd request{peer.fd(), POLLIN, 0};
        ASSERT_EQ(::poll(&request, 1, 5000), 1);
      }
      serve::PongReply pong;
      pong.nonce = 42;
      ASSERT_TRUE(peer.SendEncoded(dist::EncodeFrame(
          dist::FrameType::kServePong, serve::Encode(pong))));
    }
    dist::Frame frame;
    ASSERT_EQ(client.ReadFrame(&frame, 5000.0), "");
    ASSERT_EQ(frame.type, dist::FrameType::kServePong);
    serve::PongReply pong;
    ASSERT_TRUE(serve::Decode(frame.payload, &pong));
    EXPECT_EQ(pong.nonce, 42u);
    const std::string after = client.ReadFrame(&frame, 5000.0);
    if (unread_request) {
      EXPECT_NE(after, "");
    } else {
      EXPECT_EQ(after, "connection closed by server");
    }
  }
}

TEST_F(ServeTest, StopWithHeldWorkCancelsInsteadOfHanging) {
  serve::ServeOptions options = BaseOptions("stophold");
  options.drain_timeout_ms = 100.0;
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), options, &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");
  failpoint::Arm("serve.worker_hold");
  ASSERT_TRUE(client.SendRawBytes(dist::EncodeFrame(
      dist::FrameType::kServeRequest, serve::Encode(FastRequest()))));
  serve::PongReply pong;
  ASSERT_EQ(client.Ping(&pong), "");  // request admitted
  for (int i = 0; i < 500 && server.queue_depth() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Stop must not deadlock on the held job: after drain_timeout_ms it
  // cancels the work and joins everything.
  server.Stop();
  failpoint::Disarm("serve.worker_hold");
  SUCCEED();
}

TEST_F(ServeTest, PingReportsServerState) {
  serve::Server server;
  ASSERT_EQ(server.Start(TestDb(), BaseOptions("ping"), &TestCorpus()), "");
  serve::ServeClient client;
  ASSERT_EQ(client.Connect(server.socket_path()), "");
  serve::PongReply pong;
  ASSERT_EQ(client.Ping(&pong), "");
  EXPECT_EQ(pong.sessions, 1u);
  EXPECT_FALSE(pong.draining);
  server.BeginDrain();
  ASSERT_EQ(client.Ping(&pong), "");
  EXPECT_TRUE(pong.draining);
  server.Stop();
}

// ---------------------------------------------------------------------------
// PreparedCorpus (the core-layer contract the server builds on).

TEST_F(ServeTest, PreparedCorpusSelectionMatchesOneShotAcrossBudgets) {
  const PreparedCorpus& corpus = TestCorpus();
  ASSERT_TRUE(corpus.ok());
  EXPECT_TRUE(corpus.Complete());
  for (const size_t gamma : {3u, 6u}) {
    CatapultOptions options = FastOptions();
    options.selector.budget.gamma = gamma;
    const CatapultResult via_corpus =
        RunCatapultSelection(TestDb(), corpus, options, RunContext::NoLimit());
    const CatapultResult one_shot = RunCatapult(TestDb(), options);
    ASSERT_TRUE(via_corpus.ok());
    ASSERT_EQ(via_corpus.selection.patterns.size(),
              one_shot.selection.patterns.size());
    for (size_t i = 0; i < via_corpus.selection.patterns.size(); ++i) {
      const SelectedPattern& a = via_corpus.selection.patterns[i];
      const SelectedPattern& b = one_shot.selection.patterns[i];
      EXPECT_EQ(GraphBytes(a.graph), GraphBytes(b.graph));
      EXPECT_EQ(a.score, b.score);
      EXPECT_EQ(a.ccov, b.ccov);
      EXPECT_EQ(a.div, b.div);
    }
  }
}

TEST_F(ServeTest, PreparedCorpusRejectsBadOptions) {
  CatapultOptions bad = FastOptions();
  bad.selector.budget.eta_min = 1;
  const PreparedCorpus corpus =
      PrepareCorpus(TestDb(), bad, RunContext::NoLimit());
  EXPECT_FALSE(corpus.ok());
  const CatapultResult result =
      RunCatapultSelection(TestDb(), TestCorpus(), bad, RunContext::NoLimit());
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace catapult
