// Byte pins for every payload type: checkpoint records, the fleet's frames,
// the service's messages and the domain objects they carry. Each type's
// field list (src/persist/fields.h) both encodes and decodes it, so a round
// trip cannot see a layout change that moves both directions at once; these
// digests, recorded from the hand-written encoders the field lists
// replaced, can. Every field of every pinned value is set to a non-default
// value, so a dropped, reordered or re-typed field changes a digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/selector.h"
#include "src/csg/csg.h"
#include "src/dist/wire.h"
#include "src/dist/worker.h"
#include "src/graph/graph.h"
#include "src/mining/subtree_miner.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/persist/checkpoint.h"
#include "src/persist/codec.h"
#include "src/serve/protocol.h"
#include "src/util/bitset.h"
#include "src/util/rng.h"

namespace catapult {
namespace {

using Clusters = std::vector<std::vector<GraphId>>;

Graph PinGraph() {
  Graph g;
  g.AddVertex(7);
  g.AddVertex(9);
  g.AddVertex(11);
  g.AddEdge(0, 1, 5);
  g.AddEdge(1, 2, 6);
  return g;
}

// A summary of `members` graphs over labels {4, 8, 4}.
ClusterSummaryGraph PinCsg(size_t members) {
  ClusterSummaryGraph csg(members);
  csg.AddVertex(4);
  csg.AddVertex(8);
  csg.AddVertex(4);
  for (size_t m = 0; m < members; ++m) {
    csg.MarkVertex(0, m);
    csg.MarkVertex(1, m);
    csg.MarkEdge(0, 1, m);
  }
  csg.MarkVertex(2, members - 1);
  csg.MarkEdge(1, 2, members - 1);
  return csg;
}

RngState PinRng() { return RngState{{0x0123456789abcdefull, 2, 3, 4}}; }

Clusters PinClusters() { return {{0, 2, 5}, {1, 3}, {4}}; }

FrequentSubtree PinFeature() {
  FrequentSubtree f;
  f.tree = PinGraph();
  f.canonical = "7(9(11))";
  f.support = DynamicBitset(6);
  f.support.Set(1);
  f.support.Set(4);
  f.frequency = 1.0 / 3.0;
  return f;
}

SelectedPattern PinPattern() {
  SelectedPattern p;
  p.graph = PinGraph();
  p.score = 1.5;
  p.ccov = 0.25;
  p.lcov = 0.125;
  p.div = 3.0;
  p.cog = 2.75;
  p.source_csg = 4;
  p.fallback = true;
  return p;
}

ClusteringArtifact PinClustering() {
  return ClusteringArtifact{PinClusters(), {PinFeature()}, PinRng()};
}

CsgArtifact PinCsgs() { return CsgArtifact{{PinCsg(3), PinCsg(2)}, PinRng()}; }

SelectorCheckpointState PinSelection() {
  SelectorCheckpointState s;
  s.patterns = {PinPattern()};
  s.selected_per_size = {0, 1, 0};
  s.cluster_weights = {0.5, 1.25};
  s.edge_label_weights = {{MakeEdgeLabelKey(7, 9), 0.75}};
  s.rng = PinRng();
  return s;
}

// Coarse cluster 2, {0, 2, 5}, split into {0, 5} and {2}.
const std::vector<GraphId> kShardCluster = {0, 2, 5};
dist::ShardClusterResult PinShardResult() {
  dist::ShardClusterResult r;
  r.fine_clusters = {{0, 5}, {2}};
  r.csgs = {PinCsg(2), PinCsg(1)};
  return r;
}

obs::SpanRecord PinSpan() {
  obs::SpanRecord s;
  s.name = "cluster-2";
  s.start_ns = 100;
  s.dur_ns = 250;
  s.span_id = 3;
  s.parent_id = 1;
  s.tid = 2;
  s.counter_deltas = {{obs::Counter::kVf2Calls, 17},
                      {obs::Counter::kCsgFolds, 4}};
  return s;
}

dist::ShardDoneFrame PinShardDone() {
  dist::ShardDoneFrame f;
  f.shard = 3;
  f.counters = {5, 0, 7};
  f.trace_id = 0x55;
  f.spans = {PinSpan()};
  return f;
}

// The protocol stays this build's: another version decodes to it alone.
dist::JoinRequestFrame PinJoinRequest() {
  dist::JoinRequestFrame f;
  f.fingerprint = 0xabcdef0102030405ull;
  f.worker_name = "rack1/w2";
  f.prev_worker_id = 6;
  f.prev_generation = 2;
  return f;
}

dist::ClusterWork PinClusterWork() {
  dist::ClusterWork w;
  w.index = 2;
  w.members = {0, 2, 5};
  w.stream = RngState{{1, 2, 3, 4}};
  return w;
}

dist::ShardAssignFrame PinShardAssign() {
  dist::ShardAssignFrame f;
  f.shard = 1;
  f.attempt = 2;
  f.generation = 3;
  f.fine_enabled = false;
  f.fine_max_cluster_size = 10;
  f.mcs_connected = false;
  f.mcs_match_edge_labels = true;
  f.mcs_node_budget = 3000;
  f.deadline_remaining_ms = 1234.5;
  f.mem_soft_limit_bytes = 1 << 20;
  f.mem_hard_limit_bytes = 2 << 20;
  f.clusters = {PinClusterWork()};
  f.trace_id = 0x77;
  f.threads = 4;
  return f;
}

dist::ClusterResultFrame PinClusterResult() {
  return dist::ClusterResultFrame{1, 3, 2, std::string("\x01\x00shard", 7)};
}

serve::MineRequest PinRequest() {
  serve::MineRequest m;
  m.protocol_version = 3;
  m.eta_min = 2;
  m.eta_max = 6;
  m.gamma = 9;
  m.deadline_ms = 250.5;
  m.bypass_cache = true;
  m.trace_id = 0x99;
  m.parent_span_id = 0x42;
  return m;
}

serve::Panel PinPanel() {
  serve::Panel p;
  p.degraded = true;
  p.labels = {"C", "N", "O"};
  p.patterns = {PinPattern(), PinPattern()};
  p.patterns[1].fallback = false;
  return p;
}

serve::ShedReply PinShed() {
  return serve::ShedReply{serve::ShedReason::kDraining, 40.0, 12, 77};
}

// Every pinned type's encoding of its pinned value, by name.
std::vector<std::pair<std::string, std::string>> EncodeAll() {
  const dist::ShardClusterResult shard = PinShardResult();
  return {
      {"graph", persist::Encode(PinGraph())},
      {"csg", persist::Encode(PinCsg(3))},
      {"rng", persist::Encode(PinRng())},
      {"clusters", persist::Encode(PinClusters())},
      {"feature", persist::Encode(PinFeature())},
      {"pattern", persist::Encode(PinPattern())},
      {"clustering", persist::Encode(PinClustering())},
      {"csgs", persist::Encode(PinCsgs())},
      {"selection", persist::Encode(PinSelection())},
      {"shard", dist::EncodeShardResultPayload(2, kShardCluster, shard)},
      {"heartbeat", persist::Encode(dist::HeartbeatFrame{})},
      {"shard_done", persist::Encode(PinShardDone())},
      {"span", persist::Encode(PinSpan())},
      {"shard_error",
       persist::Encode(dist::ShardErrorFrame{"fine clustering failed"})},
      {"join_request", persist::Encode(PinJoinRequest())},
      {"join_accept",
       persist::Encode(dist::JoinAcceptFrame{7, 3, 125.0, 500.0})},
      {"join_reject",
       persist::Encode(dist::JoinRejectFrame{2, "fingerprint mismatch"})},
      {"cluster_work", persist::Encode(PinClusterWork())},
      {"shard_assign", persist::Encode(PinShardAssign())},
      {"cluster_result", persist::Encode(PinClusterResult())},
      {"shutdown",
       persist::Encode(dist::ShutdownFrame{2, "stale generation"})},
      {"request", persist::Encode(PinRequest())},
      {"reply", persist::Encode(serve::MineReply{
                    true, serve::EncodePanel(PinPanel())})},
      {"shed", persist::Encode(PinShed())},
      {"error",
       persist::Encode(serve::ErrorReply{"gamma must be positive", 78})},
      {"ping", persist::Encode(serve::PingRequest{0x1234})},
      {"pong", persist::Encode(serve::PongReply{0x1234, 3, 5, true})},
      {"panel", serve::EncodePanel(PinPanel())},
  };
}

// FNV-1a 64 of `bytes`.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(CodecPinTest, EveryPayloadTypeEncodesToItsPinnedBytes) {
  // Recorded from the hand-written encoders the field lists replaced.
  const std::map<std::string, uint64_t> kPinned = {
      {"graph", 0x9f518be2fb287e86ull},
      {"csg", 0xcfd8112751e12378ull},
      {"rng", 0xab7314ba01e32786ull},
      {"clusters", 0x4d463b87f34b2581ull},
      {"feature", 0x8fc3fc94edd2f63full},
      {"pattern", 0xe34886deaa287c9cull},
      {"clustering", 0x095357b24ab19f8dull},
      {"csgs", 0x3191da35df44e427ull},
      {"selection", 0x40ab35d8f0d1615cull},
      {"shard", 0xd5c05ca35098fc32ull},
      {"heartbeat", 0x14650fb0739d0383ull},
      {"shard_done", 0x449d5ad70f51f09bull},
      {"span", 0x3f403cfa888d2f61ull},
      {"shard_error", 0xaee243c57d874f0eull},
      {"join_request", 0x143c8f261b214805ull},
      {"join_accept", 0xf27fccafc3075d27ull},
      {"join_reject", 0xd6d2a5d34467f835ull},
      {"cluster_work", 0xcad96d01c5f659d1ull},
      {"shard_assign", 0xbb8503e83490bac0ull},
      {"cluster_result", 0x51af6e61b1462b93ull},
      {"shutdown", 0xc689a63a6dbab020ull},
      {"request", 0x1362f2593e51330aull},
      {"reply", 0xbbf55e12f222cf8cull},
      {"shed", 0x87db7bba55dc6305ull},
      {"error", 0xeec34593ee22cd99ull},
      {"ping", 0xc86bb9c46e93d89dull},
      {"pong", 0x8555c0a98b9abf0eull},
      {"panel", 0x6356d9250a21b233ull},
  };
  const std::vector<std::pair<std::string, std::string>> encodings =
      EncodeAll();
  EXPECT_EQ(encodings.size(), 28u);
  for (const auto& [name, bytes] : encodings) {
    auto it = kPinned.find(name);
    ASSERT_NE(it, kPinned.end()) << name;
    EXPECT_EQ(Fnv1a(bytes), it->second)
        << name << ": 0x" << std::hex << Fnv1a(bytes);
  }
}

// Decodes `value`'s encoding and encodes the result again: every field is
// non-default, so equal bytes mean every field decoded to its value.
template <class T>
void ExpectDecodesBack(const T& value, const char* name) {
  const std::string bytes = persist::Encode(value);
  T decoded{};
  ASSERT_TRUE(persist::Decode(bytes, &decoded)) << name;
  EXPECT_EQ(persist::Encode(decoded), bytes) << name;
}

TEST(CodecPinTest, EveryPinnedEncodingDecodesBackToItsValue) {
  ExpectDecodesBack(PinGraph(), "graph");
  ExpectDecodesBack(PinCsg(3), "csg");
  ExpectDecodesBack(PinRng(), "rng");
  ExpectDecodesBack(PinClusters(), "clusters");
  ExpectDecodesBack(PinFeature(), "feature");
  ExpectDecodesBack(PinPattern(), "pattern");
  ExpectDecodesBack(PinClustering(), "clustering");
  ExpectDecodesBack(PinCsgs(), "csgs");
  ExpectDecodesBack(PinSelection(), "selection");
  ExpectDecodesBack(dist::HeartbeatFrame{}, "heartbeat");
  ExpectDecodesBack(PinShardDone(), "shard_done");
  ExpectDecodesBack(PinSpan(), "span");
  ExpectDecodesBack(dist::ShardErrorFrame{"fine clustering failed"},
                    "shard_error");
  ExpectDecodesBack(PinJoinRequest(), "join_request");
  ExpectDecodesBack(dist::JoinAcceptFrame{7, 3, 125.0, 500.0}, "join_accept");
  ExpectDecodesBack(dist::JoinRejectFrame{2, "fingerprint mismatch"},
                    "join_reject");
  ExpectDecodesBack(PinClusterWork(), "cluster_work");
  ExpectDecodesBack(PinShardAssign(), "shard_assign");
  ExpectDecodesBack(PinClusterResult(), "cluster_result");
  ExpectDecodesBack(dist::ShutdownFrame{2, "stale generation"}, "shutdown");
  ExpectDecodesBack(PinRequest(), "request");
  ExpectDecodesBack(serve::MineReply{true, serve::EncodePanel(PinPanel())},
                    "reply");
  ExpectDecodesBack(PinShed(), "shed");
  ExpectDecodesBack(serve::ErrorReply{"gamma must be positive", 78}, "error");
  ExpectDecodesBack(serve::PingRequest{0x1234}, "ping");
  ExpectDecodesBack(serve::PongReply{0x1234, 3, 5, true}, "pong");
  ExpectDecodesBack(PinPanel(), "panel");

  // The shard payload is decoded against the cluster it is bound to.
  const std::string shard =
      dist::EncodeShardResultPayload(2, kShardCluster, PinShardResult());
  dist::ShardClusterResult decoded;
  ASSERT_EQ(dist::DecodeShardResultPayload(shard, 2, kShardCluster, &decoded),
            "");
  EXPECT_EQ(dist::EncodeShardResultPayload(2, kShardCluster, decoded), shard);
}

}  // namespace
}  // namespace catapult
