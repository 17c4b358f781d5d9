// Chaos suite for sharded multi-process execution over a local fleet
// (DESIGN.md §12): the backoff policy, the shard planner, the frame layer,
// per-cluster shard artifacts, and — the acceptance bar — that a run whose
// members are forked over socketpairs survives every injected fault
// (members SIGKILLed or hanging up mid-shard, heartbeat hangs, artifact
// corruption on the supervisor's side, a failure budget driving quarantine
// and in-process fallback) while producing a selection bit-identical to
// the in-process run, down to the checkpoint bytes the two modes leave
// behind, and reaping every member it forked.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/catapult.h"
#include "src/core/report.h"
#include "src/data/molecule_generator.h"
#include "src/dist/net_worker.h"
#include "src/dist/shard_plan.h"
#include "src/dist/wire.h"
#include "src/dist/worker.h"
#include "src/persist/checkpoint.h"
#include "src/persist/codec.h"
#include "src/persist/record_io.h"
#include "src/util/backoff.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"
#include "tests/scratch_dir.h"

#include <sys/wait.h>

namespace catapult {
namespace {

using dist::PlanShards;
using dist::ShardPlan;
using persist::RecordType;

class DistTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

GraphDatabase SmallDb(uint64_t seed = 31, size_t n = 36) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = n;
  gen.min_vertices = 8;
  gen.max_vertices = 14;
  gen.seed = seed;
  return GenerateMoleculeDatabase(gen);
}

CatapultOptions FastOptions() {
  CatapultOptions options;
  options.selector.budget.eta_min = 3;
  options.selector.budget.eta_max = 6;
  options.selector.budget.gamma = 6;
  options.selector.walks_per_candidate = 8;
  options.clustering.max_cluster_size = 10;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 99;
  return options;
}

// Sharded variant of the same configuration. Retries are quick so the
// chaos tests exercise real backoff without slowing the suite down.
CatapultOptions DistOptionsOf(const CatapultOptions& base,
                              size_t processes) {
  CatapultOptions options = base;
  options.processes = processes;
  options.shard_backoff_base_ms = 5.0;
  options.shard_backoff_cap_ms = 40.0;
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

std::string EncodeCsgBytes(const ClusterSummaryGraph& csg) {
  return persist::Encode(csg);
}

// The acceptance bar: selection, clusters, and CSGs of a sharded run must
// match the in-process run bit-for-bit, scores included.
void ExpectSameResult(const CatapultResult& expected,
                      const CatapultResult& actual) {
  ASSERT_EQ(expected.clusters, actual.clusters);
  ASSERT_EQ(expected.csgs.size(), actual.csgs.size());
  for (size_t i = 0; i < expected.csgs.size(); ++i) {
    EXPECT_EQ(EncodeCsgBytes(expected.csgs[i]), EncodeCsgBytes(actual.csgs[i]))
        << "csg " << i;
  }
  ASSERT_EQ(expected.selection.patterns.size(),
            actual.selection.patterns.size());
  for (size_t i = 0; i < expected.selection.patterns.size(); ++i) {
    const SelectedPattern& a = expected.selection.patterns[i];
    const SelectedPattern& b = actual.selection.patterns[i];
    EXPECT_EQ(a.graph.DebugString(), b.graph.DebugString()) << "pattern " << i;
    EXPECT_EQ(a.score, b.score) << "pattern " << i;
    EXPECT_EQ(a.ccov, b.ccov) << "pattern " << i;
    EXPECT_EQ(a.lcov, b.lcov) << "pattern " << i;
    EXPECT_EQ(a.div, b.div) << "pattern " << i;
    EXPECT_EQ(a.cog, b.cog) << "pattern " << i;
  }
}

// The durable artifacts are the strongest identity witness: both modes
// must leave byte-identical phase checkpoints behind.
void ExpectSameCheckpoints(const std::string& expected_dir,
                           const std::string& actual_dir) {
  for (RecordType type :
       {RecordType::kClustering, RecordType::kCsgs, RecordType::kSelection}) {
    std::string expected_bytes = ReadFileBytes(
        expected_dir + "/" + CheckpointStore::FileNameFor(type));
    std::string actual_bytes =
        ReadFileBytes(actual_dir + "/" + CheckpointStore::FileNameFor(type));
    ASSERT_FALSE(expected_bytes.empty());
    EXPECT_EQ(expected_bytes, actual_bytes)
        << "checkpoint " << CheckpointStore::FileNameFor(type);
  }
}

// Every member a sharded run forked has been reaped by the time it
// returns: the test process has no child left, zombie or running.
void ExpectNoChildLeft() {
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

bool HasEvent(const std::vector<dist::ShardEvent>& events,
              dist::ShardEvent::Kind kind) {
  for (const dist::ShardEvent& e : events) {
    if (e.kind == kind) return true;
  }
  return false;
}

// The cluster count of the assignment of `shard` at `attempt`, parsed from
// its kShardAssigned event, or -1 when there was none.
long AssignedClusters(const std::vector<dist::ShardEvent>& events,
                      size_t shard, size_t attempt) {
  const std::string tag = " attempt=" + std::to_string(attempt);
  for (const dist::ShardEvent& e : events) {
    if (e.kind != dist::ShardEvent::Kind::kShardAssigned || e.shard != shard ||
        e.detail.size() < tag.size() ||
        e.detail.compare(e.detail.size() - tag.size(), tag.size(), tag) != 0) {
      continue;
    }
    size_t at = e.detail.find("clusters=");
    if (at != std::string::npos) return std::atol(e.detail.c_str() + at + 9);
  }
  return -1;
}

// --- backoff policy ---------------------------------------------------------

TEST(BackoffTest, DeterministicDoublingUpToCap) {
  ExponentialBackoff backoff(25.0, 1000.0);
  EXPECT_EQ(backoff.DelayMs(0), 0.0);  // no failure yet, no wait
  EXPECT_EQ(backoff.DelayMs(1), 25.0);
  EXPECT_EQ(backoff.DelayMs(2), 50.0);
  EXPECT_EQ(backoff.DelayMs(3), 100.0);
  EXPECT_EQ(backoff.DelayMs(6), 800.0);
  EXPECT_EQ(backoff.DelayMs(7), 1000.0);  // capped
  EXPECT_EQ(backoff.DelayMs(40), 1000.0);  // stays capped, no overflow
  // Pure function of the attempt number: replays identically.
  EXPECT_EQ(backoff.DelayMs(3), ExponentialBackoff(25.0, 1000.0).DelayMs(3));
}

TEST(BackoffTest, DegenerateInputsClampSafely) {
  EXPECT_EQ(ExponentialBackoff(0.0, 0.0).DelayMs(5), 0.0);
  EXPECT_EQ(ExponentialBackoff(-10.0, 100.0).DelayMs(3), 0.0);
  EXPECT_EQ(ExponentialBackoff(50.0, 10.0).DelayMs(1), 10.0);  // cap < base
}

// --- shard planner ----------------------------------------------------------

TEST(ShardPlanTest, EveryClusterInExactlyOneShard) {
  std::vector<size_t> sizes = {7, 1, 5, 5, 2, 9, 1, 3};
  ShardPlan plan = PlanShards(sizes, 3);
  EXPECT_EQ(plan.shards.size(), 3u);
  std::vector<int> seen(sizes.size(), 0);
  size_t total = 0;
  for (const auto& shard : plan.shards) {
    total += shard.size();
    EXPECT_FALSE(shard.empty());
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    for (size_t idx : shard) {
      ASSERT_LT(idx, sizes.size());
      ++seen[idx];
    }
  }
  EXPECT_EQ(total, sizes.size());
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << i;
}

TEST(ShardPlanTest, BalancesLoadDeterministically) {
  std::vector<size_t> sizes = {10, 10, 10, 1, 1, 1};
  ShardPlan plan = PlanShards(sizes, 3);
  ASSERT_EQ(plan.shards.size(), 3u);
  // LPT: each shard gets one size-10 cluster plus one size-1 cluster.
  for (const auto& shard : plan.shards) {
    size_t load = 0;
    for (size_t idx : shard) load += sizes[idx];
    EXPECT_EQ(load, 11u);
  }
  // Same input, same plan.
  EXPECT_EQ(plan.shards, PlanShards(sizes, 3).shards);
}

TEST(ShardPlanTest, FewerClustersThanShardsYieldsSingletons) {
  ShardPlan plan = PlanShards({4, 2}, 8);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0].size() + plan.shards[1].size(), 2u);
  EXPECT_TRUE(PlanShards({}, 4).shards.empty());
}

// --- wire protocol ----------------------------------------------------------

TEST(WireTest, AllFrameTypesRoundTrip) {
  dist::FrameReader reader;
  std::string stream;
  stream += dist::EncodeFrame(dist::FrameType::kHeartbeat,
                              dist::Encode(dist::HeartbeatFrame{}));
  dist::ShardDoneFrame done;
  done.shard = 3;
  done.counters.assign(obs::kNumCounters, 0);
  done.counters[2] = 77;
  stream += dist::EncodeFrame(dist::FrameType::kShardDone, dist::Encode(done));
  stream += dist::EncodeFrame(
      dist::FrameType::kShardError,
      dist::Encode(dist::ShardErrorFrame{"deadline expired"}));

  reader.Feed(stream.data(), stream.size());

  // A heartbeat is liveness only: its payload is empty, and a non-empty
  // one does not decode (the supervisor poisons the stream).
  auto hb = reader.Next();
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->type, dist::FrameType::kHeartbeat);
  EXPECT_TRUE(hb->payload.empty());
  dist::HeartbeatFrame hbf;
  ASSERT_TRUE(dist::Decode(hb->payload, &hbf));
  EXPECT_FALSE(dist::Decode(std::string(1, '\0'), &hbf));

  auto sd = reader.Next();
  ASSERT_TRUE(sd.has_value());
  dist::ShardDoneFrame sdf;
  ASSERT_TRUE(dist::Decode(sd->payload, &sdf));
  EXPECT_EQ(sdf.shard, 3u);
  ASSERT_EQ(sdf.counters.size(), obs::kNumCounters);
  EXPECT_EQ(sdf.counters[2], 77u);

  auto se = reader.Next();
  ASSERT_TRUE(se.has_value());
  dist::ShardErrorFrame sef;
  ASSERT_TRUE(dist::Decode(se->payload, &sef));
  EXPECT_EQ(sef.message, "deadline expired");

  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(reader.corrupt());
}

// Types 1 and 3 (the retired fork-and-pipe hello and cluster-done frames)
// stay reserved: a peer still sending them is a poisoned stream.
TEST(WireTest, RetiredFrameTypesPoisonTheStream) {
  for (uint32_t retired : {1u, 3u}) {
    std::string frame = dist::EncodeFrame(dist::FrameType::kHeartbeat,
                                          dist::Encode(dist::HeartbeatFrame{}));
    frame[4] = static_cast<char>(retired);  // little-endian type field
    dist::FrameReader reader;
    reader.Feed(frame.data(), frame.size());
    EXPECT_FALSE(reader.Next().has_value()) << retired;
    EXPECT_TRUE(reader.corrupt()) << retired;
  }
}

TEST(WireTest, ByteAtATimeFeedingReassemblesFrames) {
  std::string stream = dist::EncodeFrame(
      dist::FrameType::kShardError,
      dist::Encode(dist::ShardErrorFrame{"one byte at a time"}));
  dist::FrameReader reader;
  size_t frames = 0;
  for (char c : stream) {
    reader.Feed(&c, 1);
    while (std::optional<dist::Frame> frame = reader.Next()) {
      dist::ShardErrorFrame out;
      ASSERT_TRUE(dist::Decode(frame->payload, &out));
      EXPECT_EQ(out.message, "one byte at a time");
      ++frames;
    }
  }
  EXPECT_EQ(frames, 1u);
  EXPECT_FALSE(reader.corrupt());
}

TEST(WireTest, ChecksumMismatchPoisonsStream) {
  const std::string good = dist::EncodeFrame(
      dist::FrameType::kShardError,
      dist::Encode(dist::ShardErrorFrame{"checksummed"}));
  std::string stream = good;
  stream[stream.size() - 1] ^= 0x40;  // flip one payload bit
  dist::FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.corrupt());
  // A poisoned reader stays poisoned: no resynchronisation.
  reader.Feed(good.data(), good.size());
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(WireTest, BadMagicAndOversizedPayloadPoison) {
  {
    dist::FrameReader reader;
    std::string junk = "not a CTWF frame, definitely";
    reader.Feed(junk.data(), junk.size());
    EXPECT_FALSE(reader.Next().has_value());
    EXPECT_TRUE(reader.corrupt());
  }
  {
    // Valid magic, absurd payload size: corruption, not a huge allocation.
    std::string header = dist::EncodeFrame(dist::FrameType::kHeartbeat, "");
    header[8] = '\xff';
    header[9] = '\xff';
    header[10] = '\xff';
    header[11] = '\x7f';
    dist::FrameReader reader;
    reader.Feed(header.data(), header.size());
    EXPECT_FALSE(reader.Next().has_value());
    EXPECT_TRUE(reader.corrupt());
  }
}

TEST(WireTest, TruncatedFrameIsIncompleteNotCorrupt) {
  std::string stream = dist::EncodeFrame(
      dist::FrameType::kShardError,
      dist::Encode(dist::ShardErrorFrame{"mid-write death"}));
  dist::FrameReader reader;
  reader.Feed(stream.data(), stream.size() / 2);  // worker died mid-write
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(reader.corrupt());  // dead peer, not a poisoned stream
}

// --- shard records ----------------------------------------------------------

class ShardArtifactTest : public DistTest {
 protected:
  // One coarse cluster holding all of SmallDb, split under a fixed stream:
  // enough to drive ComputeShardCluster, the payload codec and the store's
  // shard records directly.
  void SetUp() override {
    for (GraphId g = 0; g < db_.size(); ++g) cluster_.push_back(g);
    Rng rng(7);
    stream_ = SplitFineStreams(rng, 1)[0];
    fine_.max_cluster_size = 8;
  }

  dist::ShardClusterResult Compute(const std::vector<GraphId>& cluster) {
    return dist::ComputeShardCluster(db_, cluster, &stream_, fine_,
                                     RunContext::NoLimit());
  }

  // Saves cluster_'s computed result as cluster 0's record in `store`.
  dist::ShardClusterResult SaveCluster(CheckpointStore& store) {
    dist::ShardClusterResult computed = Compute(cluster_);
    EXPECT_EQ(store.SaveShard(
                  0, dist::EncodeShardResultPayload(0, cluster_, computed)),
              "");
    return computed;
  }

  static constexpr uint64_t kFingerprint = 0xfeedface;
  GraphDatabase db_ = SmallDb();
  std::vector<GraphId> cluster_;
  RngState stream_;
  FineClusteringOptions fine_;
};

void ExpectSameShardResult(const dist::ShardClusterResult& expected,
                           const dist::ShardClusterResult& actual) {
  EXPECT_EQ(actual.fine_clusters, expected.fine_clusters);
  ASSERT_EQ(actual.csgs.size(), expected.csgs.size());
  for (size_t i = 0; i < actual.csgs.size(); ++i) {
    EXPECT_EQ(EncodeCsgBytes(actual.csgs[i]), EncodeCsgBytes(expected.csgs[i]));
  }
}

TEST_F(ShardArtifactTest, RoundTripsAndValidatesBinding) {
  const std::string dir = ScratchDir("rt");
  CheckpointStore store(dir, kFingerprint);
  dist::ShardClusterResult computed = SaveCluster(store);
  ASSERT_TRUE(computed.Complete());
  ASSERT_FALSE(computed.fine_clusters.empty());
  ASSERT_EQ(computed.fine_clusters.size(), computed.csgs.size());
  // The record lives at its fixed path and is never named by a manifest.
  EXPECT_TRUE(std::filesystem::exists(dir + "/shards/cluster-0.ckpt"));
  EXPECT_FALSE(std::filesystem::exists(
      dir + "/" + CheckpointStore::FileNameFor(RecordType::kManifest)));

  std::string payload;
  ASSERT_EQ(store.LoadShard(0, &payload), "");
  dist::ShardClusterResult loaded;
  ASSERT_EQ(dist::DecodeShardResultPayload(payload, 0, cluster_, &loaded), "");
  ExpectSameShardResult(computed, loaded);

  // Loading a missing cluster, or through a store of another run, reports
  // and yields no payload.
  std::string missing;
  EXPECT_NE(store.LoadShard(1, &missing), "");
  EXPECT_TRUE(missing.empty());
  std::string foreign;
  EXPECT_NE(CheckpointStore(dir, kFingerprint + 1).LoadShard(0, &foreign), "");
  EXPECT_TRUE(foreign.empty());
}

TEST_F(ShardArtifactTest, RejectsArtifactBoundToDifferentCluster) {
  CheckpointStore store(ScratchDir("bind"), kFingerprint);
  SaveCluster(store);
  std::string payload;
  ASSERT_EQ(store.LoadShard(0, &payload), "");

  // Same record, different current membership or index: the binding check
  // must fire.
  std::vector<GraphId> shrunk = cluster_;
  shrunk.pop_back();
  dist::ShardClusterResult loaded;
  EXPECT_NE(dist::DecodeShardResultPayload(payload, 0, shrunk, &loaded), "")
      << "record bound to a different member list accepted";
  EXPECT_NE(dist::DecodeShardResultPayload(payload, 1, cluster_, &loaded), "")
      << "record bound to a different cluster index accepted";
  EXPECT_TRUE(loaded.fine_clusters.empty()) << "a rejection filled `out`";
}

TEST_F(ShardArtifactTest, RejectsCorruptedArtifactBytes) {
  const std::string dir = ScratchDir("flip");
  CheckpointStore store(dir, kFingerprint);
  SaveCluster(store);

  const std::string path = dir + "/shards/cluster-0.ckpt";
  std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x08;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  std::string payload;
  EXPECT_NE(store.LoadShard(0, &payload), "");
  EXPECT_TRUE(payload.empty());
}

// A run without a store accepts a member's payload through the decoder
// alone: it must refuse a payload encoded for another member list and
// accept each payload for its own. The same members in another order are
// another coarse cluster (fine clustering draws its seeds by position), and
// only the stored member list tells the two apart: either result partitions
// either list.
TEST_F(ShardArtifactTest, InMemoryDecoderChecksTheBinding) {
  const std::vector<GraphId> reversed(cluster_.rbegin(), cluster_.rend());
  const dist::ShardClusterResult forward_result = Compute(cluster_);
  const dist::ShardClusterResult reversed_result = Compute(reversed);
  const std::string forward_payload =
      dist::EncodeShardResultPayload(0, cluster_, forward_result);
  const std::string reversed_payload =
      dist::EncodeShardResultPayload(0, reversed, reversed_result);

  dist::ShardClusterResult decoded;
  EXPECT_NE(
      dist::DecodeShardResultPayload(forward_payload, 0, reversed, &decoded),
      "");
  EXPECT_NE(
      dist::DecodeShardResultPayload(reversed_payload, 0, cluster_, &decoded),
      "");
  EXPECT_TRUE(decoded.fine_clusters.empty()) << "a rejection filled `out`";

  ASSERT_EQ(
      dist::DecodeShardResultPayload(forward_payload, 0, cluster_, &decoded),
      "");
  ExpectSameShardResult(forward_result, decoded);
  ASSERT_EQ(
      dist::DecodeShardResultPayload(reversed_payload, 0, reversed, &decoded),
      "");
  ExpectSameShardResult(reversed_result, decoded);
}

// --- end-to-end bit-identity ------------------------------------------------

TEST_F(DistTest, FourProcessRunMatchesInProcessRun) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(expected.execution.dist.enabled);

  CatapultResult actual = RunCatapult(db, DistOptionsOf(base, 4));
  ASSERT_TRUE(actual.ok());
  EXPECT_TRUE(actual.execution.dist.enabled);
  EXPECT_EQ(actual.execution.dist.processes, 4u);
  EXPECT_GT(actual.execution.dist.shards, 0u);
  EXPECT_GE(actual.execution.dist.workers_spawned,
            actual.execution.dist.shards);
  EXPECT_EQ(actual.execution.dist.worker_deaths, 0u);
  EXPECT_EQ(actual.execution.dist.quarantined_shards, 0u);
  ExpectSameResult(expected, actual);
  ExpectNoChildLeft();
}

TEST_F(DistTest, SamplingPathMatchesToo) {
  GraphDatabase db = SmallDb(/*seed=*/77, /*n=*/60);
  CatapultOptions base = FastOptions();
  base.use_sampling = true;
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());
  CatapultResult actual = RunCatapult(db, DistOptionsOf(base, 3));
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected, actual);
}

TEST_F(DistTest, MultiThreadWorkersMatchSingleThreadRun) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  base.threads = 1;
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  CatapultOptions sharded = DistOptionsOf(base, 2);
  sharded.threads = 4;  // 4 threads inside each worker
  CatapultResult actual = RunCatapult(db, sharded);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(actual.execution.threads, 4u);
  ExpectSameResult(expected, actual);
}

TEST_F(DistTest, CheckpointBytesMatchInProcessRun) {
  GraphDatabase db = SmallDb();
  std::string dir_classic = ScratchDir("classic");
  std::string dir_dist = ScratchDir("dist");

  CatapultOptions base = FastOptions();
  base.checkpoint_dir = dir_classic;
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  CatapultOptions sharded = DistOptionsOf(base, 4);
  sharded.checkpoint_dir = dir_dist;
  CatapultResult actual = RunCatapult(db, sharded);
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected, actual);
  ExpectSameCheckpoints(dir_classic, dir_dist);

  // A sharded run's checkpoints resume fine under a different process
  // count — the supervision knobs are excluded from the fingerprint.
  CatapultOptions resume = base;
  resume.checkpoint_dir = dir_dist;
  resume.resume = true;
  CatapultResult resumed = RunCatapult(db, resume);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.execution.resumed_from, "selection");
  ExpectSameResult(expected, resumed);
}

// FNV-1a 64 of a file's bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// The shard records a checkpointed sharded run writes, pinned by digest:
// these are the bytes the sharded phase wrote before the checkpoint store
// owned them, so a directory written by an older build still resumes. A
// rerun in the same directory reads them only under --resume: without it
// the members recompute every cluster; with it, and the phase records
// gone, every record is reused.
TEST_F(DistTest, ShardRecordsMatchPinnedDigestsAndAreReused) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = DistOptionsOf(FastOptions(), 4);
  options.checkpoint_dir = ScratchDir("pin");
  CatapultResult first = RunCatapult(db, options);
  ASSERT_TRUE(first.ok());

  const std::vector<uint64_t> kPinned = {
      0xc7dcdf4e2806da17ull, 0x78c7f84adcbec1ecull, 0xb2807f17563d1a0bull};
  const std::string shards = options.checkpoint_dir + "/shards";
  auto expect_pinned_records = [&] {
    std::vector<uint64_t> digests;
    for (size_t idx = 0; idx < kPinned.size(); ++idx) {
      digests.push_back(Fnv1a(ReadFileBytes(
          shards + "/cluster-" + std::to_string(idx) + ".ckpt")));
    }
    EXPECT_EQ(digests, kPinned);
    size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(shards)) {
      (void)entry;
      ++files;
    }
    EXPECT_EQ(files, kPinned.size());
  };
  expect_pinned_records();

  CatapultResult fresh = RunCatapult(db, options);
  ASSERT_TRUE(fresh.ok());
  ExpectSameResult(first, fresh);
  EXPECT_GT(fresh.execution.dist.workers_spawned, 0u);
  EXPECT_EQ(fresh.execution.dist.artifacts_reused, 0u);
  expect_pinned_records();

  for (RecordType type : {RecordType::kManifest, RecordType::kClustering,
                          RecordType::kCsgs, RecordType::kSelection}) {
    std::filesystem::remove(options.checkpoint_dir + "/" +
                            CheckpointStore::FileNameFor(type));
  }
  options.resume = true;
  CatapultResult rerun = RunCatapult(db, options);
  ASSERT_TRUE(rerun.ok());
  ExpectSameResult(first, rerun);
  EXPECT_EQ(rerun.execution.dist.artifacts_reused, kPinned.size());
  EXPECT_EQ(rerun.execution.dist.workers_spawned, 0u);
}

// Without a checkpoint directory the sharded phase keeps its members'
// results in memory: it reads and writes no record, and the panel is the
// in-process one.
TEST_F(DistTest, UncheckpointedShardedRunReadsAndWritesNoRecord) {
  GraphDatabase db = SmallDb();
  CatapultResult expected = RunCatapult(db, FastOptions());
  ASSERT_TRUE(expected.ok());

  obs::MetricsRegistry registry;
  RunContext ctx = RunContext::NoLimit().WithObservability(&registry, nullptr);
  CatapultResult actual =
      RunCatapult(db, DistOptionsOf(FastOptions(), 4), ctx);
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected, actual);
  EXPECT_GT(actual.execution.dist.remote_clusters, 0u);
  EXPECT_EQ(actual.execution.dist.inprocess_fallbacks, 0u);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  for (obs::Counter c :
       {obs::Counter::kCheckpointRecordsWritten,
        obs::Counter::kCheckpointRecordsRead,
        obs::Counter::kCheckpointBytesWritten,
        obs::Counter::kCheckpointBytesRead, obs::Counter::kCheckpointFsyncs}) {
    EXPECT_EQ(snap.counter(c), 0u) << obs::CounterName(c);
  }
  EXPECT_EQ(snap.hist(obs::Hist::kCheckpointRecordBytes).count, 0u);
  ExpectNoChildLeft();
}

// The local fleet at processes {2, 4} x threads {1, 4}: members obey the
// supervisor's thread count, and every combination reproduces the
// single-thread in-process run down to the checkpoint bytes.
TEST_F(DistTest, LocalFleetMatrixMatchesInProcessDownToCheckpoints) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  base.threads = 1;
  base.checkpoint_dir = ScratchDir("classic");
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());
  for (size_t processes : {2, 4}) {
    for (size_t threads : {1, 4}) {
      SCOPED_TRACE("processes=" + std::to_string(processes) +
                   " threads=" + std::to_string(threads));
      CatapultOptions sharded = DistOptionsOf(base, processes);
      sharded.threads = threads;
      sharded.checkpoint_dir =
          ScratchDir(std::string("p").append(std::to_string(processes)) +
                     "t" + std::to_string(threads));
      CatapultResult actual = RunCatapult(db, sharded);
      ASSERT_TRUE(actual.ok());
      ExpectSameResult(expected, actual);
      ExpectSameCheckpoints(base.checkpoint_dir, sharded.checkpoint_dir);
      const dist::DistReport& d = actual.execution.dist;
      EXPECT_FALSE(d.remote);
      EXPECT_EQ(d.workers_spawned, d.shards);
      EXPECT_EQ(d.shard_retries, 0u);
      EXPECT_EQ(d.inprocess_fallbacks, 0u);
      ExpectNoChildLeft();
    }
  }
}

// --- chaos: every fault must recover bit-identically ------------------------

class DistChaosTest : public DistTest {
 protected:
  // Runs `sharded` (a sharded variant of FastOptions) with `sites` armed
  // in the supervisor, which every forked member inherits, and asserts
  // recovery reproduced the unperturbed in-process run exactly: panel,
  // scores and phase checkpoint bytes. No member may be left unreaped.
  CatapultResult RunChaos(
      const std::vector<std::pair<std::string, long>>& sites,
      CatapultOptions sharded) {
    GraphDatabase db = SmallDb();
    CatapultOptions base = FastOptions();
    base.threads = sharded.threads;
    base.checkpoint_dir = ScratchDir("inprocess");
    CatapultResult expected = RunCatapult(db, base);
    EXPECT_TRUE(expected.ok());

    sharded.checkpoint_dir = ScratchDir("sharded");
    for (const auto& [site, count] : sites) failpoint::Arm(site, count);
    CatapultResult actual = RunCatapult(db, sharded);
    failpoint::DisarmAll();
    EXPECT_TRUE(actual.ok());
    ExpectSameResult(expected, actual);
    ExpectSameCheckpoints(base.checkpoint_dir, sharded.checkpoint_dir);
    ExpectNoChildLeft();
    return actual;
  }
};

// A member SIGKILLed mid-shard, right after its first result was accepted:
// the supervisor sees EOF, fences it, reaps it, forks a replacement and
// retries the shard.
TEST_F(DistChaosTest, RecoversFromKillBeforeCheckpoint) {
  CatapultResult result =
      RunChaos({{dist::kFailpointKillAfterFirstResult, -1}},
               DistOptionsOf(FastOptions(), 4));
  const dist::DistReport& d = result.execution.dist;
  EXPECT_GE(d.worker_deaths, 1u);
  EXPECT_GE(d.shard_retries, 1u);
  EXPECT_GT(d.workers_spawned, d.shards);  // replacements were forked
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerFenced));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerDied));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kShardRetried));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerSpawned));
}

// The same kill: the retried shard resumes from the clusters the
// supervisor already accepted (held in memory, not read from a record).
TEST_F(DistChaosTest, RecoversFromKillAfterCheckpointReusingArtifacts) {
  CatapultResult result =
      RunChaos({{dist::kFailpointKillAfterFirstResult, -1}},
               DistOptionsOf(FastOptions(), 4));
  const dist::DistReport& d = result.execution.dist;
  EXPECT_GE(d.worker_deaths, 1u);
  // Each killed member's first cluster was accepted before it died; the
  // retry must carry only the clusters still missing, not recompute it.
  bool resumed = false;
  for (size_t s = 0; s < d.shards; ++s) {
    long first = AssignedClusters(d.events, s, 0);
    long retry = AssignedClusters(d.events, s, 1);
    if (first > 0 && retry >= 0) {
      EXPECT_EQ(retry, first - 1) << "shard " << s;
      resumed = true;
    }
  }
  EXPECT_TRUE(resumed);
  EXPECT_EQ(d.duplicate_clusters, 0u);
}

// The supervisor persists each accepted cluster and re-reads it through
// the validating loader; a read that comes back damaged is rejected, the
// member fenced and the shard recomputed.
TEST_F(DistChaosTest, RejectsCorruptShardArtifactAndRecomputes) {
  CatapultResult result = RunChaos({{"persist.short_read", 1}},
                                   DistOptionsOf(FastOptions(), 4));
  const dist::DistReport& d = result.execution.dist;
  EXPECT_GE(d.artifacts_rejected, 1u);
  EXPECT_GE(d.shard_retries, 1u);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kArtifactRejected));
}

// A member that tears its first result frame and exits nonzero (code 20,
// connection lost) without a ShardDone.
TEST_F(DistChaosTest, RecoversFromNonzeroWorkerExit) {
  CatapultResult result = RunChaos({{dist::kFailpointDropMidFrame, -1}},
                                   DistOptionsOf(FastOptions(), 4));
  const dist::DistReport& d = result.execution.dist;
  EXPECT_GE(d.worker_deaths, 1u);
  EXPECT_GE(d.shard_retries, 1u);
  EXPECT_EQ(d.quarantined_shards, 0u);
}

TEST_F(DistChaosTest, DetectsHeartbeatHangAndRecovers) {
  CatapultOptions sharded = DistOptionsOf(FastOptions(), 4);
  // Tight deadline so the hung members are detected quickly; comfortably
  // above the suite's scheduling noise floor.
  sharded.shard_heartbeat_timeout_ms = 250.0;
  // Heartbeats pause and the first result is held, each for 2.5x the
  // deadline: the member is alive as a process but silent on its socket.
  CatapultResult result =
      RunChaos({{dist::kFailpointDelayHeartbeat, -1},
                {dist::kFailpointStallBeforeResult, -1}},
               sharded);
  const dist::DistReport& d = result.execution.dist;
  EXPECT_GE(d.worker_hangs, 1u);
  EXPECT_GE(d.shard_retries, 1u);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerHung));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerDied));
}

TEST_F(DistChaosTest, QuarantinesAfterFailureBudgetAndFallsBackInProcess) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  CatapultOptions sharded = DistOptionsOf(base, 3);
  sharded.max_shard_retries = 2;
  // The persist faults need records to hit: only a run with a checkpoint
  // store writes any.
  sharded.checkpoint_dir = ScratchDir("sharded");
  // Every attempt fails: no accepted cluster can be persisted.
  failpoint::Arm("persist.rename", -1);
  CatapultResult actual = RunCatapult(db, sharded);
  failpoint::DisarmAll();
  ASSERT_TRUE(actual.ok());
  // The last rung of the ladder still reproduces the exact result.
  ExpectSameResult(expected, actual);
  ExpectNoChildLeft();

  const dist::DistReport& d = actual.execution.dist;
  EXPECT_EQ(d.quarantined_shards, d.shards);
  EXPECT_EQ(d.inprocess_fallbacks, d.shards);
  // Every shard burned its full failure budget: max_shard_retries retries
  // each, every retry after the first failure preceded by a backoff wait.
  EXPECT_EQ(d.shard_retries, d.shards * sharded.max_shard_retries);
  EXPECT_EQ(d.backoff_waits, d.shard_retries);
  EXPECT_GT(d.backoff_total_ms, 0.0);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kShardQuarantined));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kInProcessFallback));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kBackoffWait));
  // The fallback's results are kept, but none could be saved: each failed
  // save is counted and logged with its cluster and the store's error.
  EXPECT_EQ(d.fallback_save_failures, 3u);
  std::vector<std::string> failed_saves;
  for (const dist::ShardEvent& e : d.events) {
    if (e.kind == dist::ShardEvent::Kind::kFallbackSaveFailed) {
      failed_saves.push_back(e.detail);
    }
  }
  ASSERT_EQ(failed_saves.size(), 3u);
  for (const std::string& detail : failed_saves) {
    EXPECT_EQ(detail.rfind("cluster=", 0), 0u) << detail;
    EXPECT_NE(detail.find("cannot rename"), std::string::npos) << detail;
  }
}

// Persist-layer corruption inside the store's shards/ directory: torn record
// writes and bit-flipped reads must resolve to a cold shard restart
// (recompute), never a crash — at multi-threaded members, like production
// would run.
TEST_F(DistChaosTest, TornShardArtifactWriteResolvesToRestart) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  base.threads = 4;
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  CatapultOptions sharded = DistOptionsOf(base, 4);
  sharded.checkpoint_dir = ScratchDir("sharded");
  failpoint::Arm("persist.torn_write", 1);  // the first artifact write
  CatapultResult actual = RunCatapult(db, sharded);
  failpoint::DisarmAll();
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected, actual);
  EXPECT_GE(actual.execution.dist.artifacts_rejected, 1u);
}

TEST_F(DistChaosTest, BitFlippedShardArtifactReadResolvesToRestart) {
  GraphDatabase db = SmallDb();
  CatapultOptions base = FastOptions();
  base.threads = 4;
  CatapultResult expected = RunCatapult(db, base);
  ASSERT_TRUE(expected.ok());

  CatapultOptions sharded = DistOptionsOf(base, 4);
  sharded.checkpoint_dir = ScratchDir("sharded");
  failpoint::Arm("persist.bit_flip", 1);  // the first artifact read
  CatapultResult actual = RunCatapult(db, sharded);
  failpoint::DisarmAll();
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected, actual);
  const dist::DistReport& d = actual.execution.dist;
  EXPECT_GE(d.artifacts_rejected + d.shard_retries, 1u);
}

// --- supervision under stop requests ----------------------------------------

TEST_F(DistTest, DeadlineDuringShardedPhaseDegradesGracefully) {
  GraphDatabase db = SmallDb(/*seed=*/5, /*n=*/80);
  CatapultOptions options = DistOptionsOf(FastOptions(), 4);
  options.deadline_ms = 30.0;  // expires somewhere inside the pipeline
  CatapultResult result = RunCatapult(db, options);
  ASSERT_TRUE(result.ok());  // partial results, never a crash
  EXPECT_TRUE(result.execution.deadline_set);
  ExpectNoChildLeft();
}

TEST_F(DistTest, CancellationReapsWorkersAndReturnsPartial) {
  GraphDatabase db = SmallDb(/*seed=*/5, /*n=*/80);
  CatapultOptions options = DistOptionsOf(FastOptions(), 4);
  RunContext ctx = RunContext::NoLimit();
  std::thread canceller([token = ctx.cancel_token()] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    token.Cancel();
  });
  CatapultResult result = RunCatapult(db, options, ctx);
  canceller.join();
  ASSERT_TRUE(result.ok());
  // Whatever phase the cancel landed in, the run wound down cooperatively
  // and reaped every member it forked before returning.
  ExpectNoChildLeft();
}

// --- observability ----------------------------------------------------------

TEST_F(DistTest, SupervisionCountersAndReportJsonExposed) {
  GraphDatabase db = SmallDb();
  CatapultOptions options = DistOptionsOf(FastOptions(), 2);
  options.shard_heartbeat_timeout_ms = 150.0;  // ~37ms heartbeat interval
  obs::MetricsRegistry registry;
  RunContext ctx = RunContext::NoLimit().WithObservability(&registry, nullptr);
  CatapultResult result = RunCatapult(db, options, ctx);
  ASSERT_TRUE(result.ok());

  const dist::DistReport& d = result.execution.dist;
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kDistWorkersSpawned),
            d.workers_spawned);
  EXPECT_GE(snap.counter(obs::Counter::kDistWorkersSpawned), d.shards);
  EXPECT_EQ(snap.counter(obs::Counter::kDistHeartbeats), d.heartbeats);
  // Worker-side counters crossed the process fence: the workers did all the
  // CSG folding, yet the merged registry still saw it.
  EXPECT_GT(snap.counter(obs::Counter::kCsgFolds), 0u);

  // The selection report carries the supervision block for GUI layers.
  LabelMap labels;
  std::string json = SelectionReportJson(result, labels);
  EXPECT_NE(json.find("\"dist\""), std::string::npos);
  EXPECT_NE(json.find("\"workers_spawned\""), std::string::npos);
  EXPECT_NE(json.find("\"quarantined_shards\""), std::string::npos);
}

TEST_F(DistTest, EventLogRendersHumanReadably) {
  dist::ShardEvent event{dist::ShardEvent::Kind::kBackoffWait, 3,
                         "delay_ms=50"};
  std::string text = dist::ToString(event);
  EXPECT_NE(text.find("backoff_wait"), std::string::npos);
  EXPECT_NE(text.find("shard=3"), std::string::npos);
  EXPECT_NE(text.find("delay_ms=50"), std::string::npos);
}

}  // namespace
}  // namespace catapult
