// Chaos suite for sharded execution over remote fleets (DESIGN.md §12):
// the address parser and socket channel, the handshake/assignment frame
// codecs, the membership registry's generation fencing, and — the
// acceptance bar — that a sharded run over real sockets (Unix-domain and
// TCP loopback) survives every injected network fault (connection refused,
// short writes, mid-frame drops, duplicated delivery, SIGKILLed workers,
// heartbeat-stalled zombies, total fleet loss) while producing a selection
// bit-identical to the in-process run, down to the checkpoint bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/catapult.h"
#include "src/data/molecule_generator.h"
#include "src/dist/channel.h"
#include "src/dist/net_worker.h"
#include "src/dist/registry.h"
#include "src/dist/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/persist/checkpoint.h"
#include "src/persist/codec.h"
#include "src/persist/record_io.h"
#include "src/util/backoff.h"
#include "src/util/failpoint.h"
#include "tests/scratch_dir.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace catapult {
namespace {

// --- address parsing --------------------------------------------------------

TEST(DistNetAddressTest, ParsesUnixAndTcpForms) {
  dist::Address addr;
  std::string error;
  ASSERT_TRUE(dist::ParseAddress("unix:/tmp/x.sock", &addr, &error)) << error;
  EXPECT_EQ(addr.kind, dist::Address::Kind::kUnix);
  EXPECT_EQ(addr.path, "/tmp/x.sock");
  EXPECT_EQ(addr.text, "unix:/tmp/x.sock");

  ASSERT_TRUE(dist::ParseAddress("tcp:127.0.0.1:8041", &addr, &error));
  EXPECT_EQ(addr.kind, dist::Address::Kind::kTcp);
  EXPECT_EQ(addr.host, "127.0.0.1");
  EXPECT_EQ(addr.port, 8041);

  ASSERT_TRUE(dist::ParseAddress("tcp:localhost:0", &addr, &error));
  EXPECT_EQ(addr.port, 0);  // kernel-assigned (listeners only)
}

TEST(DistNetAddressTest, RejectsMalformedAddresses) {
  dist::Address addr;
  std::string error;
  for (const char* bad :
       {"", "unix:", "tcp:", "tcp:127.0.0.1", "tcp:127.0.0.1:notaport",
        "tcp:127.0.0.1:99999", "udp:127.0.0.1:80", "just-a-path"}) {
    error.clear();
    EXPECT_FALSE(dist::ParseAddress(bad, &addr, &error)) << bad;
    EXPECT_NE(error, "") << bad;
  }
}

// --- handshake / assignment frame codecs ------------------------------------

TEST(DistNetWireTest, HandshakeFramesRoundTrip) {
  {
    dist::JoinRequestFrame in;
    in.protocol = dist::kDistProtocolVersion;
    in.fingerprint = 0xabcdef0102030405ull;
    in.worker_name = "rack12/worker3";
    in.prev_worker_id = 4;
    in.prev_generation = 9;
    dist::JoinRequestFrame out;
    ASSERT_TRUE(dist::Decode(dist::Encode(in), &out));
    EXPECT_EQ(out.protocol, in.protocol);
    EXPECT_EQ(out.fingerprint, in.fingerprint);
    EXPECT_EQ(out.worker_name, in.worker_name);
    EXPECT_EQ(out.prev_worker_id, 4u);
    EXPECT_EQ(out.prev_generation, 9u);
  }
  {
    // A v3 member's JoinRequest, whose layout still carried the shard
    // namespace and the pid, decodes to its version alone, so the
    // supervisor can answer it with kProtocolMismatch.
    persist::BinaryWriter v3;
    v3.PutU64(3);
    v3.PutU64(0xabcdef0102030405ull);
    v3.PutString("shards");
    v3.PutString("rack12/worker3");
    v3.PutU64(4);
    v3.PutU64(9);
    v3.PutU64(31337);
    dist::JoinRequestFrame out;
    ASSERT_TRUE(dist::Decode(v3.TakeBuffer(), &out));
    EXPECT_EQ(out.protocol, 3u);
    // This version's own layout stays strict: a truncated version or a
    // byte past the end does not decode.
    EXPECT_FALSE(dist::Decode(std::string(4, '\0'), &out));
    EXPECT_FALSE(
        dist::Decode(dist::Encode(dist::JoinRequestFrame{}) + "x", &out));
  }
  {
    dist::JoinAcceptFrame in{3, 2, 125.0, 500.0};
    dist::JoinAcceptFrame out;
    ASSERT_TRUE(dist::Decode(dist::Encode(in), &out));
    EXPECT_EQ(out.worker_id, 3u);
    EXPECT_EQ(out.generation, 2u);
    EXPECT_EQ(out.heartbeat_interval_ms, 125.0);
    EXPECT_EQ(out.heartbeat_timeout_ms, 500.0);
  }
  {
    dist::JoinRejectFrame in{
        static_cast<uint32_t>(dist::JoinRejectCode::kFingerprintMismatch),
        "fingerprint 0xdead != 0xbeef"};
    dist::JoinRejectFrame out;
    ASSERT_TRUE(dist::Decode(dist::Encode(in), &out));
    EXPECT_EQ(out.code, in.code);
    EXPECT_EQ(out.message, in.message);
  }
  {
    dist::ShutdownFrame in{static_cast<uint32_t>(dist::ShutdownCode::kFenced),
                           "stale generation"};
    dist::ShutdownFrame out;
    ASSERT_TRUE(dist::Decode(dist::Encode(in), &out));
    EXPECT_EQ(out.code, in.code);
    EXPECT_EQ(out.message, "stale generation");
  }
}

TEST(DistNetWireTest, ShardAssignRoundTripsClustersAndStreams) {
  dist::ShardAssignFrame in;
  in.shard = 2;
  in.attempt = 1;
  in.generation = 5;
  in.fine_enabled = true;
  in.fine_max_cluster_size = 10;
  in.mcs_connected = true;
  in.mcs_match_edge_labels = false;
  in.mcs_node_budget = 3000;
  in.deadline_remaining_ms = 1234.5;
  in.mem_soft_limit_bytes = 1 << 20;
  in.mem_hard_limit_bytes = 2 << 20;
  in.trace_id = 0xfeedface12345678ull;
  in.threads = 4;
  dist::ClusterWork a;
  a.index = 0;
  a.members = {3, 1, 4, 1, 5};
  a.stream = RngState{{1, 2, 3, 4}};
  dist::ClusterWork b;
  b.index = 7;
  b.members = {9};
  b.stream = RngState{{5, 6, 7, 8}};
  in.clusters = {a, b};

  dist::ShardAssignFrame out;
  ASSERT_TRUE(dist::Decode(dist::Encode(in), &out));
  EXPECT_EQ(out.shard, 2u);
  EXPECT_EQ(out.generation, 5u);
  EXPECT_EQ(out.deadline_remaining_ms, 1234.5);
  EXPECT_EQ(out.mem_hard_limit_bytes, 2u << 20);
  EXPECT_EQ(out.trace_id, 0xfeedface12345678ull);
  EXPECT_EQ(out.threads, 4u);
  ASSERT_EQ(out.clusters.size(), 2u);
  EXPECT_EQ(out.clusters[0].members, a.members);
  EXPECT_EQ(out.clusters[0].stream.words, a.stream.words);
  EXPECT_EQ(out.clusters[1].index, 7u);
  EXPECT_EQ(out.clusters[1].stream.words, b.stream.words);
}

TEST(DistNetWireTest, ShardAssignRejectsCorruptCountsAndDeadStreams) {
  dist::ShardAssignFrame frame;
  frame.shard = 1;
  frame.fine_enabled = true;
  dist::ClusterWork work;
  work.index = 0;
  work.members = {1, 2};
  work.stream = RngState{{1, 2, 3, 4}};
  frame.clusters = {work};
  std::string good = dist::Encode(frame);

  // Truncation at every prefix: never a crash, never a huge allocation.
  for (size_t len = 0; len < good.size(); ++len) {
    dist::ShardAssignFrame out;
    EXPECT_FALSE(dist::Decode(good.substr(0, len), &out)) << len;
  }

  // A fine-enabled cluster with an all-zero rng stream is the xoshiro
  // absorbing state — corruption, not a usable work order.
  frame.clusters[0].stream = RngState{{0, 0, 0, 0}};
  dist::ShardAssignFrame out;
  EXPECT_FALSE(dist::Decode(dist::Encode(frame), &out));
}

TEST(DistNetWireTest, ClusterResultRoundTripsPayloadBytes) {
  dist::ClusterResultFrame in;
  in.shard = 3;
  in.generation = 2;
  in.cluster_index = 11;
  in.payload = std::string("\x00\x01\x02" "binary\xff payload", 18);
  dist::ClusterResultFrame out;
  ASSERT_TRUE(dist::Decode(dist::Encode(in), &out));
  EXPECT_EQ(out.shard, 3u);
  EXPECT_EQ(out.generation, 2u);
  EXPECT_EQ(out.cluster_index, 11u);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(DistNetWireTest, ShardDoneRoundTripsTraceContextAndSpans) {
  dist::ShardDoneFrame in;
  in.shard = 1;
  in.counters.assign(obs::kNumCounters, 0);
  in.counters[static_cast<size_t>(obs::Counter::kVf2Calls)] = 17;
  in.trace_id = 0x1122334455667788ull;
  obs::SpanRecord root;
  root.name = "worker.shard";
  root.start_ns = 0;
  root.dur_ns = 5000;
  root.span_id = 1;
  root.parent_id = 0;
  root.tid = 0;
  obs::SpanRecord child;
  child.name = "cluster-7";
  child.start_ns = 1000;
  child.dur_ns = 2000;
  child.span_id = 2;
  child.parent_id = 1;
  child.tid = 1;
  child.counter_deltas = {{obs::Counter::kVf2Calls, 17}};
  in.spans = {root, child};

  const std::string bytes = dist::Encode(in);
  dist::ShardDoneFrame out;
  ASSERT_TRUE(dist::Decode(bytes, &out));
  EXPECT_EQ(out.shard, 1u);
  EXPECT_EQ(out.trace_id, in.trace_id);
  ASSERT_EQ(out.spans.size(), 2u);
  EXPECT_EQ(out.spans[0].name, "worker.shard");
  EXPECT_EQ(out.spans[0].dur_ns, 5000u);
  EXPECT_EQ(out.spans[1].name, "cluster-7");
  EXPECT_EQ(out.spans[1].parent_id, 1u);
  EXPECT_EQ(out.spans[1].tid, 1u);
  ASSERT_EQ(out.spans[1].counter_deltas.size(), 1u);
  EXPECT_EQ(out.spans[1].counter_deltas[0].first, obs::Counter::kVf2Calls);
  EXPECT_EQ(out.spans[1].counter_deltas[0].second, 17u);

  // Truncation at every prefix: never a crash, never a huge allocation.
  for (size_t len = 0; len < bytes.size(); ++len) {
    dist::ShardDoneFrame trunc;
    EXPECT_FALSE(dist::Decode(bytes.substr(0, len), &trunc)) << len;
  }

  // A hostile span count (claiming more spans than the payload could hold)
  // is rejected before any allocation.
  dist::ShardDoneFrame empty;
  empty.counters.assign(obs::kNumCounters, 0);
  std::string small = dist::Encode(empty);
  // Flip the span-count field (last 8 bytes of the no-span encoding) to a
  // huge value; the decoder's payload-size bound must reject it.
  for (size_t i = small.size() - 8; i < small.size(); ++i) small[i] = '\xff';
  dist::ShardDoneFrame bad;
  EXPECT_FALSE(dist::Decode(small, &bad));

  // A counter delta naming an out-of-range counter index is corruption.
  dist::ShardDoneFrame bad_delta = in;
  bad_delta.spans[1].counter_deltas = {
      {static_cast<obs::Counter>(obs::kNumCounters + 5), 1}};
  dist::ShardDoneFrame decoded;
  EXPECT_FALSE(dist::Decode(dist::Encode(bad_delta), &decoded));
}

TEST(DistNetWireTest, NewFrameTypesAcceptedByReader) {
  dist::FrameReader reader;
  std::string stream =
      dist::EncodeFrame(dist::FrameType::kJoinRequest,
                        dist::Encode(dist::JoinRequestFrame{})) +
      dist::EncodeFrame(dist::FrameType::kShutdown,
                        dist::Encode(dist::ShutdownFrame{1, "done"}));
  reader.Feed(stream.data(), stream.size());
  auto join = reader.Next();
  ASSERT_TRUE(join.has_value());
  EXPECT_EQ(join->type, dist::FrameType::kJoinRequest);
  auto shutdown = reader.Next();
  ASSERT_TRUE(shutdown.has_value());
  EXPECT_EQ(shutdown->type, dist::FrameType::kShutdown);
  EXPECT_FALSE(reader.corrupt());
}

// --- reconnect backoff semantics --------------------------------------------

// The reconnect schedule is a pure function of the consecutive-failure
// count: a worker that fences and rejoins twice replays the same delays in
// both generations, and the cap bounds how long a flapping fleet waits.
TEST(BackoffReconnectTest, ReconnectScheduleIsDeterministicAcrossGenerations) {
  ExponentialBackoff backoff(50.0, 1000.0);
  std::vector<double> generation1, generation2;
  for (size_t failures = 0; failures <= 8; ++failures) {
    generation1.push_back(backoff.DelayMs(failures));
  }
  ExponentialBackoff replay(50.0, 1000.0);
  for (size_t failures = 0; failures <= 8; ++failures) {
    generation2.push_back(replay.DelayMs(failures));
  }
  EXPECT_EQ(generation1, generation2);
  EXPECT_EQ(generation1[0], 0.0);  // a fresh join never waits
  EXPECT_EQ(generation1[1], 50.0);
  EXPECT_EQ(generation1[2], 100.0);
  EXPECT_EQ(generation1[8], 1000.0);  // capped
}

TEST(BackoffReconnectTest, SuccessfulJoinResetsTheSchedule) {
  // RunRemoteWorker zeroes its failure count on every accepted handshake;
  // the schedule after a reset is the schedule of a fresh worker.
  ExponentialBackoff backoff(50.0, 1000.0);
  size_t failures = 5;
  EXPECT_EQ(backoff.DelayMs(failures), 800.0);
  failures = 0;  // JoinAccept
  EXPECT_EQ(backoff.DelayMs(failures), 0.0);
  EXPECT_EQ(backoff.DelayMs(failures + 1), 50.0);
}

// --- membership registry ----------------------------------------------------

TEST(WorkerRegistryTest, FreshJoinsMintSequentialMembers) {
  dist::WorkerRegistry registry;
  auto now = dist::WorkerRegistry::Clock::now();
  auto a = registry.Join(0, 0, now);
  auto b = registry.Join(0, 0, now);
  EXPECT_EQ(a.worker_id, 1u);
  EXPECT_EQ(b.worker_id, 2u);
  EXPECT_EQ(a.generation, 1u);
  EXPECT_FALSE(a.reconnect);
  EXPECT_EQ(registry.alive(), 2u);
  EXPECT_TRUE(registry.IsCurrent(1, 1));
  EXPECT_FALSE(registry.IsCurrent(1, 2));  // future generation
  EXPECT_FALSE(registry.IsCurrent(3, 1));  // unknown member
}

TEST(WorkerRegistryTest, FencingRetiresTheGenerationUntilRejoin) {
  dist::WorkerRegistry registry;
  auto now = dist::WorkerRegistry::Clock::now();
  auto a = registry.Join(0, 0, now);
  registry.MarkDead(a.worker_id, now);
  registry.MarkDead(a.worker_id, now);  // idempotent
  EXPECT_FALSE(registry.IsCurrent(a.worker_id, a.generation));
  EXPECT_EQ(registry.alive(), 0u);

  // Rejoin with the fenced identity: same member, bumped generation.
  auto re = registry.Join(a.worker_id, a.generation,
                          now + std::chrono::milliseconds(80));
  EXPECT_TRUE(re.reconnect);
  EXPECT_EQ(re.worker_id, a.worker_id);
  EXPECT_EQ(re.generation, a.generation + 1);
  EXPECT_GE(re.down_ms, 80.0);
  EXPECT_TRUE(registry.IsCurrent(re.worker_id, re.generation));
  // The zombie's old generation stays fenced forever.
  EXPECT_FALSE(registry.IsCurrent(a.worker_id, a.generation));
  EXPECT_EQ(registry.total(), 1u);
}

TEST(WorkerRegistryTest, StaleIdentityMintsAFreshMember) {
  dist::WorkerRegistry registry;
  auto now = dist::WorkerRegistry::Clock::now();
  auto a = registry.Join(0, 0, now);
  // A generation the registry never issued (e.g. from a previous run)
  // cannot resurrect member 1 — it gets a brand-new identity instead.
  auto stranger = registry.Join(a.worker_id, a.generation + 7, now);
  EXPECT_FALSE(stranger.reconnect);
  EXPECT_EQ(stranger.worker_id, 2u);
  EXPECT_EQ(stranger.generation, 1u);
  // An unknown worker id likewise.
  auto unknown = registry.Join(99, 1, now);
  EXPECT_FALSE(unknown.reconnect);
  EXPECT_EQ(unknown.worker_id, 3u);
}

TEST(WorkerRegistryTest, AliveRejoinFencesTheOldConnectionFirst) {
  // A worker that reconnects before the supervisor noticed the old
  // connection die: the rejoin itself retires the old generation.
  dist::WorkerRegistry registry;
  auto now = dist::WorkerRegistry::Clock::now();
  auto a = registry.Join(0, 0, now);
  auto re = registry.Join(a.worker_id, a.generation, now);
  EXPECT_TRUE(re.reconnect);
  EXPECT_EQ(re.generation, a.generation + 1);
  EXPECT_FALSE(registry.IsCurrent(a.worker_id, a.generation));
  EXPECT_TRUE(registry.IsCurrent(re.worker_id, re.generation));
}

// --- socket channel ---------------------------------------------------------

class DistNetChannelTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  // Blocks (bounded) until the listener yields a connection.
  int AcceptOne(dist::Listener& listener) {
    for (int spin = 0; spin < 2000; ++spin) {
      int fd = listener.Accept();
      if (fd >= 0) return fd;
      ::usleep(1000);
    }
    return -1;
  }

  // Drains `channel` until one frame is complete or the budget runs out.
  std::optional<dist::Frame> ReadOne(dist::Channel& channel,
                                     dist::FrameReader& reader) {
    for (int spin = 0; spin < 2000; ++spin) {
      if (auto frame = reader.Next()) return frame;
      auto status = channel.DrainInto(&reader);
      if (status == dist::Channel::DrainStatus::kError) return std::nullopt;
      if (status == dist::Channel::DrainStatus::kEof) return reader.Next();
      ::usleep(1000);
    }
    return std::nullopt;
  }
};

TEST_F(DistNetChannelTest, UnixRoundTripBothDirections) {
  std::string path = ScratchDir("uds") + "/s.sock";
  dist::Address addr;
  std::string error;
  ASSERT_TRUE(dist::ParseAddress("unix:" + path, &addr, &error));

  dist::Listener listener;
  ASSERT_EQ(listener.Listen(addr), "");
  EXPECT_EQ(listener.address(), "unix:" + path);

  int client_fd = dist::Dial(addr, 1000.0, &error);
  ASSERT_GE(client_fd, 0) << error;
  dist::Channel client(client_fd);
  int server_fd = AcceptOne(listener);
  ASSERT_GE(server_fd, 0);
  dist::Channel server(server_fd);

  ASSERT_TRUE(client.Send(dist::ShardErrorFrame{"member to supervisor"},
                          dist::FrameType::kShardError));
  dist::FrameReader server_reader;
  auto got = ReadOne(server, server_reader);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, dist::FrameType::kShardError);
  dist::ShardErrorFrame sent;
  ASSERT_TRUE(dist::Decode(got->payload, &sent));
  EXPECT_EQ(sent.message, "member to supervisor");

  ASSERT_TRUE(server.Send(dist::ShutdownFrame{1, "bye"},
                          dist::FrameType::kShutdown));
  dist::FrameReader client_reader;
  auto reply = ReadOne(client, client_reader);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, dist::FrameType::kShutdown);

  // Closing the server surfaces EOF, not an error, on the client.
  server.Close();
  for (int spin = 0; spin < 2000; ++spin) {
    auto status = client.DrainInto(&client_reader);
    if (status == dist::Channel::DrainStatus::kEof) break;
    ASSERT_NE(status, dist::Channel::DrainStatus::kError);
    ::usleep(1000);
  }
}

TEST_F(DistNetChannelTest, TcpPortZeroResolvesAndRoundTrips) {
  dist::Address addr;
  std::string error;
  ASSERT_TRUE(dist::ParseAddress("tcp:127.0.0.1:0", &addr, &error));
  dist::Listener listener;
  ASSERT_EQ(listener.Listen(addr), "");
  // The kernel-assigned port is reflected in the canonical address.
  EXPECT_EQ(listener.address().rfind("tcp:127.0.0.1:", 0), 0u);
  EXPECT_NE(listener.address(), "tcp:127.0.0.1:0");

  dist::Address resolved;
  ASSERT_TRUE(dist::ParseAddress(listener.address(), &resolved, &error));
  int client_fd = dist::Dial(resolved, 1000.0, &error);
  ASSERT_GE(client_fd, 0) << error;
  dist::Channel client(client_fd);
  int server_fd = AcceptOne(listener);
  ASSERT_GE(server_fd, 0);
  dist::Channel server(server_fd);

  ASSERT_TRUE(client.Send(dist::ShardErrorFrame{"over loopback"},
                          dist::FrameType::kShardError));
  dist::FrameReader reader;
  auto got = ReadOne(server, reader);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, dist::FrameType::kShardError);
  dist::ShardErrorFrame sent;
  ASSERT_TRUE(dist::Decode(got->payload, &sent));
  EXPECT_EQ(sent.message, "over loopback");
}

TEST_F(DistNetChannelTest, ShortWritesStillDeliverWholeFrames) {
  std::string path = ScratchDir("short") + "/s.sock";
  dist::Address addr;
  std::string error;
  ASSERT_TRUE(dist::ParseAddress("unix:" + path, &addr, &error));
  dist::Listener listener;
  ASSERT_EQ(listener.Listen(addr), "");
  int client_fd = dist::Dial(addr, 1000.0, &error);
  ASSERT_GE(client_fd, 0) << error;
  dist::Channel client(client_fd);
  dist::Channel server(AcceptOne(listener));

  failpoint::Arm(dist::kFailpointShortWrite, -1);  // 1-byte kernel writes
  dist::ShardErrorFrame payload{"short-write stress payload"};
  ASSERT_TRUE(client.Send(payload, dist::FrameType::kShardError));
  failpoint::DisarmAll();

  dist::FrameReader reader;
  auto got = ReadOne(server, reader);
  ASSERT_TRUE(got.has_value());
  dist::ShardErrorFrame out;
  ASSERT_TRUE(dist::Decode(got->payload, &out));
  EXPECT_EQ(out.message, payload.message);
  EXPECT_FALSE(reader.corrupt());
}

TEST_F(DistNetChannelTest, WriteStallFailsTheChannelNotTheProcess) {
  std::string path = ScratchDir("stall") + "/s.sock";
  dist::Address addr;
  std::string error;
  ASSERT_TRUE(dist::ParseAddress("unix:" + path, &addr, &error));
  dist::Listener listener;
  ASSERT_EQ(listener.Listen(addr), "");
  int client_fd = dist::Dial(addr, 1000.0, &error);
  ASSERT_GE(client_fd, 0) << error;
  dist::Channel client(client_fd, /*write_stall_timeout_ms=*/50.0);

  failpoint::Arm(dist::kFailpointWriteStall, 1);
  EXPECT_FALSE(client.Send(dist::ShardErrorFrame{"stalled"},
                           dist::FrameType::kShardError));
  EXPECT_TRUE(client.write_stalled());
  EXPECT_TRUE(client.failed());
  // Failed channels no-op further sends instead of crashing.
  EXPECT_FALSE(client.Send(dist::ShardErrorFrame{"after the stall"},
                           dist::FrameType::kShardError));
}

// A second listener on a unix path a live listener answers on fails with
// "address in use" and leaves the path alone, so the first listener keeps
// its connections. A listener whose path was replaced after it bound leaves
// the newcomer's socket in place when it closes.
TEST_F(DistNetChannelTest, UnixListenNeverStealsALivePath) {
  const std::string path = ScratchDir("live") + "/s.sock";
  dist::Address addr;
  std::string error;
  ASSERT_TRUE(dist::ParseAddress("unix:" + path, &addr, &error));
  dist::Listener first;
  ASSERT_EQ(first.Listen(addr), "");

  dist::Listener second;
  const std::string second_error = second.Listen(addr);
  EXPECT_NE(second_error.find("address in use"), std::string::npos)
      << second_error;
  EXPECT_FALSE(second.open());
  int fd = dist::Dial(addr, 1000.0, &error);
  ASSERT_GE(fd, 0) << error;
  dist::Channel client(fd);
  int accepted = AcceptOne(first);
  ASSERT_GE(accepted, 0);
  dist::Channel server(accepted);

  // Replace the path behind the first listener's back: its Close must not
  // unlink the third listener's socket.
  ASSERT_EQ(::unlink(path.c_str()), 0);
  dist::Listener third;
  ASSERT_EQ(third.Listen(addr), "");
  first.Close();
  ASSERT_EQ(::access(path.c_str(), F_OK), 0);
  fd = dist::Dial(addr, 1000.0, &error);
  ASSERT_GE(fd, 0) << error;
  dist::Channel late(fd);
  dist::Channel accepted_late(AcceptOne(third));
  EXPECT_GE(accepted_late.fd(), 0);
  third.Close();
  EXPECT_NE(::access(path.c_str(), F_OK), 0);

  // A path the probe cannot reach is not a live listener: bind reports the
  // real error.
  const std::string file = ScratchDir("file") + "/not_a_dir";
  std::ofstream(file) << "x";
  dist::Address beyond_file;
  ASSERT_TRUE(dist::ParseAddress("unix:" + file + "/s.sock", &beyond_file,
                                 &error));
  dist::Listener fourth;
  const std::string fourth_error = fourth.Listen(beyond_file);
  EXPECT_NE(fourth_error.find(std::strerror(ENOTDIR)), std::string::npos)
      << fourth_error;
  EXPECT_EQ(fourth_error.find("address in use"), std::string::npos)
      << fourth_error;
}

TEST_F(DistNetChannelTest, DialFailuresReportNotCrash) {
  dist::Address addr;
  std::string error;
  ASSERT_TRUE(
      dist::ParseAddress("unix:/nonexistent/dir/s.sock", &addr, &error));
  EXPECT_LT(dist::Dial(addr, 200.0, &error), 0);
  EXPECT_NE(error, "");

  // The injected connection-refused fault fires before any syscall.
  ASSERT_TRUE(dist::ParseAddress("tcp:127.0.0.1:1", &addr, &error));
  failpoint::Arm(dist::kFailpointConnectRefused, 1);
  EXPECT_LT(dist::Dial(addr, 200.0, &error), 0);
  EXPECT_NE(error.find("refused"), std::string::npos) << error;
}

TEST_F(DistNetChannelTest, UnixDialWaitsForBacklogRoom) {
  std::string path = ScratchDir("backlog") + "/s.sock";
  dist::Address addr;
  std::string error;
  ASSERT_TRUE(dist::ParseAddress("unix:" + path, &addr, &error));
  dist::Listener listener;
  ASSERT_EQ(listener.Listen(addr), "");
  // Nothing accepts, so dials succeed until the backlog is full.
  std::vector<std::unique_ptr<dist::Channel>> queued;
  for (int i = 0; i < 1000; ++i) {
    const int fd = dist::Dial(addr, 20.0, &error);
    if (fd < 0) break;
    queued.push_back(std::make_unique<dist::Channel>(fd));
  }
  ASSERT_LT(queued.size(), 1000u);
  // A blocking connect waits for room in the backlog, and so must Dial.
  std::thread acceptor([&] {
    ::usleep(100 * 1000);
    dist::Channel accepted(AcceptOne(listener));
  });
  const int fd = dist::Dial(addr, 5000.0, &error);
  acceptor.join();
  ASSERT_GE(fd, 0) << error;
  dist::Channel late(fd);
}

GraphDatabase NetDb(uint64_t seed = 31, size_t n = 36) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = n;
  gen.min_vertices = 8;
  gen.max_vertices = 14;
  gen.seed = seed;
  return GenerateMoleculeDatabase(gen);
}

// --- member session over a socketpair ---------------------------------------

// Plays the supervisor for one RunLocalWorker session over a socketpair:
// admits the member, sends `assign`, then answers the member's completion
// (if any) with an orderly shutdown. Returns the member's exit code.
int DriveLocalMember(const GraphDatabase& db, dist::ShardAssignFrame assign) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1;
  int code = -1;
  std::thread member([&] {
    code = dist::RunLocalWorker(db, dist::RemoteWorkerOptions{}, fds[1]);
  });
  {
    dist::Channel sup(fds[0]);
    dist::FrameReader reader;
    bool shutdown_sent = false;
    for (int spin = 0; spin < 20000 && !shutdown_sent; ++spin) {
      dist::Channel::DrainStatus status = sup.DrainInto(&reader);
      while (std::optional<dist::Frame> frame = reader.Next()) {
        if (frame->type == dist::FrameType::kJoinRequest) {
          sup.Send(dist::JoinAcceptFrame{1, 1, 50.0, 1000.0},
                   dist::FrameType::kJoinAccept);
          sup.Send(assign, dist::FrameType::kShardAssign);
        } else if (frame->type == dist::FrameType::kShardDone) {
          sup.Send(dist::ShutdownFrame{static_cast<uint32_t>(
                                           dist::ShutdownCode::kDone),
                                       "done"},
                   dist::FrameType::kShutdown);
          shutdown_sent = true;
        }
      }
      if (status != dist::Channel::DrainStatus::kOk) break;  // member gone
      ::usleep(1000);
    }
  }  // closing the supervisor end ends any session still running
  member.join();
  return code;
}

// Every sharded run reaches CarryShard, so a hand-built assignment whose
// cluster index or member id does not address the database, or whose fine
// clustering would split below 2 graphs, must end the member with the
// protocol exit code — not a 2^63-entry allocation, not a CHECK failure
// inside the pipeline.
TEST(DistNetMemberTest, HostileAssignExitsWithProtocolCode) {
  GraphDatabase db = NetDb();
  dist::ShardAssignFrame assign;
  assign.fine_max_cluster_size = 10;
  assign.mcs_node_budget = 3000;
  dist::ClusterWork work;
  work.members = {0, 1, 2, 3};
  work.stream = RngState{{1, 2, 3, 4}};
  assign.clusters = {work};
  // Control: the same harness carries a sane assignment to completion.
  EXPECT_EQ(DriveLocalMember(db, assign), 0);

  assign.clusters[0].index = uint64_t{1} << 63;
  EXPECT_EQ(DriveLocalMember(db, assign), dist::kWorkerExitProtocol);

  assign.clusters[0].index = db.size();
  EXPECT_EQ(DriveLocalMember(db, assign), dist::kWorkerExitProtocol);

  assign.clusters[0].index = 0;
  assign.clusters[0].members.push_back(static_cast<GraphId>(db.size()));
  EXPECT_EQ(DriveLocalMember(db, assign), dist::kWorkerExitProtocol);

  assign.clusters[0].members.pop_back();
  assign.fine_max_cluster_size = 1;
  EXPECT_EQ(DriveLocalMember(db, assign), dist::kWorkerExitProtocol);
}

// A supervisor that hangs up with the member's heartbeats unread makes the
// member's next read a reset, not an end of stream. The Shutdown sent just
// before must still end the session in order, not as a lost connection.
TEST(DistNetMemberTest, ShutdownBeforeAResetEndsTheSessionInOrder) {
  GraphDatabase db = NetDb();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    ::_exit(dist::RunLocalWorker(db, dist::RemoteWorkerOptions{}, fds[1]));
  }
  ::close(fds[1]);
  dist::Channel sup(fds[0]);
  dist::FrameReader reader;
  dist::Frame join;
  ASSERT_EQ(dist::WaitFrame(sup, reader, 5000.0, &join),
            dist::WaitStatus::kFrame);
  ASSERT_EQ(join.type, dist::FrameType::kJoinRequest);
  ASSERT_TRUE(sup.Send(dist::JoinAcceptFrame{1, 1, 5.0, 1000.0},
                       dist::FrameType::kJoinAccept));
  // Heartbeats pile up unread; then the member is frozen so that the
  // Shutdown and the hang-up both land before it reads again.
  pollfd beat{sup.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&beat, 1, 5000), 1);
  int status = 0;
  ASSERT_EQ(::kill(pid, SIGSTOP), 0);
  ASSERT_EQ(::waitpid(pid, &status, WUNTRACED), pid);
  ASSERT_TRUE(sup.Send(
      dist::ShutdownFrame{static_cast<uint32_t>(dist::ShutdownCode::kDone),
                          "done"},
      dist::FrameType::kShutdown));
  sup.Close();
  ASSERT_EQ(::kill(pid, SIGCONT), 0);
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// --- end-to-end: remote fleet chaos matrix ----------------------------------

CatapultOptions NetBaseOptions() {
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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

std::string EncodeCsgBytes(const ClusterSummaryGraph& csg) {
  persist::BinaryWriter w;
  persist::EncodeCsg(csg, w);
  return w.TakeBuffer();
}

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
  }
}

bool HasEvent(const std::vector<dist::ShardEvent>& events,
              dist::ShardEvent::Kind kind) {
  for (const dist::ShardEvent& e : events) {
    if (e.kind == kind) return true;
  }
  return false;
}

// The durable artifacts are the strongest identity witness: the fleet
// run's checkpoints must be byte-identical to the in-process run's.
void ExpectSameCheckpoints(const std::string& expected_dir,
                           const std::string& actual_dir) {
  for (persist::RecordType type :
       {persist::RecordType::kClustering, persist::RecordType::kCsgs,
        persist::RecordType::kSelection}) {
    std::string expected_bytes = ReadFileBytes(
        expected_dir + "/" + CheckpointStore::FileNameFor(type));
    std::string actual_bytes =
        ReadFileBytes(actual_dir + "/" + CheckpointStore::FileNameFor(type));
    ASSERT_FALSE(expected_bytes.empty());
    EXPECT_EQ(expected_bytes, actual_bytes)
        << "checkpoint " << CheckpointStore::FileNameFor(type);
  }
}

// Every process the test forked has been reaped: none is left behind.
void ExpectNoChildLeft() {
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

class DistNetFleetTest : public DistNetChannelTest {
 protected:
  void SetUp() override {
    db_ = NetDb();
    base_ = NetBaseOptions();
    expected_ = RunCatapult(db_, base_);
    ASSERT_TRUE(expected_.ok());
    fingerprint_ = ConfigFingerprint(base_, db_);
  }

  void TearDown() override {
    for (pid_t pid : workers_) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    workers_.clear();
    DistNetChannelTest::TearDown();
  }

  // Sharded-over-sockets variant of base_ with test-friendly timings.
  CatapultOptions FleetOptions(size_t processes) {
    CatapultOptions options = base_;
    options.processes = processes;
    options.shard_backoff_base_ms = 5.0;
    options.shard_backoff_cap_ms = 40.0;
    return options;
  }

  dist::RemoteWorkerOptions WorkerOpts(const std::string& address) {
    dist::RemoteWorkerOptions w;
    w.address = address;
    w.fingerprint = fingerprint_;
    w.dial_backoff_base_ms = 5.0;
    w.dial_backoff_cap_ms = 100.0;
    // Generous: the supervisor only starts listening once the coarse
    // clustering phase finishes, and workers are forked before the run.
    w.max_dial_attempts = 200;
    return w;
  }

  // Forks a process running `body`. The child starts with no failpoint
  // armed (fork inherits the parent's tables) and must _exit: no gtest
  // teardown, no atexit handlers in the child.
  pid_t SpawnProcess(const std::function<int()>& body) {
    pid_t pid = ::fork();
    if (pid == 0) {
      failpoint::DisarmAll();
      ::_exit(body());
    }
    workers_.push_back(pid);
    return pid;
  }

  // Forks a remote worker that arms its own failpoints first.
  pid_t SpawnWorker(const dist::RemoteWorkerOptions& opts,
                    std::function<void()> arm = nullptr) {
    return SpawnProcess([&] {
      if (arm) arm();
      return dist::RunRemoteWorker(db_, opts);
    });
  }

  int WaitWorker(pid_t pid) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    workers_.erase(std::find(workers_.begin(), workers_.end(), pid));
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

  GraphDatabase db_;
  CatapultOptions base_;
  CatapultResult expected_;
  uint64_t fingerprint_ = 0;
  std::vector<pid_t> workers_;
};

TEST_F(DistNetFleetTest, UnixSocketRunMatchesInProcessDownToCheckpoints) {
  std::string dir = ScratchDir("uds");
  std::string dir_classic = ScratchDir("uds_classic");

  CatapultOptions classic = base_;
  classic.checkpoint_dir = dir_classic;
  CatapultResult expected = RunCatapult(db_, classic);
  ASSERT_TRUE(expected.ok());

  // The supervisor binds the socket itself here (the Listen path); the
  // workers ride out the connect-refused window under dial backoff.
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  options.checkpoint_dir = dir + "/ckpt";
  std::filesystem::create_directories(options.checkpoint_dir);
  pid_t w1 = SpawnWorker(WorkerOpts(options.dist_listen));
  pid_t w2 = SpawnWorker(WorkerOpts(options.dist_listen));

  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(w1), 0);
  EXPECT_EQ(WaitWorker(w2), 0);
  ExpectSameResult(expected, actual);

  const dist::DistReport& d = actual.execution.dist;
  EXPECT_TRUE(d.remote);
  EXPECT_EQ(d.listen_address, options.dist_listen);
  EXPECT_GE(d.workers_joined, 1u);
  EXPECT_GT(d.remote_clusters, 0u);
  EXPECT_EQ(d.fleet_lost_fallbacks, 0u);
  EXPECT_FALSE(d.remote_fallback_only);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerJoined));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kShardAssigned));
  EXPECT_EQ(d.workers_spawned, 0u);  // a dialing fleet forks nothing
  ExpectSameCheckpoints(dir_classic, options.checkpoint_dir);
}

// Unix-socket and TCP fleets at processes {2, 4} x threads {1, 4}: remote
// members obey the supervisor's thread count, and every combination
// reproduces the single-thread in-process run down to the checkpoints.
TEST_F(DistNetFleetTest, FleetMatrixMatchesInProcessDownToCheckpoints) {
  CatapultOptions classic = base_;
  classic.threads = 1;
  classic.checkpoint_dir = ScratchDir("classic");
  CatapultResult expected = RunCatapult(db_, classic);
  ASSERT_TRUE(expected.ok());
  for (bool tcp : {false, true}) {
    for (size_t processes : {2, 4}) {
      for (size_t threads : {1, 4}) {
        const std::string tag = std::string(tcp ? "tcp" : "uds") + "_p" +
                                std::to_string(processes) + "_t" +
                                std::to_string(threads);
        SCOPED_TRACE(tag);
        std::string dir = ScratchDir(tag);
        CatapultOptions options = FleetOptions(processes);
        options.threads = threads;
        options.checkpoint_dir = dir + "/ckpt";
        dist::Listener listener;
        std::string address = "unix:" + dir + "/sup.sock";
        if (tcp) {
          dist::Address addr;
          std::string error;
          ASSERT_TRUE(dist::ParseAddress("tcp:127.0.0.1:0", &addr, &error));
          ASSERT_EQ(listener.Listen(addr), "");
          options.dist_listen_fd = listener.fd();
          address = listener.address();
        } else {
          options.dist_listen = address;
        }
        pid_t w1 = SpawnWorker(WorkerOpts(address));
        pid_t w2 = SpawnWorker(WorkerOpts(address));
        CatapultResult actual = RunCatapult(db_, options);
        ASSERT_TRUE(actual.ok());
        EXPECT_EQ(WaitWorker(w1), 0);
        EXPECT_EQ(WaitWorker(w2), 0);
        ExpectSameResult(expected, actual);
        ExpectSameCheckpoints(classic.checkpoint_dir, options.checkpoint_dir);
        EXPECT_TRUE(actual.execution.dist.remote);
        EXPECT_EQ(actual.execution.dist.shard_retries, 0u);
      }
    }
  }
}

TEST_F(DistNetFleetTest, TcpLoopbackRunMatchesInProcess) {
  // Tests bind port 0 themselves to learn the real address, then hand the
  // listening fd to the supervisor (the Adopt path).
  dist::Address addr;
  std::string error;
  ASSERT_TRUE(dist::ParseAddress("tcp:127.0.0.1:0", &addr, &error));
  dist::Listener listener;
  ASSERT_EQ(listener.Listen(addr), "");

  CatapultOptions options = FleetOptions(2);
  options.dist_listen_fd = listener.fd();
  pid_t w1 = SpawnWorker(WorkerOpts(listener.address()));
  pid_t w2 = SpawnWorker(WorkerOpts(listener.address()));

  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(w1), 0);
  EXPECT_EQ(WaitWorker(w2), 0);
  ExpectSameResult(expected_, actual);
  EXPECT_TRUE(actual.execution.dist.remote);
  EXPECT_GT(actual.execution.dist.remote_clusters, 0u);
}

TEST_F(DistNetFleetTest, ConnectionRefusedRetriesUnderBackoff) {
  std::string dir = ScratchDir("refused");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  // The worker's first three dials fail before any syscall; the capped
  // backoff schedule carries it to a successful join.
  pid_t w = SpawnWorker(WorkerOpts(options.dist_listen), [] {
    failpoint::Arm(dist::kFailpointConnectRefused, 3);
  });
  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(w), 0);
  ExpectSameResult(expected_, actual);
  EXPECT_GE(actual.execution.dist.workers_joined, 1u);
  EXPECT_GT(actual.execution.dist.remote_clusters, 0u);
}

TEST_F(DistNetFleetTest, ShortWritesEverywhereStayBitIdentical) {
  std::string dir = ScratchDir("short");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  // Every worker-side send dribbles one byte per syscall: framing must
  // reassemble regardless of kernel write chunking.
  pid_t w = SpawnWorker(WorkerOpts(options.dist_listen), [] {
    failpoint::Arm(dist::kFailpointShortWrite, -1);
  });
  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(w), 0);
  ExpectSameResult(expected_, actual);
  EXPECT_GT(actual.execution.dist.remote_clusters, 0u);
}

TEST_F(DistNetFleetTest, MidFrameDropFencesAndReassigns) {
  std::string dir = ScratchDir("drop");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  // The worker truncates its first result frame halfway and drops the
  // connection — the classic mid-write death. The supervisor must fence
  // the connection (truncated frame = dead peer, not corruption), requeue
  // the shard, and accept the worker's rejoin at a bumped generation.
  pid_t w = SpawnWorker(WorkerOpts(options.dist_listen), [] {
    failpoint::Arm(dist::kFailpointDropMidFrame, 1);
  });
  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(w), 0);
  ExpectSameResult(expected_, actual);
  const dist::DistReport& d = actual.execution.dist;
  EXPECT_GE(d.reconnects, 1u);
  EXPECT_GE(d.worker_deaths, 1u);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerFenced));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerReconnected));
}

TEST_F(DistNetFleetTest, DuplicatedDeliveryIsCountedAndIgnored) {
  std::string dir = ScratchDir("dup");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  // Every cluster result is sent twice (at-least-once delivery); the
  // supervisor must apply each exactly once.
  pid_t w = SpawnWorker(WorkerOpts(options.dist_listen), [] {
    failpoint::Arm(dist::kFailpointDupClusterResult, -1);
  });
  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(w), 0);
  ExpectSameResult(expected_, actual);
  EXPECT_GE(actual.execution.dist.duplicate_clusters, 1u);
}

// --- cross-process trace propagation (DESIGN.md §16) ------------------------

// Counts non-overlapping occurrences of `needle` in `hay`.
size_t CountOccurrences(const std::string& hay, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// The merge invariant every chaos variant below re-asserts: each shard's
// worker spans appear AT MOST once in the merged trace (duplicated or
// fenced deliveries never double-merge), merged shards sit on their own
// named process track under a supervisor-side shard span, and at least
// `min_merged_shards` shards contributed a tree. A shard whose span buffer
// died with a SIGKILLed worker before shipping is legitimately absent —
// lost, not duplicated.
void ExpectMergedTraceInvariants(const obs::Tracer& tracer, size_t shards,
                                 size_t min_merged_shards) {
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"traceId\""), std::string::npos);
  size_t merged_shards = 0;
  for (size_t s = 0; s < shards; ++s) {
    const std::string tag = std::to_string(s);
    const size_t sup =
        CountOccurrences(json, "\"name\":\"dist.shard-" + tag + "\"");
    const size_t roots =
        CountOccurrences(json, "\"name\":\"worker.shard-" + tag + "\"");
    EXPECT_LE(sup, 1u) << json.substr(0, 2000);
    EXPECT_LE(roots, 1u) << json.substr(0, 2000);
    // A merged shard has both halves and a named process track; an unmerged
    // shard has neither (no orphaned supervisor spans either way).
    EXPECT_EQ(sup, roots) << "shard " << s;
    EXPECT_EQ(CountOccurrences(json, "\"catapult shard " + tag + "\""), roots);
    merged_shards += roots;
  }
  EXPECT_GE(merged_shards, min_merged_shards);
}

TEST_F(DistNetFleetTest, RemoteFleetMergesWorkerSpansIntoOneTrace) {
  std::string dir = ScratchDir("trace");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  pid_t w1 = SpawnWorker(WorkerOpts(options.dist_listen));
  pid_t w2 = SpawnWorker(WorkerOpts(options.dist_listen));

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  RunContext ctx = RunContext::NoLimit().WithObservability(&registry, &tracer);
  CatapultResult actual = RunCatapult(db_, options, ctx);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(w1), 0);
  EXPECT_EQ(WaitWorker(w2), 0);
  ExpectSameResult(expected_, actual);  // tracing changes nothing

  ASSERT_GT(actual.execution.dist.shards, 0u);
  ExpectMergedTraceInvariants(tracer, actual.execution.dist.shards,
                              actual.execution.dist.shards);
  EXPECT_NE(tracer.trace_id(), 0u);
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.counter(obs::Counter::kObsSpansMerged), 0u);
  EXPECT_EQ(snap.counter(obs::Counter::kObsSpansDropped), 0u);
}

TEST_F(DistNetFleetTest, DuplicatedShardDoneMergesSpansExactlyOnce) {
  std::string dir = ScratchDir("dupdone");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  // Every shard-completion frame is delivered twice; the supervisor must
  // merge each shard's span buffer exactly once.
  pid_t w = SpawnWorker(WorkerOpts(options.dist_listen), [] {
    failpoint::Arm(dist::kFailpointDupShardDone, -1);
    failpoint::Arm(dist::kFailpointDupClusterResult, -1);
  });
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  RunContext ctx = RunContext::NoLimit().WithObservability(&registry, &tracer);
  CatapultResult actual = RunCatapult(db_, options, ctx);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(w), 0);
  ExpectSameResult(expected_, actual);
  ExpectMergedTraceInvariants(tracer, actual.execution.dist.shards,
                              actual.execution.dist.shards);
}

TEST_F(DistNetFleetTest, SigkilledWorkerRetryLeavesNoDuplicateSpans) {
  std::string dir = ScratchDir("killtrace");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  // The victim dies mid-shard (its span buffer dies with it, never
  // shipped); the survivor recarries the shard and ships its own buffer.
  // The merged trace must hold exactly one span tree per shard — no
  // orphans from the dead attempt, no duplicates from the retry.
  pid_t victim = SpawnWorker(WorkerOpts(options.dist_listen), [] {
    failpoint::Arm(dist::kFailpointKillAfterFirstResult, 1);
  });
  pid_t survivor = SpawnWorker(WorkerOpts(options.dist_listen));
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  RunContext ctx = RunContext::NoLimit().WithObservability(&registry, &tracer);
  CatapultResult actual = RunCatapult(db_, options, ctx);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(victim), 128 + SIGKILL);
  EXPECT_EQ(WaitWorker(survivor), 0);
  ExpectNoChildLeft();
  ExpectSameResult(expected_, actual);
  EXPECT_GE(actual.execution.dist.worker_deaths, 1u);
  ExpectMergedTraceInvariants(tracer, actual.execution.dist.shards,
                              /*min_merged_shards=*/1);
}

TEST_F(DistNetFleetTest, FencedZombieFramesNeverPolluteTheTrace) {
  std::string dir = ScratchDir("zombietrace");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  options.shard_heartbeat_timeout_ms = 250.0;
  options.shard_backoff_base_ms = 500.0;
  options.shard_backoff_cap_ms = 2000.0;
  // Same zombie arrangement as the fencing test above, now with tracing:
  // the zombie's late frames arrive from a retired generation and must be
  // discarded before they can inject spans; the rejoined worker's second
  // attempt supplies the shard's single span tree.
  dist::RemoteWorkerOptions wopts = WorkerOpts(options.dist_listen);
  wopts.stall_test_ms = 1500.0;
  pid_t w = SpawnWorker(wopts, [] {
    failpoint::Arm(dist::kFailpointDelayHeartbeat, 1);
    failpoint::Arm(dist::kFailpointStallBeforeResult, 1);
  });
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  RunContext ctx = RunContext::NoLimit().WithObservability(&registry, &tracer);
  CatapultResult actual = RunCatapult(db_, options, ctx);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(w), 0);
  ExpectSameResult(expected_, actual);
  EXPECT_GE(actual.execution.dist.fenced_frames, 1u);
  ExpectMergedTraceInvariants(tracer, actual.execution.dist.shards,
                              actual.execution.dist.shards);
}

TEST_F(DistNetFleetTest, SigkilledWorkerShardReassignedToSurvivor) {
  std::string dir = ScratchDir("kill");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  // Worker A dies by SIGKILL right after shipping its first cluster
  // result; worker B must absorb the orphaned shard — resuming from the
  // already-persisted cluster, not recomputing it.
  pid_t victim = SpawnWorker(WorkerOpts(options.dist_listen), [] {
    failpoint::Arm(dist::kFailpointKillAfterFirstResult, 1);
  });
  pid_t survivor = SpawnWorker(WorkerOpts(options.dist_listen));
  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(victim), 128 + SIGKILL);
  EXPECT_EQ(WaitWorker(survivor), 0);
  ExpectNoChildLeft();
  ExpectSameResult(expected_, actual);
  const dist::DistReport& d = actual.execution.dist;
  EXPECT_GE(d.worker_deaths, 1u);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerFenced));
  EXPECT_EQ(d.fleet_lost_fallbacks, 0u);
}

TEST_F(DistNetFleetTest, HeartbeatStalledZombieIsFencedFramesDiscarded) {
  std::string dir = ScratchDir("zombie");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  options.shard_heartbeat_timeout_ms = 250.0;
  // Shard retries must wait long enough for the zombie's late frames to
  // arrive while the supervisor is still running.
  options.shard_backoff_base_ms = 500.0;
  options.shard_backoff_cap_ms = 2000.0;
  // The worker's heartbeat thread oversleeps 2.5x the timeout while the
  // main thread stalls 1.5s before shipping its first result: by then the
  // supervisor has fenced the connection, so the result arrives from a
  // retired generation — counted, never applied — and the worker rejoins.
  dist::RemoteWorkerOptions wopts = WorkerOpts(options.dist_listen);
  wopts.stall_test_ms = 1500.0;
  pid_t w = SpawnWorker(wopts, [] {
    failpoint::Arm(dist::kFailpointDelayHeartbeat, 1);
    failpoint::Arm(dist::kFailpointStallBeforeResult, 1);
  });
  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(w), 0);
  ExpectNoChildLeft();
  ExpectSameResult(expected_, actual);
  const dist::DistReport& d = actual.execution.dist;
  EXPECT_GE(d.worker_hangs, 1u);
  EXPECT_GE(d.fenced_frames, 1u);
  EXPECT_GE(d.reconnects, 1u);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerFenced));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kWorkerReconnected));
}

TEST_F(DistNetFleetTest, FleetNeverFormsFallsBackInProcess) {
  std::string dir = ScratchDir("lost");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  options.dist_join_timeout_ms = 300.0;  // don't wait the default 10s
  // No worker ever dials: the run must complete via the in-process
  // fallback ladder, bit-identical, and flag itself for the CLI's exit 7.
  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  ExpectSameResult(expected_, actual);
  const dist::DistReport& d = actual.execution.dist;
  EXPECT_GT(d.fleet_lost_fallbacks, 0u);
  EXPECT_EQ(d.remote_clusters, 0u);
  EXPECT_TRUE(d.remote_fallback_only);
  EXPECT_EQ(d.inprocess_fallbacks, d.shards);
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kFleetLost));
  EXPECT_TRUE(HasEvent(d.events, dist::ShardEvent::Kind::kInProcessFallback));
}

TEST_F(DistNetFleetTest, UndecodableShardErrorFencesTheMember) {
  std::string dir = ScratchDir("badsharderror");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  options.dist_join_timeout_ms = 300.0;
  // A hand-rolled member joins properly, then answers its assignment with
  // a ShardError frame whose CRC is valid but whose payload does not
  // decode. It stays connected until told to go, so only the poisoned
  // stream — not a hangup or a missed heartbeat — can fence it.
  pid_t fake = SpawnProcess([&] {
    dist::Address addr;
    std::string error;
    dist::ParseAddress(options.dist_listen, &addr, &error);
    int fd = -1;
    for (int i = 0; i < 2000 && fd < 0; ++i) {
      fd = dist::Dial(addr, 200.0, &error);
      if (fd < 0) ::usleep(5000);
    }
    if (fd < 0) return 2;
    dist::Channel channel(fd);
    dist::JoinRequestFrame join;
    join.fingerprint = fingerprint_;
    channel.Send(join, dist::FrameType::kJoinRequest);
    dist::FrameReader reader;
    for (int spin = 0; spin < 20000; ++spin) {
      dist::Channel::DrainStatus status = channel.DrainInto(&reader);
      while (std::optional<dist::Frame> frame = reader.Next()) {
        if (frame->type == dist::FrameType::kShardAssign) {
          channel.SendEncoded(
              dist::EncodeFrame(dist::FrameType::kShardError, "\x01"));
        } else if (frame->type == dist::FrameType::kShutdown) {
          return 0;
        }
      }
      if (status != dist::Channel::DrainStatus::kOk) return 3;
      ::usleep(1000);
    }
    return 4;
  });
  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(WaitWorker(fake), 0);
  ExpectSameResult(expected_, actual);
  bool poisoned = false;
  for (const dist::ShardEvent& e : actual.execution.dist.events) {
    if (e.kind == dist::ShardEvent::Kind::kWorkerFenced &&
        e.detail.find("bad shard-error") != std::string::npos) {
      poisoned = true;
    }
  }
  EXPECT_TRUE(poisoned);
}

TEST_F(DistNetFleetTest, HandshakeMismatchesRejectedWithTypedCodes) {
  std::string dir = ScratchDir("reject");
  CatapultOptions options = FleetOptions(2);
  options.dist_listen = "unix:" + dir + "/sup.sock";
  options.dist_join_timeout_ms = 2000.0;

  // A member of the previous protocol (v3) and one built for another
  // database.
  dist::RemoteWorkerOptions skewed_build = WorkerOpts(options.dist_listen);
  skewed_build.protocol = 3;
  dist::RemoteWorkerOptions wrong_db = WorkerOpts(options.dist_listen);
  wrong_db.fingerprint = fingerprint_ ^ 0xdeadbeef;

  pid_t p1 = SpawnWorker(skewed_build);
  pid_t p2 = SpawnWorker(wrong_db);
  CatapultResult actual = RunCatapult(db_, options);
  ASSERT_TRUE(actual.ok());
  // Rejected workers exit with the dedicated handshake-refused code.
  EXPECT_EQ(WaitWorker(p1), dist::kWorkerExitRejected);
  EXPECT_EQ(WaitWorker(p2), dist::kWorkerExitRejected);
  // A fleet of misfits is no fleet at all: the run still completes
  // bit-identically via the fallback ladder.
  ExpectSameResult(expected_, actual);
  const dist::DistReport& d = actual.execution.dist;
  EXPECT_EQ(d.workers_rejected, 2u);
  EXPECT_EQ(d.workers_joined, 0u);
  EXPECT_TRUE(d.remote_fallback_only);
  // Each refusal names its typed reason.
  std::vector<std::string> reasons;
  for (const dist::ShardEvent& e : d.events) {
    if (e.kind == dist::ShardEvent::Kind::kWorkerRejected) {
      reasons.push_back(e.detail);
    }
  }
  ASSERT_EQ(reasons.size(), 2u);
  const std::string skew =
      "protocol 3 != " + std::to_string(dist::kDistProtocolVersion);
  size_t protocol = 0, fingerprint = 0;
  for (const std::string& r : reasons) {
    if (r.find(skew) != std::string::npos) ++protocol;
    if (r.find("fingerprint mismatch") != std::string::npos) ++fingerprint;
  }
  EXPECT_EQ(protocol, 1u);
  EXPECT_EQ(fingerprint, 1u);
}

TEST_F(DistNetFleetTest, WorkerExhaustsDialBudgetWithDistinctExitCode) {
  dist::RemoteWorkerOptions opts =
      WorkerOpts("unix:" + ScratchDir("nobody") + "/never.sock");
  opts.max_dial_attempts = 3;
  pid_t w = SpawnWorker(opts);
  EXPECT_EQ(WaitWorker(w), dist::kWorkerExitConnectFailed);
}

TEST_F(DistNetFleetTest, ListenOptionsValidated) {
  CatapultOptions options = base_;
  options.dist_listen = "unix:/tmp/x.sock";  // but processes == 1
  CatapultResult result = RunCatapult(db_, options);
  ASSERT_FALSE(result.ok());
  ASSERT_FALSE(result.option_errors.empty());
  EXPECT_EQ(result.option_errors[0].field, "dist_listen");

  CatapultOptions both = FleetOptions(2);
  both.dist_listen = "unix:/tmp/x.sock";
  both.dist_listen_fd = 7;  // mutually exclusive
  EXPECT_FALSE(RunCatapult(db_, both).ok());

  CatapultOptions bad_addr = FleetOptions(2);
  bad_addr.dist_listen = "carrier-pigeon:coop7";
  CatapultResult unparsed = RunCatapult(db_, bad_addr);
  // An unparseable address cannot be validated structurally (the listener
  // reports it), but the run must degrade to fallback, not crash.
  if (unparsed.ok()) {
    EXPECT_TRUE(unparsed.execution.dist.remote_fallback_only);
  }
}

}  // namespace
}  // namespace catapult
