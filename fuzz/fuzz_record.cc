// libFuzzer target for the checkpoint decode path (src/persist).
//
// Exercises both layers that consume untrusted checkpoint bytes on --resume:
//   1. DecodeRecordBytes — the CATCKPT1 framing (magic, header CRC, version,
//      type, fingerprint, size, payload CRC);
//   2. the payload decoders (DecodeClusteringPayload / DecodeCsgPayload /
//      DecodeSelectionPayload, and the sharded phase's
//      DecodeShardResultPayload, which also reads the payload of every
//      member's ClusterResult frame), which must reject ANY byte string with
//      a reason string — never a crash, CATAPULT_CHECK, or out-of-bounds
//      read (BinaryReader's sticky-fail contract).
//
// The first input byte steers which decoder sees the remainder, so one
// corpus covers all five consumers.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dist/worker.h"
#include "src/graph/graph_database.h"
#include "src/persist/checkpoint.h"
#include "src/persist/record_io.h"

namespace {

// A small fixed database for the semantic cross-checks of the payload
// decoders (support universes, cluster partitions). Built once; the fuzz
// input never mutates it.
const catapult::GraphDatabase& FixedDb() {
  static const catapult::GraphDatabase* db = [] {
    auto* d = new catapult::GraphDatabase();
    for (int i = 0; i < 4; ++i) {
      catapult::Graph g;
      catapult::VertexId a = g.AddVertex(0);
      catapult::VertexId b = g.AddVertex(1);
      catapult::VertexId c = g.AddVertex(i % 2);
      g.AddEdge(a, b);
      g.AddEdge(b, c);
      d->Add(std::move(g));
    }
    return d;
  }();
  return *db;
}

const std::vector<std::vector<catapult::GraphId>>& FixedClusters() {
  static const std::vector<std::vector<catapult::GraphId>> clusters = {
      {0, 2}, {1, 3}};
  return clusters;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  uint8_t selector = data[0];
  std::string bytes(reinterpret_cast<const char*>(data + 1), size - 1);

  switch (selector % 5) {
    case 0: {
      std::string payload;
      uint32_t crc = 0;
      (void)catapult::persist::DecodeRecordBytes(
          bytes, catapult::persist::RecordType::kClustering, 0x1234, &payload,
          &crc);
      break;
    }
    case 1: {
      catapult::ClusteringArtifact artifact;
      (void)catapult::DecodeClusteringPayload(bytes, FixedDb(), &artifact);
      break;
    }
    case 2: {
      catapult::CsgArtifact artifact;
      (void)catapult::DecodeCsgPayload(bytes, FixedClusters(), &artifact);
      break;
    }
    case 3: {
      catapult::PatternBudget budget;
      budget.eta_min = 2;
      budget.eta_max = 5;
      budget.gamma = 8;
      catapult::SelectorCheckpointState state;
      (void)catapult::DecodeSelectionPayload(bytes, FixedClusters(), budget,
                                             &state);
      break;
    }
    case 4: {
      // Coarse cluster 1 of the fixed partition, as the supervisor binds a
      // member's result to the cluster it assigned.
      catapult::dist::ShardClusterResult result;
      (void)catapult::dist::DecodeShardResultPayload(
          bytes, 1, FixedClusters()[1], &result);
      break;
    }
  }
  return 0;
}

#include "fuzz/standalone_main.h"
