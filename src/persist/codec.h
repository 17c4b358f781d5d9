#ifndef CATAPULT_PERSIST_CODEC_H_
#define CATAPULT_PERSIST_CODEC_H_

#include "src/core/selector.h"
#include "src/csg/csg.h"
#include "src/graph/graph.h"
#include "src/mining/subtree_miner.h"
#include "src/persist/fields.h"
#include "src/util/rng.h"

// Field lists of the domain objects every durable artifact carries (an rng
// state's is in src/util/rng.h): the phase checkpoints (checkpoint.h), the
// sharded phase's per-cluster results (src/dist/worker.h) and the service's
// panels (src/serve/protocol.h).
// Keeping one codec means a CSG checkpointed by a worker process is byte-
// identical to the same CSG checkpointed by an in-process run, which is
// what lets the chaos suite assert recovery down to checkpoint bytes.
//
// Graph and ClusterSummaryGraph are the two types without a field list:
// their decoders rebuild them through the validating constructors (an edge
// must name two distinct vertices and not repeat; a summary's supports must
// span its cluster, ClusterSummaryGraph::FromParts), so each has one writer
// and one reader. The writer's layout is a Graph's u64 vertex count, each
// vertex's u32 label and the edge list of Edge; a summary's u64 cluster size,
// its u64 vertex count, each vertex's u32 label and support bitset, and its
// list of CsgEdge.

namespace catapult::persist {

void Fields(FieldWriter& io, Graph& g);
void Fields(FieldReader& io, Graph& g);
void Fields(FieldWriter& io, ClusterSummaryGraph& csg);
void Fields(FieldReader& io, ClusterSummaryGraph& csg);

template <class Io>
void Fields(Io& io, Edge& e) {
  io(e.u, e.v, e.label);
}

template <class Io>
void Fields(Io& io, ClusterSummaryGraph::CsgEdge& e) {
  io(e.u, e.v, e.support);
}

template <class Io>
void Fields(Io& io, FrequentSubtree& feature) {
  io(feature.tree, feature.canonical, feature.support, feature.frequency);
}

template <class Io>
void Fields(Io& io, SelectedPattern& p) {
  io(p.graph, p.score, p.ccov, p.lcov, p.div, p.cog, p.source_csg,
     p.fallback);
}

}  // namespace catapult::persist

#endif  // CATAPULT_PERSIST_CODEC_H_
