#ifndef CATAPULT_ISO_MCS_H_
#define CATAPULT_ISO_MCS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace catapult {

// Options for maximum (connected) common subgraph search.
struct McsOptions {
  // If true, computes the maximum connected common subgraph (MCCS); if
  // false, pieces of the common subgraph may be disconnected (MCS).
  bool connected = true;

  // If true, edge labels must match in addition to vertex labels.
  bool match_edge_labels = false;

  // Backtracking-node budget (0 = unlimited). MCS/MCCS are NP-complete; when
  // the budget is hit, the best mapping found so far is returned with
  // `exact == false` (anytime behaviour). The default is the budget every
  // shipped configuration runs with (CLI, worker, service, examples), and it
  // truncates most fine-clustering pairs: on the 400-graph Baseline corpus
  // it cuts 2,037 of 2,506 calls, and perfbench's mine_select replay
  // measures an exact ratio of 0.165 at about 1.8 ms per call (Release
  // build, GCC 12, 4-core x86-64). Raise it when exact optima matter more
  // than throughput.
  uint64_t node_budget = 5000;
};

// Result of an MCS/MCCS computation.
struct McsResult {
  // Number of edges of the common subgraph (|G| = |E| per the paper).
  size_t common_edges = 0;
  // Number of mapped vertex pairs.
  size_t common_vertices = 0;
  // The vertex mapping (a-vertex, b-vertex) realising the common subgraph.
  std::vector<std::pair<VertexId, VertexId>> mapping;
  // True if the search provably found the optimum.
  bool exact = true;
};

// McGregor-style branch-and-bound maximum (connected) common subgraph of `a`
// and `b`. Maximises the number of common *edges*, consistent with the
// paper's size measure |G| = |E| and with its similarity definitions.
McsResult MaxCommonSubgraph(const Graph& a, const Graph& b,
                            McsOptions options = {});

// Similarity omega(a, b) = |G_common| / min(|a|, |b|), where |.| counts
// edges (Section 2). Pass options.connected=true for omega_mccs, false for
// omega_mcs. Returns 0 when either graph has no edges.
double McsSimilarity(const Graph& a, const Graph& b, McsOptions options = {});

}  // namespace catapult

#endif  // CATAPULT_ISO_MCS_H_
