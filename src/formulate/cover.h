#ifndef CATAPULT_FORMULATE_COVER_H_
#define CATAPULT_FORMULATE_COVER_H_

#include <vector>

#include "src/formulate/gui.h"
#include "src/graph/graph.h"
#include "src/iso/vf2.h"

namespace catapult {

// Options for computing the maximal pattern cover of a query.
struct CoverOptions {
  // Cap on embeddings enumerated per pattern (keeps the conflict graph
  // small; molecule-sized queries rarely have more).
  size_t max_embeddings_per_pattern = 128;

  // Node budget per subgraph-isomorphism enumeration.
  uint64_t iso_node_budget = 2000000;
};

// One use of a canned pattern inside a query.
struct PatternUse {
  size_t pattern_index = 0;       // index into the pattern set
  Embedding embedding;            // pattern vertex -> query vertex
};

// A set of vertex-disjoint pattern embeddings covering part of a query.
struct QueryCover {
  std::vector<PatternUse> uses;
  size_t covered_vertices = 0;
  size_t covered_edges = 0;  // query edges realised by pattern edges
};

// Computes a maximal-weight collection of non-overlapping pattern
// embeddings in `query` (Section 6.1): every embedding of every pattern is
// a node of a conflict graph weighted by its vertex count, and the greedy
// maximum-weight-independent-set heuristic of [Sakai et al.] (take the
// best weight/(degree+1) node, delete its neighbourhood, repeat) selects
// the bag PQ of pattern uses. Patterns may be used multiple times via
// distinct non-overlapping embeddings.
QueryCover MaxPatternCover(const Graph& query,
                           const std::vector<Graph>& patterns,
                           const CoverOptions& options = {});

// MaxPatternCover of `query` by `gui`'s panel, as every formulation entry
// point computes it. For an unlabelled panel whose first pattern has a
// vertex, the query is first relabelled to that vertex's label (Exp 3's
// normalisation: label-free panel patterns can match anywhere).
QueryCover PanelCover(const Graph& query, const GuiModel& gui,
                      const CoverOptions& options);

}  // namespace catapult

#endif  // CATAPULT_FORMULATE_COVER_H_
