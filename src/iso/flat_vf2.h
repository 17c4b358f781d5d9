#ifndef CATAPULT_ISO_FLAT_VF2_H_
#define CATAPULT_ISO_FLAT_VF2_H_

// The subgraph-isomorphism kernel (DESIGN.md §15): one VF2-style
// backtracking search over FlatGraphView inputs, shared by existence tests
// and embedding enumeration. Its order — BFS from the pattern vertex whose
// label is rarest in the target, root candidates in ascending id order,
// anchored candidates in target insertion order, one node per Backtrack
// entry — fixes node counts, truncation points and the query cover's
// choices. The Graph entry points in vf2.h flatten and call in.

#include <vector>

#include "src/graph/flat_graph.h"
#include "src/iso/vf2.h"
#include "src/util/bitset.h"

namespace catapult {

// True if `pattern` (connected, non-empty) has an embedding in `target`.
// `target_domains` (optional) are `target`'s precomputed label domains; when
// null they are derived from the view (one O(V) pass). A pattern with more
// vertices or edges than the target is rejected before any search.
bool FlatContainsSubgraph(const FlatGraphView& pattern,
                          const FlatGraphView& target,
                          const LabelDomains* target_domains,
                          IsoOptions options = {});

// Up to `max_count` (0 = all) embeddings of `pattern` in `target`, in search
// order. Automorphic images count separately.
std::vector<Embedding> FlatFindEmbeddings(const FlatGraphView& pattern,
                                          const FlatGraphView& target,
                                          const LabelDomains* target_domains,
                                          size_t max_count,
                                          IsoOptions options = {});

// Support set of `pattern` over `db`: bit i is set iff db.view(i) contains
// the pattern. Graphs whose bit is clear in `restrict_to` (optional, sized
// db.size()) are not tested and stay clear.
DynamicBitset ContainingGraphs(const FlatGraphView& pattern,
                               const FlatGraphDatabase& db,
                               const DynamicBitset* restrict_to = nullptr,
                               IsoOptions options = {});

}  // namespace catapult

#endif  // CATAPULT_ISO_FLAT_VF2_H_
