#ifndef CATAPULT_ISO_FLAT_VF2_H_
#define CATAPULT_ISO_FLAT_VF2_H_

// The subgraph-isomorphism kernel (DESIGN.md §15): one VF2-style
// backtracking search over FlatGraphView inputs, shared by existence tests
// and embedding enumeration. Its order — BFS from the pattern vertex whose
// label is rarest in the target, root candidates in ascending id order,
// anchored candidates in target insertion order, one node per Backtrack
// entry — fixes the order embeddings are met in, node counts, truncation
// points and the query cover's choices.
//
// Two rejections skip what no embedding can use. A target with fewer
// vertices of some label than the pattern is rejected before any search,
// silently like one with fewer vertices or edges: no search runs and no
// vf2.* counter moves. And a candidate target vertex whose neighbour-label
// multiset does not contain its pattern vertex's costs no node. An
// embedding maps a vertex's neighbours injectively onto same-label
// neighbours of its image, so a skipped candidate heads a subtree without
// embeddings: the nodes that remain are visited in the same order, and the
// embeddings are met in the same order, as without the rejections.
// tests/flat_vf2_test.cc pins that order, which the rejections left
// unchanged, and the node counts, which were re-pinned with them.
//
// A node budget (IsoOptions::node_budget) cuts the search after that many
// nodes, so a budgeted enumeration returns a prefix of the unbudgeted list.
// Since the rejections only remove nodes, a budget reaches at least as far
// as it did without them: a list it used to cut comes out as long or
// longer, with the old list as its prefix, and an existence test it used
// to cut can only change from false to true. The Graph entry points in
// vf2.h flatten and call in.

#include <vector>

#include "src/graph/flat_graph.h"
#include "src/iso/vf2.h"
#include "src/util/bitset.h"

namespace catapult {

// True if `pattern` (connected, non-empty) has an embedding in `target`.
// `target_domains` (optional) are `target`'s precomputed label domains; when
// null they are derived from the view (one O(V) pass). A pattern with more
// vertices or edges than the target, or more vertices of some label, is
// rejected before any search.
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
