#ifndef CATAPULT_ISO_CANONICAL_CODE_H_
#define CATAPULT_ISO_CANONICAL_CODE_H_

#include <string>

#include "src/graph/graph.h"

namespace catapult {

// The library's one isomorphism-class identity: CanonicalCode(a) ==
// CanonicalCode(b) exactly when AreIsomorphic(a, b) under default
// IsoOptions. Vertex labels count, edge labels are ignored.
//
// Individualisation-refinement (McKay & Piperno, "Practical graph
// isomorphism, II", 2014): colour refinement from the label partition,
// then each vertex of the first smallest non-singleton cell is
// individualised in turn (one per class of twins: same label, same
// neighbours) and the partition refined again. The code encodes the least
// discrete leaf: vertex count, edge count, labels by position and the
// sorted edge list, as little-endian 32-bit words. Without automorphism
// pruning beyond twins, large highly symmetric graphs take exponential
// time: meant for patterns.
std::string CanonicalCode(const Graph& g);

}  // namespace catapult

#endif  // CATAPULT_ISO_CANONICAL_CODE_H_
