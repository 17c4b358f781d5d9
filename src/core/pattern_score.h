#ifndef CATAPULT_CORE_PATTERN_SCORE_H_
#define CATAPULT_CORE_PATTERN_SCORE_H_

#include <vector>

#include "src/iso/ged.h"

namespace catapult {

// Cognitive load cog(p) = |Ep| * rho_p, where rho_p is the graph density
// (Section 3.2; the measure validated as F1 in Exp 10).
double CognitiveLoad(const Graph& pattern);

// Alternative cognitive-load measures evaluated in Exp 10.
double CognitiveLoadDegreeSum(const Graph& pattern);  // F2 = sum(deg) = 2|E|
double CognitiveLoadAvgDegree(const Graph& pattern);  // F3 = 2|E| / |V|

// Diversity div(p, P) = min_{q in P} GED(p, q) (Section 3.2), computed with
// the Definition 5.1 lower bound as a pruning filter: canned patterns are
// visited in increasing lower-bound order and exact GED is skipped once the
// lower bound exceeds the best exact distance so far. Returns
// `empty_set_value` when P is empty (the first selection has no diversity
// signal; 1.0 keeps the score multiplicative and neutral).
double PatternSetDiversity(const Graph& pattern,
                           const std::vector<Graph>& selected,
                           const GedOptions& ged_options = {},
                           double empty_set_value = 1.0);

// Incremental diversity fold (DESIGN.md §15): folds selected[from..) into a
// running minimum, skipping any pair whose Definition 5.1 lower bound cannot
// beat the running minimum. Because every (truncated or exact) GED value is
// >= its lower bound, FoldDiversity(p, S, 0, +inf) equals
// PatternSetDiversity(p, S) bit-for-bit — the skipped pairs provably cannot
// lower the minimum — which is what lets the selector carry a per-candidate
// running minimum across greedy iterations and fold only the patterns
// selected since the candidate was last scored. `approximate` switches the
// distance oracle to BipartiteGed (the PatternSetDiversityApprox pairing).
double FoldDiversity(const Graph& pattern, const std::vector<Graph>& selected,
                     size_t from, double running_min,
                     const GedOptions& ged_options, bool approximate);

// Polynomial-time variant using the assignment-based GED upper bound of
// [Riesen & Neuhaus, GbRPR'07] (the paper's reference [32]) instead of the
// exact branch-and-bound: min over the set of BipartiteGed(pattern, q),
// still pruned by the Definition 5.1 lower bound. Use when panels are
// large enough that exact GED dominates selection time.
double PatternSetDiversityApprox(const Graph& pattern,
                                 const std::vector<Graph>& selected,
                                 double empty_set_value = 1.0);

// Default backtracking budget for one coverage subgraph-isomorphism test.
// Coverage tests must always be finite: an unlimited VF2 call on an
// adversarial CSG could stall selection forever, and an unlimited call can
// never report the truncation it silently avoids. Passing 0 to
// CoveredCsgsFlat (score_table.h) selects this value, not "unlimited".
inline constexpr uint64_t kDefaultCoverageIsoBudget = 2000000;

}  // namespace catapult

#endif  // CATAPULT_CORE_PATTERN_SCORE_H_
