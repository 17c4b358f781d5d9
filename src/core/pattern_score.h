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

// Diversity div(p, P) = min_{q in P} GED(p, q) (Section 3.2), the one
// diversity computation (DESIGN.md §15). Folds selected[from..) into
// `running_min`, skipping any pair whose Definition 5.1 lower bound cannot
// beat the running minimum: every (truncated or exact) GED value is >= its
// lower bound, so a skipped pair provably cannot lower the minimum, and
// FoldDiversity(p, S, 0, +inf) is exactly the unpruned minimum over S. The
// selector carries the result per isomorphism class across greedy
// iterations and folds only the patterns selected since. An empty range
// returns `running_min` unchanged; callers that score an empty panel use a
// neutral 1. `approximate` swaps the exact branch-and-bound for the
// polynomial assignment-based BipartiteGed of [Riesen & Neuhaus, GbRPR'07]
// (the paper's reference [32]).
double FoldDiversity(const Graph& pattern, const std::vector<Graph>& selected,
                     size_t from, double running_min,
                     const GedOptions& ged_options, bool approximate);

// Search-free upper bound on the exact FoldDiversity over the same range
// from the same start, at any node budget: min(running_min, seed(p, s_i))
// over selected[from..), where seed is GedGreedyUpperBound, which the exact
// kernel never exceeds. Pairs are skipped exactly as FoldDiversity skips
// them (Definition 5.1 lower bound >= running minimum), which cannot change
// the minimum. Counts no fold.
double FoldDiversityBound(const Graph& pattern,
                          const std::vector<Graph>& selected, size_t from,
                          double running_min);

// Equation 2, s_p = ccov * lcov * div / cog, 0 when cog is not positive.
// The selector scores and bounds candidates through this one expression:
// for ccov, lcov >= 0 and cog > 0 every step rounds monotonically, so a
// larger div can never give a smaller result.
inline double PatternScore(double ccov, double lcov, double div, double cog) {
  return cog > 0.0 ? ccov * lcov * div / cog : 0.0;
}

// Default backtracking budget for one coverage subgraph-isomorphism test.
// Coverage tests must always be finite: an unlimited VF2 call on an
// adversarial CSG could stall selection forever, and an unlimited call can
// never report the truncation it silently avoids. Passing 0 to
// CoveredCsgsFlat (score_table.h) selects this value, not "unlimited".
inline constexpr uint64_t kDefaultCoverageIsoBudget = 2000000;

}  // namespace catapult

#endif  // CATAPULT_CORE_PATTERN_SCORE_H_
