#ifndef CATAPULT_UTIL_STATS_H_
#define CATAPULT_UTIL_STATS_H_

#include <vector>

namespace catapult {

// Kendall rank correlation coefficient (tau-a) between two equally sized
// score vectors. Used by Exp 10 to compare cognitive-load measures against
// observed task-time ranks. Returns 0 for fewer than two items.
double KendallTau(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace catapult

#endif  // CATAPULT_UTIL_STATS_H_
