#include "src/core/pattern_score.h"

#include <algorithm>

#include "src/iso/ged_bipartite.h"
#include "src/obs/metrics.h"

namespace catapult {

double CognitiveLoad(const Graph& pattern) {
  return static_cast<double>(pattern.NumEdges()) * pattern.Density();
}

double CognitiveLoadDegreeSum(const Graph& pattern) {
  return 2.0 * static_cast<double>(pattern.NumEdges());
}

double CognitiveLoadAvgDegree(const Graph& pattern) {
  if (pattern.NumVertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(pattern.NumEdges()) /
         static_cast<double>(pattern.NumVertices());
}

double FoldDiversity(const Graph& pattern, const std::vector<Graph>& selected,
                     size_t from, double running_min,
                     const GedOptions& ged_options, bool approximate) {
  for (size_t i = from; i < selected.size(); ++i) {
    double lower = GedLowerBound(pattern, selected[i]);
    if (lower >= running_min) {
      obs::Count(obs::Counter::kSelectorDivPruned);
      continue;  // value >= lower >= running_min: cannot improve
    }
    obs::Count(obs::Counter::kSelectorDivFolds);
    double distance =
        approximate
            ? BipartiteGed(pattern, selected[i])
            : GraphEditDistance(pattern, selected[i], ged_options).distance;
    running_min = std::min(running_min, distance);
  }
  return running_min;
}

double FoldDiversityBound(const Graph& pattern,
                          const std::vector<Graph>& selected, size_t from,
                          double running_min) {
  for (size_t i = from; i < selected.size(); ++i) {
    if (GedLowerBound(pattern, selected[i]) >= running_min) continue;
    running_min =
        std::min(running_min, GedGreedyUpperBound(pattern, selected[i]));
  }
  return running_min;
}

}  // namespace catapult
