#include "src/core/pattern_score.h"

#include <algorithm>
#include <limits>

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

double PatternSetDiversity(const Graph& pattern,
                           const std::vector<Graph>& selected,
                           const GedOptions& ged_options,
                           double empty_set_value) {
  if (selected.empty()) return empty_set_value;

  // Order canned patterns by increasing GED lower bound (Definition 5.1),
  // then iterate: compute exact GED, keep the minimum, and stop as soon as
  // the next lower bound cannot beat it (Section 5's pruning procedure).
  struct Entry {
    double lower;
    const Graph* graph;
  };
  std::vector<Entry> entries;
  entries.reserve(selected.size());
  for (const Graph& q : selected) {
    entries.push_back({GedLowerBound(pattern, q), &q});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.lower < b.lower; });

  double best = std::numeric_limits<double>::max();
  for (const Entry& entry : entries) {
    if (entry.lower >= best) break;  // No later entry can improve either.
    double distance = GraphEditDistance(pattern, *entry.graph, ged_options)
                          .distance;
    best = std::min(best, distance);
    if (best == 0.0) break;
  }
  return best;
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

double PatternSetDiversityApprox(const Graph& pattern,
                                 const std::vector<Graph>& selected,
                                 double empty_set_value) {
  if (selected.empty()) return empty_set_value;
  struct Entry {
    double lower;
    const Graph* graph;
  };
  std::vector<Entry> entries;
  entries.reserve(selected.size());
  for (const Graph& q : selected) {
    entries.push_back({GedLowerBound(pattern, q), &q});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.lower < b.lower; });
  double best = std::numeric_limits<double>::max();
  for (const Entry& entry : entries) {
    if (entry.lower >= best) break;
    best = std::min(best, BipartiteGed(pattern, *entry.graph));
    if (best == 0.0) break;
  }
  return best;
}

}  // namespace catapult
