#include "src/formulate/evaluate.h"

#include <algorithm>
#include <limits>

#include "src/core/pattern_score.h"
#include "src/formulate/steps.h"
#include "src/iso/flat_vf2.h"
#include "src/iso/ged.h"

namespace catapult {

QueryFormulation FormulateQuery(const Graph& query, const GuiModel& gui,
                                const CoverOptions& options) {
  QueryFormulation out;
  out.steps_total = StepsEdgeAtATime(query);

  QueryCover cover = PanelCover(query, gui, options);
  out.patterns_used = cover.uses.size();
  out.steps_patterns =
      StepsWithPatterns(query, gui.patterns, cover, gui.unlabelled);
  out.mu = ReductionRatio(out.steps_total, out.steps_patterns);
  return out;
}

WorkloadReport EvaluateGui(const std::vector<Graph>& queries,
                           const GuiModel& gui, const CoverOptions& options,
                           std::vector<QueryFormulation>* details) {
  WorkloadReport report;
  report.num_queries = queries.size();
  if (queries.empty()) return report;
  size_t missed = 0;
  double mu_sum = 0.0;
  double steps_sum = 0.0;
  for (const Graph& query : queries) {
    QueryFormulation f = FormulateQuery(query, gui, options);
    if (f.patterns_used == 0) ++missed;
    report.max_mu = std::max(report.max_mu, f.mu);
    mu_sum += f.mu;
    steps_sum += static_cast<double>(f.steps_patterns);
    if (details != nullptr) details->push_back(f);
  }
  report.avg_mu = mu_sum / static_cast<double>(queries.size());
  report.mp_percent = 100.0 * static_cast<double>(missed) /
                      static_cast<double>(queries.size());
  report.avg_steps = steps_sum / static_cast<double>(queries.size());
  return report;
}

double SubgraphCoverage(const std::vector<Graph>& patterns,
                        const GraphDatabase& db, size_t sample_cap,
                        uint64_t iso_node_budget) {
  if (db.empty() || patterns.empty()) return 0.0;
  IsoOptions iso;
  iso.node_budget = iso_node_budget;

  // Deterministic stride sample when capped.
  size_t n = db.size();
  size_t count = (sample_cap == 0 || sample_cap >= n) ? n : sample_cap;
  size_t stride = n / count;
  if (stride == 0) stride = 1;
  std::vector<GraphId> sample;
  for (size_t i = 0; i < n && sample.size() < count; i += stride) {
    sample.push_back(static_cast<GraphId>(i));
  }

  const FlatGraphDatabase flat_db = FlatGraphDatabase::Build(db, sample);
  std::vector<FlatGraph> flat_patterns;
  flat_patterns.reserve(patterns.size());
  for (const Graph& p : patterns) flat_patterns.push_back(FlatGraph::Build(p));
  size_t covered = 0;
  for (size_t i = 0; i < flat_db.size(); ++i) {
    for (const FlatGraph& p : flat_patterns) {
      if (FlatContainsSubgraph(p.View(), flat_db.view(i), &flat_db.domains(i),
                               iso)) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(sample.size());
}

double AverageSetDiversity(const std::vector<Graph>& patterns) {
  if (patterns.size() < 2) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    std::vector<Graph> rest;
    rest.reserve(patterns.size() - 1);
    for (size_t j = 0; j < patterns.size(); ++j) {
      if (j != i) rest.push_back(patterns[j]);
    }
    total += FoldDiversity(patterns[i], rest, 0,
                           std::numeric_limits<double>::infinity(),
                           GedOptions{}, /*approximate=*/false);
  }
  return total / static_cast<double>(patterns.size());
}

double AverageCognitiveLoad(const std::vector<Graph>& patterns) {
  if (patterns.empty()) return 0.0;
  double total = 0.0;
  for (const Graph& p : patterns) total += CognitiveLoad(p);
  return total / static_cast<double>(patterns.size());
}

}  // namespace catapult
