#include "src/formulate/qft.h"

#include <cmath>

#include "src/core/pattern_score.h"
#include "src/formulate/steps.h"

namespace catapult {

namespace {

// Multiplicative noise around 1.0 (clamped positive).
double Noise(const QftModel& model, Rng& rng) {
  // Sum of uniforms approximates a normal; cheap and deterministic.
  double z = 0.0;
  for (int i = 0; i < 4; ++i) z += rng.UniformReal();
  z = (z - 2.0) * std::sqrt(3.0);  // ~N(0, 1)
  double factor = 1.0 + model.noise_stddev * z;
  return factor < 0.2 ? 0.2 : factor;
}

}  // namespace

double SimulateQft(const Graph& query, const GuiModel& gui,
                   const QftModel& model, Rng& rng,
                   const CoverOptions& options) {
  QueryCover cover = PanelCover(query, gui, options);
  size_t steps =
      StepsWithPatterns(query, gui.patterns, cover, gui.unlabelled);

  double time = static_cast<double>(steps) * model.seconds_per_step;
  for (const PatternUse& use : cover.uses) {
    double cog = CognitiveLoad(gui.patterns[use.pattern_index]);
    time += model.search_base_seconds +
            model.search_per_pattern * static_cast<double>(gui.patterns.size()) +
            model.search_per_cog * cog;
  }
  return time * Noise(model, rng);
}

double AverageQft(const Graph& query, const GuiModel& gui,
                  const QftModel& model, size_t trials, Rng& rng,
                  const CoverOptions& options) {
  if (trials == 0) return 0.0;
  double total = 0.0;
  for (size_t t = 0; t < trials; ++t) {
    total += SimulateQft(query, gui, model, rng, options);
  }
  return total / static_cast<double>(trials);
}

double SimulateDecisionTime(const Graph& pattern, const QftModel& model,
                            Rng& rng) {
  double cog = CognitiveLoad(pattern);
  double base = model.search_base_seconds + model.search_per_cog * cog +
                0.15 * static_cast<double>(pattern.NumVertices());
  return base * Noise(model, rng);
}

}  // namespace catapult
