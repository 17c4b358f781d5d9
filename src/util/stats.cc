#include "src/util/stats.h"

#include <cstddef>

namespace catapult {

double KendallTau(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  const size_t n = a.size();
  long long concordant = 0;
  long long discordant = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double da = a[i] - a[j];
      double db = b[i] - b[j];
      double prod = da * db;
      if (prod > 0) ++concordant;
      if (prod < 0) ++discordant;
      // Ties contribute to neither (tau-a convention on the denominator).
    }
  }
  double denom = 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
  return static_cast<double>(concordant - discordant) / denom;
}

}  // namespace catapult
