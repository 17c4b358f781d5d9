// Command-line flags shared by the example binaries (catapult_cli,
// catapult_worker, catapult_serve, catapult_client), plus the option
// helpers more than one of them needs.

#ifndef CATAPULT_EXAMPLES_FLAGS_H_
#define CATAPULT_EXAMPLES_FLAGS_H_

#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/catapult.h"
#include "src/graph/io.h"

namespace catapult::examples {

// Token-walking flag parser over argv[first..argc). A `--name` followed by a
// token that does not start with `--` takes that token as its value; any
// other `--name` is a boolean switch. So valued and valueless flags mix in
// any order. Other tokens are ignored; a repeated flag keeps its first value.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (!IsFlag(argv[i])) continue;
      if (i + 1 < argc && !IsFlag(argv[i + 1])) {
        values_.emplace_back(argv[i] + 2, argv[i + 1]);
        ++i;
      } else {
        values_.emplace_back(argv[i] + 2, "true");
      }
    }
  }

  std::optional<std::string> Get(const std::string& name) const {
    for (const auto& [key, value] : values_) {
      if (key == name) return value;
    }
    return std::nullopt;
  }

  long GetInt(const std::string& name, long fallback) const {
    auto v = Get(name);
    return v ? std::atol(v->c_str()) : fallback;
  }

  bool GetBool(const std::string& name) const { return Get(name).has_value(); }

 private:
  static bool IsFlag(const char* token) {
    return std::strncmp(token, "--", 2) == 0;
  }

  std::vector<std::pair<std::string, std::string>> values_;
};

// The structural ingestion limits: --max-graph-vertices, --max-graph-edges,
// --max-graphs (0 = no cap) and --strict-parse.
inline IngestOptions IngestLimitsFromFlags(const Flags& flags) {
  IngestOptions options;
  options.limits.max_vertices_per_graph = static_cast<size_t>(flags.GetInt(
      "max-graph-vertices",
      static_cast<long>(options.limits.max_vertices_per_graph)));
  options.limits.max_edges_per_graph = static_cast<size_t>(flags.GetInt(
      "max-graph-edges",
      static_cast<long>(options.limits.max_edges_per_graph)));
  options.limits.max_graphs =
      static_cast<size_t>(flags.GetInt("max-graphs", 0));
  options.strict = flags.GetBool("strict-parse");
  return options;
}

// The result-affecting options of `catapult_cli mine`: --gamma, --min-size,
// --max-size, --seed, --sampling and the fine-clustering MCS budget.
// catapult_worker builds its options here too, so its ConfigFingerprint
// matches the supervisor's whenever both get the same flags.
inline CatapultOptions MineOptionsFromFlags(const Flags& flags) {
  CatapultOptions options;
  options.selector.budget.gamma =
      static_cast<size_t>(flags.GetInt("gamma", 12));
  options.selector.budget.eta_min =
      static_cast<size_t>(flags.GetInt("min-size", 3));
  options.selector.budget.eta_max =
      static_cast<size_t>(flags.GetInt("max-size", 8));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.use_sampling = flags.GetBool("sampling");
  options.clustering.fine_mcs.node_budget = 5000;
  return options;
}

}  // namespace catapult::examples

#endif  // CATAPULT_EXAMPLES_FLAGS_H_
