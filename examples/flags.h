// Command-line flags shared by the example binaries (catapult_cli,
// catapult_worker, catapult_serve, catapult_client), plus the option
// helpers more than one of them needs.

#ifndef CATAPULT_EXAMPLES_FLAGS_H_
#define CATAPULT_EXAMPLES_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/catapult.h"
#include "src/graph/io.h"
#include "src/util/thread_pool.h"

namespace catapult::examples {

// Token-walking flag parser over argv[first..argc). A `--name` followed by a
// token that does not start with `--` takes that token as its value; any
// other `--name` is a boolean switch. So valued and valueless flags mix in
// any order. Other tokens are ignored; a repeated flag keeps its first value.
// A numeric value that does not parse (GetInt, GetCount) prints
// "invalid value 'X' for --name" and exits with status 1.
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

  // Signed values (timeouts, deadlines, budgets whose sign means "off"):
  // a whole base-10 integer, else the value is rejected.
  long GetInt(const std::string& name, long fallback) const {
    return GetNumber<long>(name, fallback);
  }

  // Count-valued flags (sizes, seeds, limits, ids, thread counts): a
  // non-negative whole base-10 integer. A negative or non-numeric token is
  // rejected rather than wrapped into a huge unsigned count.
  uint64_t GetCount(const std::string& name, uint64_t fallback) const {
    return GetNumber<uint64_t>(name, fallback);
  }

  bool GetBool(const std::string& name) const { return Get(name).has_value(); }

 private:
  static bool IsFlag(const char* token) {
    return std::strncmp(token, "--", 2) == 0;
  }

  // A rejected value ends the process the same way in every binary: the
  // message on stderr and exit status 1 (usage error).
  template <typename T>
  T GetNumber(const std::string& name, T fallback) const {
    auto v = Get(name);
    if (!v) return fallback;
    T value{};
    const char* end = v->data() + v->size();
    auto [ptr, ec] = std::from_chars(v->data(), end, value);
    if (v->empty() || ec != std::errc() || ptr != end) {
      std::fprintf(stderr, "invalid value '%s' for --%s\n", v->c_str(),
                   name.c_str());
      std::exit(1);
    }
    return value;
  }

  std::vector<std::pair<std::string, std::string>> values_;
};

// The structural ingestion limits: --max-graph-vertices, --max-graph-edges,
// --max-graphs (0 = no cap) and --strict-parse.
inline IngestOptions IngestLimitsFromFlags(const Flags& flags) {
  IngestOptions options;
  options.limits.max_vertices_per_graph = flags.GetCount(
      "max-graph-vertices", options.limits.max_vertices_per_graph);
  options.limits.max_edges_per_graph = flags.GetCount(
      "max-graph-edges", options.limits.max_edges_per_graph);
  options.limits.max_graphs = flags.GetCount("max-graphs", 0);
  options.strict = flags.GetBool("strict-parse");
  return options;
}

// --threads N for the pipeline: 0 asks for hardware concurrency explicitly;
// an absent flag keeps `absent`.
inline size_t ThreadsFromFlags(const Flags& flags, size_t absent) {
  if (!flags.Get("threads")) return absent;
  const uint64_t n = flags.GetCount("threads", 0);
  return n == 0 ? ThreadPool::HardwareThreads() : n;
}

// The result-affecting options of `catapult_cli mine`: --gamma, --min-size,
// --max-size, --seed and --sampling; everything else, the fine-clustering
// MCS budget included, keeps its CatapultOptions default. catapult_worker
// builds its options here too, so its ConfigFingerprint matches the
// supervisor's whenever both get the same flags.
inline CatapultOptions MineOptionsFromFlags(const Flags& flags) {
  CatapultOptions options;
  options.selector.budget.gamma = flags.GetCount("gamma", 12);
  options.selector.budget.eta_min = flags.GetCount("min-size", 3);
  options.selector.budget.eta_max = flags.GetCount("max-size", 8);
  options.seed = flags.GetCount("seed", 42);
  options.use_sampling = flags.GetBool("sampling");
  return options;
}

}  // namespace catapult::examples

#endif  // CATAPULT_EXAMPLES_FLAGS_H_
