// Tests of the example binaries' shared flag parser (examples/flags.h):
// valueless flags anywhere on the line, numeric values, defaults for absent
// flags, and the option helpers the binaries share.

#include "examples/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace catapult::examples {
namespace {

// Parses `prog <tokens...>` from index 1, as the binaries do. Flags copies
// what it keeps, so the argv storage may die with this call.
Flags Parse(std::vector<std::string> tokens) {
  tokens.insert(tokens.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(FlagsTest, ValuelessFlagFirst) {
  const Flags flags = Parse({"--sampling", "--db", "D", "--out", "P"});
  EXPECT_TRUE(flags.GetBool("sampling"));
  EXPECT_EQ(flags.Get("db"), "D");
  EXPECT_EQ(flags.Get("out"), "P");
}

TEST(FlagsTest, ValuelessFlagInTheMiddleKeepsLaterPairs) {
  // A valueless flag mid-line must not shift the pairs after it.
  const Flags flags = Parse(
      {"--db", "D", "--out", "P", "--sampling", "--gamma", "5", "--seed", "3"});
  EXPECT_TRUE(flags.GetBool("sampling"));
  EXPECT_EQ(flags.Get("out"), "P");
  EXPECT_EQ(flags.GetInt("gamma", 12), 5);
  EXPECT_EQ(flags.GetInt("seed", 42), 3);
}

TEST(FlagsTest, ValuelessFlagsLastAndAdjacent) {
  const Flags flags =
      Parse({"--db", "D", "--resume", "--strict-parse", "--gamma", "7",
             "--print-stats"});
  EXPECT_TRUE(flags.GetBool("resume"));
  EXPECT_TRUE(flags.GetBool("strict-parse"));
  EXPECT_TRUE(flags.GetBool("print-stats"));
  EXPECT_EQ(flags.Get("db"), "D");
  EXPECT_EQ(flags.GetInt("gamma", 12), 7);
}

TEST(FlagsTest, NumericValues) {
  const Flags flags =
      Parse({"--threads", "0", "--deadline-ms", "-1", "--max-graphs", "250"});
  EXPECT_EQ(flags.GetInt("threads", 1), 0);
  EXPECT_EQ(flags.GetInt("deadline-ms", 0), -1);
  EXPECT_EQ(flags.GetInt("max-graphs", 0), 250);
}

TEST(FlagsTest, AbsentFlagsFallBackToDefaults) {
  const Flags flags = Parse({"--db", "D"});
  EXPECT_FALSE(flags.Get("out").has_value());
  EXPECT_FALSE(flags.GetBool("sampling"));
  EXPECT_EQ(flags.GetInt("gamma", 12), 12);

  const CatapultOptions mine = MineOptionsFromFlags(flags);
  EXPECT_EQ(mine.selector.budget.gamma, 12u);
  EXPECT_EQ(mine.selector.budget.eta_min, 3u);
  EXPECT_EQ(mine.selector.budget.eta_max, 8u);
  EXPECT_EQ(mine.seed, 42u);
  EXPECT_FALSE(mine.use_sampling);
  EXPECT_EQ(mine.clustering.fine_mcs.node_budget, 5000u);

  const IngestOptions ingest = IngestLimitsFromFlags(flags);
  const IngestOptions defaults;
  EXPECT_EQ(ingest.limits.max_vertices_per_graph,
            defaults.limits.max_vertices_per_graph);
  EXPECT_EQ(ingest.limits.max_edges_per_graph,
            defaults.limits.max_edges_per_graph);
  EXPECT_EQ(ingest.limits.max_graphs, 0u);
  EXPECT_FALSE(ingest.strict);
}

TEST(FlagsTest, OptionHelpersReadEveryFlagInAnyOrder) {
  const Flags flags =
      Parse({"--sampling", "--strict-parse", "--gamma", "5", "--min-size", "4",
             "--max-size", "6", "--seed", "3", "--max-graph-vertices", "40",
             "--max-graph-edges", "50", "--max-graphs", "9"});
  const CatapultOptions mine = MineOptionsFromFlags(flags);
  EXPECT_EQ(mine.selector.budget.gamma, 5u);
  EXPECT_EQ(mine.selector.budget.eta_min, 4u);
  EXPECT_EQ(mine.selector.budget.eta_max, 6u);
  EXPECT_EQ(mine.seed, 3u);
  EXPECT_TRUE(mine.use_sampling);

  const IngestOptions ingest = IngestLimitsFromFlags(flags);
  EXPECT_EQ(ingest.limits.max_vertices_per_graph, 40u);
  EXPECT_EQ(ingest.limits.max_edges_per_graph, 50u);
  EXPECT_EQ(ingest.limits.max_graphs, 9u);
  EXPECT_TRUE(ingest.strict);
}

}  // namespace
}  // namespace catapult::examples
