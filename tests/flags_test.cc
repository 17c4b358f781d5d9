// Tests of the example binaries' shared flag parser (examples/flags.h):
// valueless flags anywhere on the line, numeric values and the rejection of
// malformed ones, defaults for absent flags, and the option helpers the
// binaries share.

#include "examples/flags.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <limits>
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

// The death-test regex matching "invalid value 'TOKEN' for --NAME" exactly:
// punctuation in the token ('+', '.') goes in brackets.
std::string Rejection(const std::string& token, const std::string& name) {
  std::string regex = "invalid value '";
  for (char c : token) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == ' ' || c == '-') {
      regex += c;
    } else {
      regex += std::string("[") + c + "]";
    }
  }
  return regex + "' for --" + name;
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

TEST(FlagsTest, CountValuesParse) {
  const Flags flags = Parse({"--graphs", "0", "--gamma", "8", "--seed",
                             "18446744073709551615"});
  EXPECT_EQ(flags.GetCount("graphs", 500), 0u);
  EXPECT_EQ(flags.GetCount("gamma", 12), 8u);
  EXPECT_EQ(flags.GetCount("seed", 1), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(flags.GetCount("families", 12), 12u);
}

TEST(FlagsTest, ThreadsZeroMeansHardwareConcurrency) {
  EXPECT_EQ(ThreadsFromFlags(Parse({"--threads", "0"}), 7),
            ThreadPool::HardwareThreads());
  EXPECT_EQ(ThreadsFromFlags(Parse({"--threads", "3"}), 7), 3u);
  EXPECT_EQ(ThreadsFromFlags(Parse({"--db", "D"}), 7), 7u);
}

// A count flag given a negative value exits 1 naming the flag and token.
TEST(FlagsDeathTest, NegativeCountIsRejected) {
  const Flags flags = Parse({"--graphs", "-5"});
  EXPECT_EXIT(flags.GetCount("graphs", 500), ::testing::ExitedWithCode(1),
              Rejection("-5", "graphs"));
}

TEST(FlagsDeathTest, NonNumericCountIsRejected) {
  for (const char* junk :
       {"abc", "5abc", "+5", " 5", "1.5", "", "99999999999999999999"}) {
    const Flags flags = Parse({"--graphs", junk});
    EXPECT_EXIT(flags.GetCount("graphs", 500), ::testing::ExitedWithCode(1),
                Rejection(junk, "graphs"))
        << "token '" << junk << "'";
  }
  // A count flag left without a value reads as a switch, which is no count.
  const Flags last = Parse({"--db", "D", "--gamma"});
  EXPECT_EXIT(last.GetCount("gamma", 12), ::testing::ExitedWithCode(1),
              Rejection("true", "gamma"));
}

TEST(FlagsDeathTest, SignedValueRejectsJunk) {
  for (const char* junk : {"abc", "150ms", "1.5"}) {
    const Flags flags = Parse({"--deadline-ms", junk});
    EXPECT_EXIT(flags.GetInt("deadline-ms", 0), ::testing::ExitedWithCode(1),
                Rejection(junk, "deadline-ms"))
        << "token '" << junk << "'";
  }
}

TEST(FlagsDeathTest, OptionHelpersRejectNegativeCounts) {
  EXPECT_EXIT(MineOptionsFromFlags(Parse({"--gamma", "-1"})),
              ::testing::ExitedWithCode(1), Rejection("-1", "gamma"));
  EXPECT_EXIT(IngestLimitsFromFlags(Parse({"--max-graphs", "-3"})),
              ::testing::ExitedWithCode(1), Rejection("-3", "max-graphs"));
  EXPECT_EXIT(ThreadsFromFlags(Parse({"--threads", "-1"}), 1),
              ::testing::ExitedWithCode(1), Rejection("-1", "threads"));
}

}  // namespace
}  // namespace catapult::examples
