// Tests for the post-paper extensions: the sequential relabelling cost model
// and the JSON selection report.

#include <gtest/gtest.h>

#include <sstream>

#include "src/core/catapult.h"
#include "src/core/report.h"
#include "src/data/molecule_generator.h"
#include "src/formulate/evaluate.h"
#include "src/formulate/steps.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

TEST(RelabelModelTest, SequentialMatchesOneStepForUniformLabels) {
  // All query labels equal: after the first 2-step selection, every click
  // is 1 step -> sequential = one-step + 1.
  Graph query = Ring(5, 3);
  std::vector<Graph> patterns = {Ring(5, 0)};
  Graph relabelled = query;
  for (VertexId v = 0; v < relabelled.NumVertices(); ++v) {
    relabelled.SetVertexLabel(v, 0);
  }
  QueryCover cover = MaxPatternCover(relabelled, patterns);
  ASSERT_EQ(cover.uses.size(), 1u);
  size_t one_step = StepsWithPatterns(query, patterns, cover, true,
                                      RelabelCostModel::kOneStep);
  size_t sequential = StepsWithPatterns(query, patterns, cover, true,
                                        RelabelCostModel::kSequential);
  EXPECT_EQ(sequential, one_step + 1);
}

TEST(RelabelModelTest, SequentialChargesLabelSwitches) {
  // Query with alternating labels: every placed vertex needs a new
  // selection -> 2 steps each.
  Graph query;
  query.AddVertex(1);
  query.AddVertex(2);
  query.AddVertex(1);
  query.AddVertex(2);
  query.AddEdge(0, 1);
  query.AddEdge(1, 2);
  query.AddEdge(2, 3);
  std::vector<Graph> patterns;
  Graph chain;  // unlabelled 4-chain
  for (int i = 0; i < 4; ++i) chain.AddVertex(0);
  chain.AddEdge(0, 1);
  chain.AddEdge(1, 2);
  chain.AddEdge(2, 3);
  patterns.push_back(chain);
  Graph relabelled = query;
  for (VertexId v = 0; v < relabelled.NumVertices(); ++v) {
    relabelled.SetVertexLabel(v, 0);
  }
  QueryCover cover = MaxPatternCover(relabelled, patterns);
  ASSERT_EQ(cover.uses.size(), 1u);
  // 1 placement + 4 vertices x 2 steps = 9.
  EXPECT_EQ(StepsWithPatterns(query, patterns, cover, true,
                              RelabelCostModel::kSequential),
            9u);
  // Optimistic model: 1 + 4 = 5.
  EXPECT_EQ(StepsWithPatterns(query, patterns, cover, true,
                              RelabelCostModel::kOneStep),
            5u);
}

TEST(ReportTest, JsonContainsPatternsAndTimings) {
  MoleculeGeneratorOptions gen;
  gen.num_graphs = 30;
  gen.seed = 16;
  GraphDatabase db = GenerateMoleculeDatabase(gen);
  CatapultOptions options;
  options.selector.budget = {.eta_min = 3, .eta_max = 5, .gamma = 4};
  options.selector.walks_per_candidate = 8;
  options.clustering.fine_mcs.node_budget = 3000;
  options.seed = 3;
  CatapultResult result = RunCatapult(db, options);
  std::string json = SelectionReportJson(result, db.labels());
  EXPECT_NE(json.find("\"patterns\""), std::string::npos);
  EXPECT_NE(json.find("\"timings\""), std::string::npos);
  EXPECT_NE(json.find("\"score\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"C\""), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity check).
  long braces = 0;
  long brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ReportTest, EscapesSpecialCharacters) {
  CatapultResult empty;
  LabelMap labels;
  labels.Intern("C\"N");  // pathological label name
  std::string json = SelectionReportJson(empty, labels);
  EXPECT_NE(json.find("\"patterns\": [\n  ]"), std::string::npos);
}

}  // namespace
}  // namespace catapult
