#include "src/formulate/session.h"

#include <gtest/gtest.h>

#include "src/formulate/evaluate.h"
#include "src/formulate/steps.h"
#include "tests/test_graphs.h"

namespace catapult {
namespace {

// Two triangles joined by one bridge edge.
Graph TwoTriangles(Label label = 0) {
  Graph g = Ring(3, label);
  VertexId a = g.AddVertex(label);
  VertexId b = g.AddVertex(label);
  VertexId c = g.AddVertex(label);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(c, a);
  g.AddEdge(0, a);
  return g;
}

TEST(SessionTest, PlanLengthMatchesStepCount) {
  Graph query = TwoTriangles(3);
  GuiModel gui = MakeCatapultGui({Ring(3, 3)});
  FormulationPlan plan = PlanFormulation(query, gui);
  QueryFormulation f = FormulateQuery(query, gui);
  EXPECT_EQ(plan.steps.size(), f.steps_patterns);
}

TEST(SessionTest, ExampleOneOneShape) {
  // Example 1.1-style: a query of two pattern cores plus a bridge edge
  // formulates in 3 steps (place, place, edge).
  Graph query = TwoTriangles(3);
  GuiModel gui = MakeCatapultGui({Ring(3, 3)});
  FormulationPlan plan = PlanFormulation(query, gui);
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.steps[0].kind, FormulationStep::Kind::kPlacePattern);
  EXPECT_EQ(plan.steps[1].kind, FormulationStep::Kind::kPlacePattern);
  EXPECT_EQ(plan.steps[2].kind, FormulationStep::Kind::kAddEdge);
}

TEST(SessionTest, UnlabelledPanelEmitsRelabelSteps) {
  Graph query = Ring(5, 3);
  GuiModel gui = MakePubChemGui(0);
  FormulationPlan plan = PlanFormulation(query, gui);
  size_t relabels = 0;
  for (const FormulationStep& s : plan.steps) {
    if (s.kind == FormulationStep::Kind::kRelabelVertex) ++relabels;
  }
  EXPECT_EQ(relabels, 5u);  // one per placed pattern vertex
  QueryFormulation f = FormulateQuery(query, gui);
  EXPECT_EQ(plan.steps.size(), f.steps_patterns);
}

TEST(SessionTest, NoPatternsFallsBackToEdgeAtATime) {
  Graph query = Ring(4, 7);
  GuiModel gui = MakeCatapultGui({});
  FormulationPlan plan = PlanFormulation(query, gui);
  EXPECT_EQ(plan.steps.size(), StepsEdgeAtATime(query));
  // First the vertices, then the edges.
  EXPECT_EQ(plan.steps.front().kind, FormulationStep::Kind::kAddVertex);
  EXPECT_EQ(plan.steps.back().kind, FormulationStep::Kind::kAddEdge);
}

TEST(SessionTest, DescribePlanMentionsEveryStep) {
  Graph query = TwoTriangles(3);
  GuiModel gui = MakeCatapultGui({Ring(3, 3)});
  FormulationPlan plan = PlanFormulation(query, gui);
  std::string text = DescribePlan(plan, query, gui);
  EXPECT_NE(text.find("Step 1:"), std::string::npos);
  EXPECT_NE(text.find("Step 3:"), std::string::npos);
  EXPECT_NE(text.find("drag pattern P1"), std::string::npos);
  EXPECT_NE(text.find("construct an edge"), std::string::npos);
}

TEST(SessionTest, DescribeUsesLabelNames) {
  LabelMap labels;
  Label c = labels.Intern("C");
  Graph query = Ring(3, c);
  GuiModel gui = MakeCatapultGui({});
  FormulationPlan plan = PlanFormulation(query, gui);
  std::string text = DescribePlan(plan, query, gui, &labels);
  EXPECT_NE(text.find("labelled C"), std::string::npos);
}

}  // namespace
}  // namespace catapult
