#include "src/formulate/session.h"

#include <sstream>
#include <unordered_set>

#include "src/util/check.h"

namespace catapult {

FormulationPlan PlanFormulation(const Graph& query, const GuiModel& gui,
                                const CoverOptions& options) {
  FormulationPlan plan;

  plan.cover = PanelCover(query, gui, options);

  // Query vertices and edges realised by pattern placements.
  std::vector<bool> vertex_covered(query.NumVertices(), false);
  auto PackEdge = [](VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  };
  std::unordered_set<uint64_t> edge_covered;

  for (const PatternUse& use : plan.cover.uses) {
    FormulationStep place;
    place.kind = FormulationStep::Kind::kPlacePattern;
    place.pattern_index = use.pattern_index;
    plan.steps.push_back(place);

    const Graph& pattern = gui.patterns[use.pattern_index];
    for (VertexId pv = 0; pv < pattern.NumVertices(); ++pv) {
      vertex_covered[use.embedding[pv]] = true;
    }
    for (const Edge& pe : pattern.EdgeList()) {
      edge_covered.insert(
          PackEdge(use.embedding[pe.u], use.embedding[pe.v]));
    }
    if (gui.unlabelled) {
      for (VertexId pv = 0; pv < pattern.NumVertices(); ++pv) {
        FormulationStep relabel;
        relabel.kind = FormulationStep::Kind::kRelabelVertex;
        relabel.u = use.embedding[pv];
        plan.steps.push_back(relabel);
      }
    }
  }

  // Remaining vertices, then remaining edges.
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    if (vertex_covered[v]) continue;
    FormulationStep add;
    add.kind = FormulationStep::Kind::kAddVertex;
    add.u = v;
    plan.steps.push_back(add);
  }
  for (const Edge& e : query.EdgeList()) {
    if (edge_covered.contains(PackEdge(e.u, e.v))) continue;
    FormulationStep add;
    add.kind = FormulationStep::Kind::kAddEdge;
    add.u = e.u;
    add.v = e.v;
    plan.steps.push_back(add);
  }
  return plan;
}

std::string DescribePlan(const FormulationPlan& plan, const Graph& query,
                         const GuiModel& gui, const LabelMap* labels) {
  auto LabelName = [&](Label label) {
    if (labels != nullptr && label < labels->size()) {
      return labels->Name(label);
    }
    return std::to_string(label);
  };
  std::ostringstream out;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const FormulationStep& step = plan.steps[i];
    out << "Step " << (i + 1) << ": ";
    switch (step.kind) {
      case FormulationStep::Kind::kPlacePattern: {
        const Graph& p = gui.patterns[step.pattern_index];
        out << "select and drag pattern P" << (step.pattern_index + 1)
            << " (|V|=" << p.NumVertices() << ", |E|=" << p.NumEdges()
            << ") onto the canvas";
        break;
      }
      case FormulationStep::Kind::kAddVertex:
        out << "add a vertex labelled "
            << LabelName(query.VertexLabel(step.u)) << " (v" << step.u
            << ")";
        break;
      case FormulationStep::Kind::kAddEdge:
        out << "construct an edge between v" << step.u << " and v" << step.v;
        break;
      case FormulationStep::Kind::kRelabelVertex:
        out << "relabel v" << step.u << " to "
            << LabelName(query.VertexLabel(step.u));
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace catapult
