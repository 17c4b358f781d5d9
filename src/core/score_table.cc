#include "src/core/score_table.h"

#include "src/iso/flat_vf2.h"
#include "src/util/mem_budget.h"

namespace catapult {

FlatSummaryIndex BuildFlatSummaryIndex(
    const std::vector<ClusterSummaryGraph>& csgs) {
  std::vector<Graph> summaries;
  summaries.reserve(csgs.size());
  for (const ClusterSummaryGraph& csg : csgs) {
    summaries.push_back(csg.ToGraph());
  }
  return FlatSummaryIndex{FlatGraphDatabase::Build(summaries)};
}

void CoveredCsgsFlat(const Graph& pattern, const FlatSummaryIndex& index,
                     uint64_t iso_node_budget, uint64_t* budget_exhausted,
                     uint64_t* out_words) {
  size_t words = CoverageWords(index.size());
  for (size_t w = 0; w < words; ++w) out_words[w] = 0;
  FlatGraph flat_pattern = FlatGraph::Build(pattern);
  FlatGraphView pattern_view = flat_pattern.View();
  IsoOptions options;
  options.node_budget =
      iso_node_budget == 0 ? kDefaultCoverageIsoBudget : iso_node_budget;
  for (size_t i = 0; i < index.size(); ++i) {
    FlatGraphView target = index.flat.view(i);
    if (target.NumVertices() == 0) continue;
    bool exhausted = false;
    options.budget_exhausted = &exhausted;
    if (FlatContainsSubgraph(pattern_view, target, &index.flat.domains(i),
                             options)) {
      out_words[i >> 6] |= uint64_t{1} << (i & 63);
    }
    if (exhausted && budget_exhausted != nullptr) ++*budget_exhausted;
  }
}

void ScoreTable::Reset(size_t candidates, size_t num_csgs) {
  size_ = candidates;
  coverage_words_ = CoverageWords(num_csgs);
  score.assign(candidates, 0.0);
  ccov.assign(candidates, 0.0);
  lcov.assign(candidates, 0.0);
  div.assign(candidates, 0.0);
  cog.assign(candidates, 0.0);
  div_min.assign(candidates, std::numeric_limits<double>::max());
  div_folded.assign(candidates, 0);
  source_csg.assign(candidates, 0);
  iso_exhausted.assign(candidates, 0);
  valid.assign(candidates, 0);
  fresh.assign(candidates, 0);
  coverage_.assign(candidates * coverage_words_, 0);
}

size_t ApproxClassEntryBytes(const std::string& code,
                             const SelectorClassEntry& entry) {
  return code.size() +
         ApproxGraphBytes(entry.rep.NumVertices(), entry.rep.NumEdges()) +
         entry.covered.size() * sizeof(uint64_t) + 64;
}

}  // namespace catapult
