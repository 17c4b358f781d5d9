#include "src/core/score_table.h"

#include <algorithm>

#include "src/iso/flat_vf2.h"
#include "src/util/mem_budget.h"

namespace catapult {

FlatGraphDatabase BuildFlatSummaryIndex(
    const std::vector<ClusterSummaryGraph>& csgs) {
  std::vector<Graph> summaries;
  summaries.reserve(csgs.size());
  for (const ClusterSummaryGraph& csg : csgs) {
    summaries.push_back(csg.ToGraph());
  }
  return FlatGraphDatabase::Build(summaries);
}

void CoveredCsgsFlat(const Graph& pattern, const FlatGraphDatabase& index,
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
    FlatGraphView target = index.view(i);
    if (target.NumVertices() == 0) continue;
    bool exhausted = false;
    options.budget_exhausted = &exhausted;
    if (FlatContainsSubgraph(pattern_view, target, &index.domains(i),
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
  fold_graph.assign(candidates, nullptr);
  bound.assign(candidates, 0.0);
  source_csg.assign(candidates, 0);
  iso_exhausted.assign(candidates, 0);
  valid.assign(candidates, 0);
  fresh.assign(candidates, 0);
  exact.assign(candidates, 0);
  coverage_.assign(candidates * coverage_words_, 0);
}

int BoundFirstArgmax(
    ScoreTable& table,
    const std::function<bool(const uint32_t* rows, size_t n)>& evaluate) {
  double best = -std::numeric_limits<double>::infinity();
  std::vector<uint32_t>& pending = table.pending_;
  pending.clear();
  for (size_t i = 0; i < table.size(); ++i) {
    if (!table.valid[i]) continue;
    if (table.exact[i]) {
      best = std::max(best, table.score[i]);
    } else {
      pending.push_back(static_cast<uint32_t>(i));
    }
  }
  // A strict total order, so the result is the stable bound-descending order.
  std::sort(pending.begin(), pending.end(), [&](uint32_t l, uint32_t r) {
    if (table.bound[l] != table.bound[r]) {
      return table.bound[l] > table.bound[r];
    }
    return l < r;
  });
  for (size_t next = 0; next < pending.size();) {
    if (table.bound[pending[next]] < best) break;
    const size_t n = std::min(kBoundFirstWave, pending.size() - next);
    const bool go_on = evaluate(pending.data() + next, n);
    for (size_t k = next; k < next + n; ++k) {
      if (table.exact[pending[k]]) {
        best = std::max(best, table.score[pending[k]]);
      }
    }
    next += n;
    if (!go_on) break;
  }
  int winner = -1;
  for (size_t i = 0; i < table.size(); ++i) {
    if (!table.valid[i] || !table.exact[i]) continue;
    if (winner < 0 || table.score[i] > table.score[winner]) {
      winner = static_cast<int>(i);
    }
  }
  return winner;
}

size_t ApproxClassEntryBytes(const std::string& code,
                             const SelectorClassEntry& entry) {
  return code.size() +
         ApproxGraphBytes(entry.rep.NumVertices(), entry.rep.NumEdges()) +
         entry.covered.size() * sizeof(uint64_t) + 64;
}

}  // namespace catapult
