#ifndef CATAPULT_CORE_SELECTOR_H_
#define CATAPULT_CORE_SELECTOR_H_

#include <functional>
#include <limits>
#include <vector>

#include "src/core/budget.h"
#include "src/core/pattern_score.h"
#include "src/core/random_walk.h"
#include "src/core/score_table.h"
#include "src/core/weights.h"
#include "src/csg/csg.h"
#include "src/util/rng.h"

namespace catapult {

// How candidate patterns are proposed from each weighted CSG.
enum class CandidateStrategy {
  // The paper's approach: x weighted random walks -> PCP library -> FCP.
  kRandomWalk,
  // DaVinci-style deterministic greedy growth (Section 7 / ablation): one
  // BFS-greedy expansion always taking the heaviest adjacent edge.
  kGreedyBfs,
};

// Options for canned-pattern selection (Algorithm 4).
struct SelectorOptions {
  PatternBudget budget;

  // Number of random walks per (CSG, size) pair (the paper's x; Example 5.3
  // uses 100). The PCP library per final candidate has this many walks.
  size_t walks_per_candidate = 40;

  // Candidate proposal strategy (ablation bench exp12).
  CandidateStrategy strategy = CandidateStrategy::kRandomWalk;

  // Multiplicative-weights decay applied to covered clusters and used edge
  // labels after each selection (n = 0.5 in the paper; 1.0 disables the
  // update - ablation bench exp11).
  double weight_decay = 0.5;

  // Resource budgets for the NP-hard oracles.
  uint64_t iso_node_budget = 2000000;
  GedOptions ged;

  // Use the polynomial assignment-based GED (reference [32]) for the
  // diversity term instead of exact branch-and-bound GED.
  bool approximate_diversity = false;
};

// A selected canned pattern with its selection-time diagnostics.
struct SelectedPattern {
  Graph graph;
  double score = 0.0;
  double ccov = 0.0;
  double lcov = 0.0;
  double div = 0.0;
  double cog = 0.0;
  size_t source_csg = 0;  // index of the CSG that proposed it
  // True when the pattern came from the frequent-edge fallback after the
  // deadline cut random-walk generation short (source_csg is then
  // meaningless and the score fields are zero).
  bool fallback = false;
};

// What one greedy iteration's bound-first argmax did (DESIGN.md §15): the
// rows it scored, how many got an exact score — by folding diversity, or
// without a GED search (empty panel, a class memo covering the panel, the
// approximate oracle) — and how many were never folded, because their
// score bound could not win or because a stop cut the exact pass. Both
// scores are -inf when absent: no row was exact, or none was skipped.
// Without a stop, best_skipped_bound < winning_score.
struct SelectionIteration {
  size_t candidates = 0;  // valid rows: open size, not already selected
  size_t exact = 0;
  size_t skipped = 0;     // candidates == exact + skipped
  double winning_score = -std::numeric_limits<double>::infinity();
  double best_skipped_bound = -std::numeric_limits<double>::infinity();
};

// Result of Algorithm 4.
struct SelectionResult {
  std::vector<SelectedPattern> patterns;

  // One record per greedy iteration that scored a candidate, in order
  // (explainability only: checkpoints and the serve protocol do not carry
  // it, so a resumed run records only the iterations it ran itself).
  std::vector<SelectionIteration> iterations;

  // Anytime diagnostics: `complete` is false when the deadline or a
  // cancellation stopped the greedy loop before it ran out of candidates or
  // budget; `fallback_patterns` counts patterns filled in from frequent
  // edges afterwards; `iso_budget_exhausted` counts coverage subgraph-
  // isomorphism tests truncated by their node budget (each counted test
  // conservatively reported "not contained").
  bool complete = true;
  size_t fallback_patterns = 0;
  uint64_t iso_budget_exhausted = 0;

  // Convenience view of just the pattern graphs.
  std::vector<Graph> PatternGraphs() const;
};

// Exact resumable state of the greedy selection loop, captured after a
// pattern is accepted (Algorithm 4's loop invariant): the panel so far, the
// per-size tallies, the decayed cluster/edge-label weights, and the rng
// stream position for the *next* iteration. The checkpoint store persists
// it so a killed run restarted from this state selects the remaining
// patterns bit-identically to the uninterrupted run.
struct SelectorCheckpointState {
  std::vector<SelectedPattern> patterns;
  std::vector<size_t> selected_per_size;
  std::vector<double> cluster_weights;
  std::vector<std::pair<EdgeLabelKey, double>> edge_label_weights;
  RngState rng;
};

// What Algorithm 4 selects from: the clusters and their summaries (the
// outputs of Algorithm 1's first two phases, which do not depend on the
// pattern budget) and the two indices every selection reads — the summaries
// in flat CSR form with per-summary label domains (DESIGN.md §15) and the
// database's labelled-edge index (lcov, the undecayed edge-label weights
// and the deadline fallback). PrepareCorpus builds one per database, so
// repeated selections share the indices instead of rebuilding them.
struct SelectionCorpus {
  std::vector<std::vector<GraphId>> clusters;
  std::vector<ClusterSummaryGraph> csgs;
  FlatGraphDatabase summary_index;
  LabelCoverageIndex label_index;
};

// Builds `corpus->summary_index` from `corpus->csgs` and
// `corpus->label_index` from `db`: the one place either index is built.
void BuildCorpusIndices(const GraphDatabase& db, SelectionCorpus* corpus);

// Checkpoint integration for FindCannedPatternSet. `resume` (optional)
// seeds the greedy loop from a prior SelectorCheckpointState instead of
// from scratch; `on_pattern_selected` (optional) is invoked with the
// freshly captured state after every accepted pattern (never for the
// frequent-edge fallback fill, whose entries are not resumable greedy
// state). Both default to disabled.
struct SelectorCheckpointHooks {
  const SelectorCheckpointState* resume = nullptr;
  std::function<void(const SelectorCheckpointState&)> on_pattern_selected;
};

// FindCannedPatternSet (Algorithm 4): greedy iterations; in each iteration
// every CSG proposes one final candidate pattern per open size (via weighted
// random walks and the PCP->FCP statistics), the candidate with the highest
// Equation 2 score joins the set, and cluster/edge-label weights decay
// multiplicatively. Candidates isomorphic to an already selected pattern
// are skipped (their diversity of 0 would zero the score anyway). Stops at
// gamma patterns or when no new candidate can be produced. Deterministic
// given `rng`.
//
// The argmax is bound-first (DESIGN.md §15): each candidate first gets
// ccov, lcov, cog and an upper bound on its score from the greedy GED seed,
// and exact diversity is folded only for candidates whose bound can still
// reach the best exact score. The winner, its score terms, the panel and
// checkpoints are those of scoring every candidate exactly; only the
// diversity work counters (selector.div_folds, selector.div_pruned) and
// selector.bound_skipped reflect the saving.
//
// The loop polls `ctx` per iteration, per proposing CSG, per scored
// candidate and before each exact diversity fold (failpoint sites
// "selector.iteration", "selector.candidates", "selector.score",
// "selector.exact_div"), and the GED / subgraph-isomorphism node budgets
// tighten as the deadline nears. A stop in the exact pass picks among the
// exactly scored candidates only — possibly none — never by a bound. When
// the loop is cut short, open size slots are filled with frequent-edge
// fallback patterns (FrequentEdgePathPatterns) so the interface still shows
// a full, size-conforming panel; those entries are flagged `fallback` and
// counted in the result.
//
// `hooks` adds resume-from-state and a per-selected-pattern state capture
// (see SelectorCheckpointHooks). A resume state must structurally match
// (clusters count, budget size range) — the checkpoint store validates this
// before handing one in; mismatches are programmer errors (CHECK).
//
// `corpus` must have been indexed over `db` (BuildCorpusIndices).
SelectionResult FindCannedPatternSet(
    const GraphDatabase& db, const SelectionCorpus& corpus,
    const SelectorOptions& options, Rng& rng,
    const RunContext& ctx = RunContext::NoLimit(),
    const SelectorCheckpointHooks& hooks = {});

}  // namespace catapult

#endif  // CATAPULT_CORE_SELECTOR_H_
