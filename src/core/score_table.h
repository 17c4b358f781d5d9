#ifndef CATAPULT_CORE_SCORE_TABLE_H_
#define CATAPULT_CORE_SCORE_TABLE_H_

// Selection hot-path data structures (DESIGN.md §15):
//
//  * The summary index — the CSG summaries in one FlatGraphDatabase with
//    their label domains, built once per corpus (BuildCorpusIndices) and
//    shared by every coverage test of every greedy iteration.
//  * ScoreTable — a structure-of-arrays candidate table. Each ParallelFor
//    slot writes only its own row across contiguous score/coverage/cog
//    columns; column storage is reused across iterations so the steady
//    state of the greedy loop allocates nothing per candidate.
//  * SelectorClassCache — the cross-iteration memo, keyed by isomorphism
//    class (the pattern's CanonicalCode). Between greedy rounds only the
//    decayed cluster / edge-label weights change — never the graphs — so the
//    covered-CSG bitmap, label coverage and cognitive load of a class are
//    computed once, and the diversity term is carried as a running minimum
//    folded forward only over patterns selected since the class was last
//    scored.
//  * BoundFirstArgmax — Algorithm 4's argmax over a table whose rows hold
//    either an exact score or an upper bound on it: exact diversity is
//    folded only for rows whose bound can still win.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/pattern_score.h"
#include "src/csg/csg.h"
#include "src/graph/flat_graph.h"

namespace catapult {

// Words of a packed coverage bitmap over `num_csgs` summaries.
inline size_t CoverageWords(size_t num_csgs) { return (num_csgs + 63) / 64; }

// The coverage-test targets: the CSG summaries in one flat arena with their
// label domains (view(i) and domains(i) are summary i).
FlatGraphDatabase BuildFlatSummaryIndex(
    const std::vector<ClusterSummaryGraph>& csgs);

// Marks, in the packed bitmap `out_words` (CoverageWords(index.size())
// words, overwritten), which summaries contain `pattern`, flattening the
// pattern once for all of them. Empty summaries are skipped (bit stays 0), a
// zero budget selects kDefaultCoverageIsoBudget, and each budget-truncated
// test conservatively reports "not contained" and increments
// `budget_exhausted` (optional, accumulated) so truncation is observable.
void CoveredCsgsFlat(const Graph& pattern, const FlatGraphDatabase& index,
                     uint64_t iso_node_budget, uint64_t* budget_exhausted,
                     uint64_t* out_words);

// Structure-of-arrays candidate table. Reset() re-dimensions every column
// for the iteration's candidate count, reusing capacity. During the
// parallel passes each worker writes only row i of each column; the
// ordered reduce then reads rows in candidate order.
class ScoreTable {
 public:
  void Reset(size_t candidates, size_t num_csgs);

  size_t size() const { return size_; }
  size_t coverage_words() const { return coverage_words_; }

  uint64_t* CoverageRow(size_t i) {
    return coverage_.data() + i * coverage_words_;
  }
  const uint64_t* CoverageRow(size_t i) const {
    return coverage_.data() + i * coverage_words_;
  }

  // Scored columns (Equation 2 terms and the product). score and div are
  // meaningful only in rows whose `exact` flag is set.
  std::vector<double> score, ccov, lcov, div, cog;
  // Diversity memo carried per row: running minimum and how many selected
  // patterns it has folded. Until the row is folded they hold the fold's
  // start, which `fold_graph` is folded from.
  std::vector<double> div_min;
  std::vector<uint32_t> div_folded;
  std::vector<const Graph*> fold_graph;
  // Upper bound on score, set in rows that are valid but not yet exact.
  std::vector<double> bound;
  std::vector<uint32_t> source_csg;
  std::vector<uint64_t> iso_exhausted;
  std::vector<uint8_t> valid, fresh, exact;

 private:
  friend int BoundFirstArgmax(
      ScoreTable& table,
      const std::function<bool(const uint32_t* rows, size_t n)>& evaluate);

  size_t size_ = 0;
  size_t coverage_words_ = 0;
  std::vector<uint64_t> coverage_;
  std::vector<uint32_t> pending_;  // BoundFirstArgmax's visiting order
};

// Rows handed to one BoundFirstArgmax wave. A constant, never the thread
// count or an option: which rows get evaluated then depends on the scores
// and bounds alone, so every work counter is thread-invariant.
inline constexpr size_t kBoundFirstWave = 6;

// Algorithm 4's argmax, bound-first (DESIGN.md §15). Every valid row either
// is `exact` (its score is final) or holds in `bound` an upper bound on the
// score it would get. The inexact rows are visited in descending bound
// order, row index breaking ties, in waves of kBoundFirstWave rows passed to
// `evaluate`, which must set score and exact for each row it evaluates.
// Before each wave the pass stops once the next bound is below the best
// exact score so far; a bound equal to it is still evaluated. It also stops
// after a wave for which `evaluate` returns false (a stop was requested);
// rows left inexact then are never read as scores. Returns the first row,
// in index order, of maximal exact score (strict >), or -1 when no row is
// exact: the row the eager argmax over every score would pick, since a row
// left unevaluated has bound, and so score, below the winner's.
int BoundFirstArgmax(
    ScoreTable& table,
    const std::function<bool(const uint32_t* rows, size_t n)>& evaluate);

// What the cross-iteration memo keeps about one isomorphism class.
struct SelectorClassEntry {
  Graph rep;                      // class representative: the first seen
  std::vector<uint64_t> covered;  // packed coverage bitmap
  double lcov = 0.0;
  double cog = 0.0;
  double div_min = std::numeric_limits<double>::max();
  uint32_t div_folded = 0;        // selected-prefix length folded in
};

// Cross-iteration memo from a class's CanonicalCode to its entry. The
// selector only looks codes up and inserts them, never iterates, so hash
// order cannot reach a panel.
using SelectorClassCache = std::unordered_map<std::string, SelectorClassEntry>;

// Budget-charge estimate for one cache entry (key + graph + bitmap +
// bookkeeping).
size_t ApproxClassEntryBytes(const std::string& code,
                             const SelectorClassEntry& entry);

}  // namespace catapult

#endif  // CATAPULT_CORE_SCORE_TABLE_H_
