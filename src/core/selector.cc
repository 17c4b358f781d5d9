#include "src/core/selector.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "src/iso/canonical_code.h"
#include "src/mining/frequent_edges.h"
#include "src/obs/metrics.h"
#include "src/util/thread_pool.h"

namespace catapult {

std::vector<Graph> SelectionResult::PatternGraphs() const {
  std::vector<Graph> graphs;
  graphs.reserve(patterns.size());
  for (const SelectedPattern& p : patterns) graphs.push_back(p.graph);
  return graphs;
}

namespace {

// Fills still-open size slots with frequent-edge path patterns after the
// deadline cut the greedy loop short (the last rung of the degradation
// ladder: the interface still shows a full, size-conforming panel).
void FillWithFallbackPatterns(const EdgeLabelIndex& edge_index,
                              const SelectorOptions& options,
                              std::vector<size_t>& selected_per_size,
                              std::unordered_set<std::string>& selected_codes,
                              SelectionResult& result) {
  // Per-size pools are built lazily and walked once; every pool entry is
  // distinct, so a full pass that adds nothing means the pools are dry.
  std::unordered_map<size_t, std::vector<Graph>> pool;
  std::unordered_map<size_t, size_t> next_in_pool;
  while (result.patterns.size() < options.budget.gamma) {
    std::vector<size_t> open_sizes =
        OpenPatternSizes(options.budget, selected_per_size);
    if (open_sizes.empty()) break;
    bool progress = false;
    for (size_t size : open_sizes) {
      if (result.patterns.size() >= options.budget.gamma) break;
      auto [it, inserted] = pool.try_emplace(size);
      if (inserted) {
        it->second =
            FrequentEdgePathPatterns(edge_index, size, options.budget.gamma);
      }
      std::vector<Graph>& candidates = it->second;
      size_t& next = next_in_pool[size];
      while (next < candidates.size()) {
        const Graph& candidate = candidates[next++];
        if (!selected_codes.insert(CanonicalCode(candidate)).second) continue;
        SelectedPattern fallback;
        fallback.graph = candidate;
        fallback.fallback = true;
        size_t slot = size - options.budget.eta_min;
        if (slot < selected_per_size.size()) ++selected_per_size[slot];
        result.patterns.push_back(std::move(fallback));
        ++result.fallback_patterns;
        progress = true;
        break;
      }
    }
    if (!progress) break;
  }
}

}  // namespace

void BuildCorpusIndices(const GraphDatabase& db, SelectionCorpus* corpus) {
  corpus->summary_index = BuildFlatSummaryIndex(corpus->csgs);
  corpus->label_index = LabelCoverageIndex(db);
}

SelectionResult FindCannedPatternSet(const GraphDatabase& db,
                                     const SelectionCorpus& corpus,
                                     const SelectorOptions& options, Rng& rng,
                                     const RunContext& ctx,
                                     const SelectorCheckpointHooks& hooks) {
  options.budget.Validate();
  const std::vector<std::vector<GraphId>>& clusters = corpus.clusters;
  const std::vector<ClusterSummaryGraph>& csgs = corpus.csgs;
  CATAPULT_CHECK(clusters.size() == csgs.size());

  SelectionResult result;
  if (csgs.empty() || db.empty()) return result;

  // One labelled-edge index of `db` serves lcov, the undecayed elw and the
  // deadline fallback.
  const LabelCoverageIndex& label_index = corpus.label_index;
  CATAPULT_CHECK(label_index.database_size() == db.size());
  EdgeLabelWeights elw(label_index);
  ClusterWeights cw(clusters, db.size());

  // Flat summary views + label domains for the coverage kernel.
  const FlatGraphDatabase& summary_index = corpus.summary_index;
  CATAPULT_CHECK(summary_index.size() == csgs.size());

  std::vector<Graph> selected_graphs;
  std::unordered_set<std::string> selected_codes;  // probed, never iterated
  std::vector<size_t> selected_per_size(options.budget.NumSizes(), 0);

  // Resume: replay the checkpointed loop invariant — panel, tallies, decayed
  // weights, and the rng stream position — exactly as the interrupted run
  // left them, so the remaining iterations are bit-identical to what the
  // uninterrupted run would have produced.
  if (hooks.resume != nullptr) {
    const SelectorCheckpointState& state = *hooks.resume;
    CATAPULT_CHECK(state.cluster_weights.size() == clusters.size());
    CATAPULT_CHECK(state.selected_per_size.size() == selected_per_size.size());
    CATAPULT_CHECK(state.rng.Valid());
    result.patterns = state.patterns;
    selected_per_size = state.selected_per_size;
    for (const SelectedPattern& p : state.patterns) {
      selected_codes.insert(CanonicalCode(p.graph));
      selected_graphs.push_back(p.graph);
    }
    cw.Restore(state.cluster_weights);
    elw.Restore(state.edge_label_weights);
    rng.RestoreState(state.rng);
  }

  // Captures the current loop invariant for hooks.on_pattern_selected.
  auto CaptureState = [&]() {
    SelectorCheckpointState state;
    state.patterns = result.patterns;
    state.selected_per_size = selected_per_size;
    state.cluster_weights = cw.Snapshot();
    state.edge_label_weights = elw.Snapshot();
    state.rng = rng.SaveState();
    return state;
  };

  // Cross-iteration memo (DESIGN.md §15): which CSGs contain a pattern, its
  // label coverage and cognitive load are all independent of the decaying
  // weights, and candidates recur heavily across iterations (the same FCPs
  // keep being proposed until their clusters decay away) — so each
  // isomorphism class is measured once and rescored cheaply against the
  // current weights. The diversity term is carried per class as a running
  // minimum folded forward over newly selected patterns only.
  //
  // The cache is the selector's only input-proportional allocation, so its
  // entries are charged against the memory budget; when a charge is refused
  // the freshly computed row is still used, just not retained.
  //
  // During the parallel scoring pass the cache is strictly read-only (looked
  // up by canonical code); freshly measured classes and diversity memo
  // updates are carried out in ScoreTable rows and written back — with
  // their budget charges — on the calling thread afterwards, in candidate
  // order.
  SelectorClassCache cache;
  size_t cache_charged_bytes = 0;
  ScoreTable table;

  while (selected_graphs.size() < options.budget.gamma) {
    if (ctx.StopRequested("selector.iteration")) {
      result.complete = false;
      break;
    }
    // Soft-limit pressure: the class cache is pure memoisation, so it is
    // the first thing to go — recomputing its rows trades time for bounded
    // memory.
    if (!cache.empty() && ctx.memory().SoftExceeded()) {
      obs::Count(obs::Counter::kSelectorCacheEvictions, cache.size());
      cache.clear();
      ctx.memory().Release(cache_charged_bytes);
      cache_charged_bytes = 0;
    }
    std::vector<size_t> open_sizes =
        OpenPatternSizes(options.budget, selected_per_size);
    if (open_sizes.empty()) break;

    // Every CSG proposes one FCP per open size. The (CSG, size) tasks are
    // enumerated — with their stop polls and rng stream splits — on the
    // calling thread in deterministic order, then executed on the pool into
    // per-task slots: each task walks its own pre-split child stream, so
    // neither the parent stream's consumption nor any task's walks depend
    // on the thread count or interleaving.
    struct CandidateTask {
      size_t csg_index;
      size_t size;
      size_t wcsg_index;
      Rng walk_rng{1};  // pre-split child stream (random-walk strategy only)
    };
    std::vector<WeightedCsg> wcsgs;
    wcsgs.reserve(csgs.size());
    std::vector<CandidateTask> tasks;
    for (size_t csg_index = 0; csg_index < csgs.size(); ++csg_index) {
      if (ctx.StopRequested("selector.candidates")) {
        result.complete = false;
        break;
      }
      const ClusterSummaryGraph& csg = csgs[csg_index];
      if (csg.NumEdges() == 0) continue;
      WeightedCsg wcsg = MakeWeightedCsg(csg, elw);
      // A CSG whose every edge weight decayed to zero proposes nothing.
      double weight_sum = 0.0;
      for (double w : wcsg.edge_weights) weight_sum += w;
      if (weight_sum <= 0.0) continue;
      wcsgs.push_back(std::move(wcsg));
      for (size_t size : open_sizes) {
        CandidateTask task;
        task.csg_index = csg_index;
        task.size = size;
        task.wcsg_index = wcsgs.size() - 1;
        if (options.strategy != CandidateStrategy::kGreedyBfs) {
          task.walk_rng = rng.Split();
        }
        tasks.push_back(std::move(task));
      }
    }

    struct Candidate {
      Graph graph;
      std::string code;  // CanonicalCode(graph), computed where generated
      size_t source_csg = 0;
      bool valid = false;
    };
    std::vector<Candidate> slots(tasks.size());
    ParallelFor(ctx, tasks.size(), 1, [&](size_t t) {
      CandidateTask& task = tasks[t];
      const WeightedCsg& wcsg = wcsgs[task.wcsg_index];
      const ClusterSummaryGraph& csg = *wcsg.csg;
      Pcp fcp;
      if (options.strategy == CandidateStrategy::kGreedyBfs) {
        fcp = GenerateGreedyPcp(wcsg, task.size);
      } else {
        std::vector<Pcp> library = GeneratePcpLibrary(
            wcsg, task.size, options.walks_per_candidate, task.walk_rng, ctx);
        fcp = GenerateFcp(csg, library, task.size);
      }
      if (fcp.size() < options.budget.eta_min) return;
      slots[t].graph = PatternFromCsgEdges(csg, fcp);
      slots[t].code = CanonicalCode(slots[t].graph);
      slots[t].source_csg = task.csg_index;
      slots[t].valid = true;
    });

    std::vector<Candidate> candidates;
    candidates.reserve(slots.size());
    for (Candidate& c : slots) {
      if (c.valid) candidates.push_back(std::move(c));
    }
    if (candidates.empty()) break;

    // Different CSGs frequently propose isomorphic FCPs (molecule databases
    // share motifs); scoring is the expensive part, so collapse candidates
    // to the first-seen representative of each isomorphism class first.
    {
      std::unordered_set<std::string> seen;  // probed, never iterated
      std::vector<Candidate> unique;
      for (Candidate& c : candidates) {
        if (seen.insert(c.code).second) {
          unique.push_back(std::move(c));
        } else {
          obs::Count(obs::Counter::kPcpDeduplicated);
        }
      }
      candidates = std::move(unique);
    }

    // Diversity GED also tightens toward the deadline (still an admissible
    // upper bound when truncated). Truncated GED values can depend on the
    // effective budget, so the diversity memo is only read or written while
    // the budget is untightened — deadline-degraded iterations fold every
    // candidate from scratch and leave the memo untouched.
    GedOptions ged = options.ged;
    ged.node_budget = ctx.TightenNodeBudget(ged.node_budget);
    const bool div_memo_ok = options.approximate_diversity ||
                             ged.node_budget == options.ged.node_budget;

    // Score candidates in two passes over the structure-of-arrays table
    // (DESIGN.md §15, bound-first). During both, every shared structure
    // (class cache, cluster/label weights, selected panel) is read-only and
    // each candidate fills only its own row. The cheap pass fills ccov, lcov
    // and cog, and either the exact diversity, where no GED search is
    // needed, or an upper bound on the score. The exact pass then folds
    // diversity only for rows whose bound can still win. The iso-budget
    // tally and all cache inserts + memo write-backs + memory charges run
    // afterwards on the calling thread in candidate order, and the winner —
    // including the strict-> first-max tie-break — is the one the
    // sequential scan over every exact score would have picked.
    table.Reset(candidates.size(), csgs.size());
    const SelectorClassCache& ro_cache = cache;  // both passes: lookups only
    const size_t panel_size = selected_graphs.size();
    // Folds row i's diversity memo over the rest of the panel and scores the
    // row exactly (an empty panel scores the neutral div 1).
    auto fold_and_score = [&](size_t i, bool approximate) {
      table.div_min[i] = FoldDiversity(*table.fold_graph[i], selected_graphs,
                                       table.div_folded[i], table.div_min[i],
                                       ged, approximate);
      table.div_folded[i] = static_cast<uint32_t>(panel_size);
      table.div[i] = panel_size == 0 ? 1.0 : table.div_min[i];
      table.score[i] = PatternScore(table.ccov[i], table.lcov[i], table.div[i],
                                    table.cog[i]);
      table.exact[i] = 1;
    };
    std::atomic<bool> stop_scoring{false};
    ParallelFor(ctx, candidates.size(), 1, [&](size_t i) {
      // Once a stop is observed, later candidates bail out without polling
      // again: at one thread this reproduces the sequential break exactly
      // (no extra failpoint evaluations), at N threads in-flight candidates
      // simply finish.
      if (stop_scoring.load(std::memory_order_relaxed)) return;
      if (ctx.StopRequested("selector.score")) {
        stop_scoring.store(true, std::memory_order_relaxed);
        return;
      }
      const Graph& g = candidates[i].graph;
      // FCP assembly can fall short of the requested size; keep only
      // candidates whose actual size is still open, preserving the uniform
      // size distribution of Definition 3.1.
      if (std::find(open_sizes.begin(), open_sizes.end(), g.NumEdges()) ==
          open_sizes.end()) {
        return;
      }
      if (selected_codes.contains(candidates[i].code)) return;
      uint64_t* row = table.CoverageRow(i);
      const auto hit = ro_cache.find(candidates[i].code);
      // Diversity fold start: the candidate's own graph from scratch
      // (Reset's div_folded 0, div_min +max), unless its class memo may be
      // resumed (below).
      table.fold_graph[i] = &g;
      if (hit != ro_cache.end()) {
        obs::Count(obs::Counter::kSelectorCacheHits);
        const SelectorClassEntry& entry = hit->second;
        for (size_t w = 0; w < table.coverage_words(); ++w) {
          row[w] = entry.covered[w];
        }
        table.lcov[i] = entry.lcov;
        table.cog[i] = entry.cog;
        if (div_memo_ok) {
          // Fold only the patterns selected since this class was last
          // scored; the running minimum over the full panel is identical to
          // the from-scratch fold (see FoldDiversity).
          table.fold_graph[i] = &entry.rep;
          table.div_folded[i] = entry.div_folded;
          table.div_min[i] = entry.div_min;
        }
      } else {
        obs::Count(obs::Counter::kSelectorCacheMisses);
        // Near the deadline each iso test gets only the nodes still
        // affordable, so one adversarial summary cannot eat the whole
        // selection slice.
        uint64_t iso_budget = ctx.TightenNodeBudget(options.iso_node_budget);
        CoveredCsgsFlat(g, summary_index, iso_budget, &table.iso_exhausted[i],
                        row);
        table.fresh[i] = 1;
        table.lcov[i] = label_index.PatternLabelCoverage(g);
        table.cog[i] = CognitiveLoad(g);
      }
      // ccov rescored against the current decayed weights, summing in
      // ascending cluster order (the same fold order as the scalar loop).
      double ccov = 0.0;
      for (size_t w = 0; w < table.coverage_words(); ++w) {
        uint64_t bits = row[w];
        while (bits != 0) {
          size_t c = (w << 6) + static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          ccov += cw.Get(c);
        }
      }
      table.ccov[i] = ccov;
      table.source_csg[i] = static_cast<uint32_t>(candidates[i].source_csg);
      table.valid[i] = 1;
      // Exact without a branch-and-bound search: a memo that already covers
      // the panel (an empty panel included) folds an empty range, and the
      // polynomial approximate oracle stays eager.
      if (options.approximate_diversity || table.div_folded[i] == panel_size) {
        fold_and_score(i, options.approximate_diversity);
        return;
      }
      table.bound[i] = PatternScore(
          ccov, table.lcov[i],
          FoldDiversityBound(*table.fold_graph[i], selected_graphs,
                             table.div_folded[i], table.div_min[i]),
          table.cog[i]);
    });
    bool stopped_scoring = stop_scoring.load(std::memory_order_relaxed);

    // The exact pass: FoldDiversity, in bound-descending waves, for the rows
    // whose bound can still win. It polls its own site before each fold, so
    // a deadline cuts the GED searches; on a stop the argmax still reads
    // exactly scored rows only.
    std::atomic<bool> stop_exact{false};
    const int best_index =
        BoundFirstArgmax(table, [&](const uint32_t* rows, size_t n) {
          ParallelFor(ctx, n, 1, [&](size_t k) {
            if (stop_exact.load(std::memory_order_relaxed)) return;
            if (ctx.StopRequested("selector.exact_div")) {
              stop_exact.store(true, std::memory_order_relaxed);
              return;
            }
            fold_and_score(rows[k], /*approximate=*/false);
          });
          return !stop_exact.load(std::memory_order_relaxed);
        });
    stopped_scoring = stopped_scoring || stop_exact.load();
    if (stopped_scoring) result.complete = false;

    // Ordered reduce: tallies, the iteration record, and cache retention and
    // memo write-backs (with their budget charges, in the same candidate
    // order the sequential code charged). A row never folded carries its
    // fold start as its memo: a fresh class enters the cache with an empty
    // memo, and a cache hit keeps its older prefix, which a later fold
    // resumes to the same value (FoldDiversity's split-point invariance).
    SelectionIteration record;
    for (size_t i = 0; i < table.size(); ++i) {
      result.iso_budget_exhausted += table.iso_exhausted[i];
      if (!table.valid[i]) continue;
      ++record.candidates;
      if (table.exact[i]) {
        ++record.exact;
      } else {
        ++record.skipped;
        record.best_skipped_bound =
            std::max(record.best_skipped_bound, table.bound[i]);
      }
      if (table.fresh[i]) {
        SelectorClassEntry entry;
        entry.rep = candidates[i].graph;
        entry.covered.assign(table.CoverageRow(i),
                             table.CoverageRow(i) + table.coverage_words());
        entry.lcov = table.lcov[i];
        entry.cog = table.cog[i];
        if (div_memo_ok) {
          entry.div_min = table.div_min[i];
          entry.div_folded = table.div_folded[i];
        }
        size_t bytes = ApproxClassEntryBytes(candidates[i].code, entry);
        if (ctx.memory().TryCharge(bytes, "selector.cache")) {
          cache_charged_bytes += bytes;
          cache.emplace(candidates[i].code, std::move(entry));
          obs::SetGaugeMax(obs::Gauge::kSelectorCachePeak, cache.size());
        }
      } else if (div_memo_ok) {
        // A scored row that is not fresh was a cache hit.
        SelectorClassEntry& entry = cache.at(candidates[i].code);
        entry.div_min = table.div_min[i];
        entry.div_folded = table.div_folded[i];
      }
    }
    obs::Count(obs::Counter::kSelectorBoundSkipped, record.skipped);
    if (best_index >= 0) record.winning_score = table.score[best_index];
    if (record.candidates > 0) result.iterations.push_back(record);
    if (best_index < 0) break;

    // Record the winner and decay weights (Algorithm 4, lines 19-21).
    SelectedPattern best;
    best.graph = candidates[best_index].graph;
    best.score = table.score[best_index];
    best.ccov = table.ccov[best_index];
    best.lcov = table.lcov[best_index];
    best.div = table.div[best_index];
    best.cog = table.cog[best_index];
    best.source_csg = table.source_csg[best_index];
    size_t size_slot = best.graph.NumEdges() - options.budget.eta_min;
    if (size_slot < selected_per_size.size()) ++selected_per_size[size_slot];
    const uint64_t* covered = table.CoverageRow(best_index);
    for (size_t w = 0; w < table.coverage_words(); ++w) {
      uint64_t bits = covered[w];
      while (bits != 0) {
        size_t c = (w << 6) + static_cast<size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        cw.Decay(c, options.weight_decay);
      }
    }
    elw.DecayForPattern(best.graph, options.weight_decay);
    selected_codes.insert(std::move(candidates[best_index].code));
    selected_graphs.push_back(best.graph);
    result.patterns.push_back(std::move(best));
    if (hooks.on_pattern_selected) hooks.on_pattern_selected(CaptureState());
    if (!result.complete || stopped_scoring) break;
  }

  // Deadline degradation: top the panel up from frequent edges. Skipped on
  // natural termination (candidates ran dry), which is not a deadline event.
  if (!result.complete) {
    FillWithFallbackPatterns(label_index.graphs_with_key(), options,
                             selected_per_size, selected_codes, result);
  }
  return result;
}

}  // namespace catapult
