#include "src/core/catapult.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>

#include "src/cluster/facility_location.h"
#include "src/cluster/kmeans.h"
#include "src/dist/supervisor.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"

namespace catapult {

namespace {

// FNV-1a 64-bit accumulator for the config fingerprint.
class Fingerprinter {
 public:
  void Mix(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void MixDouble(double value) { Mix(std::bit_cast<uint64_t>(value)); }
  void MixString(const std::string& value) {
    Mix(value.size());
    for (char c : value) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// Deadline shares of the corpus phases (DESIGN.md §7): clustering gets this
// fraction of the remaining time, CSG folding this fraction of the
// then-remaining time, and selection runs against the whole deadline. A
// phase finishing early donates its unused allowance to the later ones.
constexpr double kClusteringTimeShare = 0.45;
constexpr double kCsgTimeShare = 0.3;

// `ctx` merged with `options` — the one context a pipeline entry point runs
// under. The effective deadline is the earlier of the caller's and
// options.deadline_ms (the cancellation token is shared either way), option
// memory limits supersede the caller's (by default unlimited) ledger, and a
// pool sized by options.threads is owned when the caller brought none or
// asked for a specific count (a 1-thread pool spawns no threads and
// executes inline, so the default path stays exactly sequential).
//
// Sharded mode (processes > 1) forces a 1-thread pool instead: forking a
// multithreaded process is undefined behaviour territory (only the forking
// thread survives in the child), so the supervisor stays single-threaded
// until every fork is behind it; each member builds its own
// `threads`-sized pool after the fork, and the selection phase builds the
// real pool once the sharded phase has returned.
RunContext MergeOptionsContext(const CatapultOptions& options,
                               const RunContext& ctx,
                               std::unique_ptr<ThreadPool>* owned_pool) {
  RunContext run_ctx = ctx;
  if (options.deadline_ms > 0.0) {
    run_ctx =
        RunContext(Deadline::Earliest(ctx.deadline(),
                                      Deadline::AfterMillis(options.deadline_ms)),
                   ctx.cancel_token(), ctx.memory())
            .WithPool(ctx.pool())
            .WithObservability(ctx.metrics(), ctx.tracer());
  }
  if (options.mem_hard_limit_bytes != 0 || options.mem_soft_limit_bytes != 0) {
    run_ctx = run_ctx.WithMemory(MemoryBudget::Limited(
        options.mem_soft_limit_bytes, options.mem_hard_limit_bytes));
  }
  const bool sharded = options.processes > 1;
  if (sharded || run_ctx.pool() == nullptr || options.threads != 0) {
    *owned_pool = std::make_unique<ThreadPool>(
        sharded ? 1 : ResolveThreadCount(options.threads));
    run_ctx = run_ctx.WithPool(owned_pool->get());
  }
  return run_ctx;
}

// The run's ConfigFingerprint — checkpoint and shard-artifact compatibility,
// the corpus identity /statusz reports — which also names its trace: same
// (options, db, seed), same trace id, so a rerun produces byte-identical
// trace documents under fixed ticks. An id the caller already installed
// (e.g. the serving loop's per-corpus id) is kept.
uint64_t FingerprintRun(const CatapultOptions& options,
                        const GraphDatabase& db, const RunContext& ctx) {
  const uint64_t fingerprint = ConfigFingerprint(options, db);
  if (ctx.tracer() != nullptr && ctx.tracer()->trace_id() == 0) {
    ctx.tracer()->SetTraceId(fingerprint ^ options.seed);
  }
  return fingerprint;
}

// Wall time and pool activity of one phase, from construction to Finish.
class PhaseClock {
 public:
  explicit PhaseClock(const ThreadPool& pool)
      : pool_(pool), before_(pool.stats()) {}

  // Fills `out` and returns the phase's wall seconds.
  double Finish(PhaseParallelStats* out) const {
    const ThreadPool::Stats after = pool_.stats();
    out->wall_seconds = timer_.ElapsedSeconds();
    out->busy_seconds = after.busy_seconds - before_.busy_seconds;
    out->parallel_items = after.items - before_.items;
    return out->wall_seconds;
  }

 private:
  WallTimer timer_;
  const ThreadPool& pool_;
  ThreadPool::Stats before_;
};

// RunCatapult's durability layer over the corpus phases (DESIGN.md §8): the
// phase chain recovered from the checkpoint directory, restored instead of
// recomputed, and the store each fully completed phase is checkpointed to
// (null when there is no directory).
struct Durability {
  CheckpointStore::Recovery recovery;
  CheckpointStore* store = nullptr;
};

// Makes a finished corpus phase durable, logging the decision in `report`.
// Only fully completed phases are checkpointed: a deadline-degraded phase
// is re-run on resume rather than frozen below its potential. The test-only
// `crash_site` failpoint models a kill immediately after the checkpoint
// became durable.
template <typename Save>
void CheckpointPhase(const char* phase, bool complete, Save save,
                     const char* crash_site, const RunContext& ctx,
                     ExecutionReport* report) {
  if (!complete) {
    report->checkpoint_events.push_back(
        {CheckpointEvent::Kind::kCheckpointSkipped, phase,
         "phase incomplete under deadline"});
    return;
  }
  const std::string error = save();
  if (error.empty()) {
    ++report->checkpoints_written;
    report->checkpoint_events.push_back(
        {CheckpointEvent::Kind::kPhaseCheckpointed, phase, ""});
  } else {
    report->checkpoint_events.push_back(
        {CheckpointEvent::Kind::kCheckpointWriteFailed, phase, error});
  }
  if (CATAPULT_FAILPOINT(crash_site)) ctx.Cancel();
}

// Phases 1-4, the corpus phases: coarse stage, fine clustering (in-process,
// or sharded across member processes together with CSG folding under
// `processes` > 1), CSG folding and the corpus indices (BuildCorpusIndices).
// Phase spans are children of `parent_span`. `durability` (RunCatapult's;
// null for PrepareCorpus) restores phases from its recovery chain and
// checkpoints the completed ones. `corpus->fingerprint` must already be set.
void RunCorpusPhases(const GraphDatabase& db, const CatapultOptions& options,
                     const RunContext& run_ctx, uint64_t parent_span,
                     Durability* durability, PreparedCorpus* corpus) {
  CheckpointStore::Recovery* recovery =
      durability != nullptr ? &durability->recovery : nullptr;
  CheckpointStore* store = durability != nullptr ? durability->store : nullptr;
  ExecutionReport& report = corpus->execution;
  Rng rng(options.seed);
  // Phase spans close just before each phase's stats are finalised, so the
  // trace duration matches the reported wall time. Span objects are inert
  // (and free) when the context has no tracer.
  std::optional<obs::Span> phase_span;

  // Sharded mode folds the CSGs inside the clustering phase's sharded
  // executor (fine clustering + folding are one unit of per-cluster work);
  // the CSG phase then adopts them instead of re-folding.
  bool csgs_folded = false;

  // --- Clustering ---
  PhaseClock clustering_clock(*run_ctx.pool());
  phase_span.emplace(run_ctx.tracer(), "clustering", parent_span);
  if (recovery != nullptr && recovery->clustering.has_value()) {
    corpus->clusters = std::move(recovery->clustering->clusters);
    corpus->features = std::move(recovery->clustering->features);
    // Continue the pseudo-random stream exactly where the checkpointed
    // clustering phase left it, so later phases draw the same values the
    // uninterrupted run would have drawn.
    rng.RestoreState(recovery->clustering->rng_after);
    report.resumed_from = "clustering";
    report.checkpoint_events.push_back(
        {CheckpointEvent::Kind::kResumedFromPhase, "clustering",
         std::to_string(corpus->clusters.size()) + " clusters"});
  } else {
    RunContext clustering_ctx = run_ctx.Slice(kClusteringTimeShare);
    // Sampling (Section 4.3) replaces the coarse stage's mining step and
    // thins oversized coarse clusters before the fine stage.
    ClusteringResult clustering = CoarseClusteringStage(
        db, AllGraphIds(db), options.clustering, rng, clustering_ctx,
        options.use_sampling ? &options.eager : nullptr);
    if (options.use_sampling) {
      clustering.clusters = LazySampleClusters(clustering.clusters, db.size(),
                                               options.lazy, rng);
    }
    // Fine clustering splits coarse cluster i under streams[i], split off
    // here once per coarse cluster and before any work, so partitions and
    // the parent stream's position are the same in-process, sharded and at
    // any thread count. Under memory soft pressure the stage is shed before
    // any stream is split: fine splitting is optional refinement (its MCS
    // working sets grow quadratically in cluster size), so the coarse
    // partition is kept — the degradation ladder's coarse-only rung.
    const bool fine_enabled =
        options.clustering.mode != ClusteringMode::kCoarseOnly;
    std::vector<RngState> streams;
    if (fine_enabled && run_ctx.memory().SoftExceeded()) {
      clustering.fine_complete = false;
    } else if (fine_enabled) {
      streams = SplitFineStreams(rng, clustering.clusters.size());
    }
    const FineClusteringOptions fine{options.clustering.max_cluster_size,
                                     options.clustering.fine_mcs};
    if (options.processes > 1) {
      // The sharded phase spans fine clustering and CSG folding, so its
      // slice covers both phases' shares. It saves shard records only in
      // RunCatapult's store, and reuses them only under --resume; without
      // a store they stay in memory.
      dist::ShardedPhasesResult sharded = dist::RunShardedClusterPhases(
          db, clustering.clusters, streams, options, corpus->fingerprint,
          store, run_ctx.Slice(kClusteringTimeShare + kCsgTimeShare),
          &report.dist);
      clustering.clusters = std::move(sharded.fine_clusters);
      if (!sharded.fine_complete) clustering.fine_complete = false;
      corpus->csgs = std::move(sharded.csgs);
      report.degraded_csgs = sharded.degraded_csgs;
      csgs_folded = true;
    } else if (fine_enabled) {
      obs::Span fine_span(clustering_ctx.tracer(), "clustering.fine");
      if (!streams.empty()) {
        clustering.clusters =
            FineCluster(db, std::move(clustering.clusters), streams, fine,
                        clustering_ctx, &clustering.fine_complete);
      }
    }
    corpus->clusters = std::move(clustering.clusters);
    corpus->features = std::move(clustering.features);
    report.clustering_complete = clustering.Complete();
    report.clustering_coarse_only = !clustering.fine_complete;
    if (store != nullptr) {
      CheckpointPhase(
          "clustering", clustering.Complete(),
          [&] {
            ClusteringArtifact artifact;
            artifact.clusters = corpus->clusters;
            artifact.features = corpus->features;
            artifact.rng_after = rng.SaveState();
            return store->SaveClustering(artifact);
          },
          "catapult.crash_after_clustering_checkpoint", run_ctx, &report);
    }
  }
  phase_span.reset();
  corpus->clustering_seconds =
      clustering_clock.Finish(&report.clustering_parallel);

  // --- CSG generation ---
  PhaseClock csg_clock(*run_ctx.pool());
  phase_span.emplace(run_ctx.tracer(), "csg", parent_span);
  if (recovery != nullptr && recovery->csgs.has_value()) {
    corpus->csgs = std::move(recovery->csgs->csgs);
    rng.RestoreState(recovery->csgs->rng_after);
    report.resumed_from = "csgs";
    report.checkpoint_events.push_back(
        {CheckpointEvent::Kind::kResumedFromPhase, "csgs",
         std::to_string(corpus->csgs.size()) + " summaries"});
  } else {
    if (!csgs_folded) {
      corpus->csgs = BuildCsgs(db, corpus->clusters,
                               run_ctx.Slice(kCsgTimeShare),
                               &report.degraded_csgs);
    }
    report.csg_complete = report.degraded_csgs == 0;
    if (store != nullptr) {
      CheckpointPhase(
          "csgs", report.csg_complete,
          [&] {
            CsgArtifact artifact;
            artifact.csgs = corpus->csgs;
            artifact.rng_after = rng.SaveState();
            return store->SaveCsgs(artifact);
          },
          "catapult.crash_after_csg_checkpoint", run_ctx, &report);
    }
  }
  phase_span.reset();
  corpus->csg_seconds = csg_clock.Finish(&report.csg_parallel);

  BuildCorpusIndices(db, corpus);
  corpus->rng_after_csg = rng.SaveState();
}

// Phase 5, selection on `corpus` under a span below `parent_span`. The seed
// stream resumes exactly where the corpus phases left it — the invariant
// that makes a selection on a prepared corpus bit-identical to the one-shot
// run. Fills `result->selection` and the selection, thread and memory
// fields of its ExecutionReport.
void RunSelectionPhase(const GraphDatabase& db, const PreparedCorpus& corpus,
                       const CatapultOptions& options, RunContext run_ctx,
                       uint64_t parent_span,
                       const SelectorCheckpointHooks& hooks,
                       CatapultResult* result) {
  // A sharded run's corpus phases ran on a 1-thread pool so no pool thread
  // existed across fork(); every fork is behind us now, so selection gets
  // the pool an in-process run would have used.
  std::unique_ptr<ThreadPool> selection_pool;
  if (options.processes > 1) {
    selection_pool =
        std::make_unique<ThreadPool>(ResolveThreadCount(options.threads));
    run_ctx = run_ctx.WithPool(selection_pool.get());
    obs::SetGaugeMax(obs::Gauge::kPoolThreads, selection_pool->num_threads());
  }
  ExecutionReport& exec = result->execution;
  const MemoryBudget& memory = run_ctx.memory();
  exec.deadline_set = !run_ctx.Unlimited();
  exec.threads = run_ctx.pool()->num_threads();
  exec.mem_budget_set = memory.limited();
  exec.mem_soft_limit = memory.soft_limit();
  exec.mem_hard_limit = memory.hard_limit();

  PhaseClock selection_clock(*run_ctx.pool());
  obs::Span selection_span(run_ctx.tracer(), "selection", parent_span);
  Rng rng(options.seed);
  rng.RestoreState(corpus.rng_after_csg);
  result->selection =
      FindCannedPatternSet(db, corpus, options.selector, rng, run_ctx, hooks);
  selection_span.Close();
  result->selection_seconds =
      selection_clock.Finish(&exec.selection_parallel);
  exec.selection_complete = result->selection.complete;
  exec.fallback_patterns = result->selection.fallback_patterns;
  exec.iso_budget_exhausted = result->selection.iso_budget_exhausted;

  exec.mem_peak_bytes = memory.peak();
  exec.mem_soft_exceeded =
      memory.soft_limit() != 0 && memory.peak() >= memory.soft_limit();
  exec.mem_hard_breached = memory.HardBreached();
  if (exec.mem_hard_breached) exec.resource_error = memory.error();
}

}  // namespace

size_t ResolveThreadCount(size_t configured) {
  if (configured != 0) return configured;
  const char* env = std::getenv("CATAPULT_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    unsigned long value = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') {
      return value == 0 ? ThreadPool::HardwareThreads()
                        : static_cast<size_t>(value);
    }
  }
  return 1;
}

std::vector<OptionsError> ValidateCatapultOptions(
    const CatapultOptions& options) {
  std::vector<OptionsError> errors;
  auto Err = [&errors](std::string field, std::string message) {
    errors.push_back({std::move(field), std::move(message)});
  };

  const PatternBudget& budget = options.selector.budget;
  if (budget.eta_min <= 2) {
    Err("selector.budget.eta_min", "must exceed 2 (Definition 3.1)");
  }
  if (budget.eta_max < budget.eta_min) {
    Err("selector.budget.eta_max", "must be at least eta_min");
  }
  if (budget.eta_max > kMaxPatternEdges) {
    Err("selector.budget.eta_max",
        "must be at most " + std::to_string(kMaxPatternEdges));
  }
  if (budget.gamma == 0) {
    Err("selector.budget.gamma", "must be positive");
  }
  if (!budget.size_distribution.empty()) {
    if (budget.eta_max >= budget.eta_min &&
        budget.size_distribution.size() != budget.NumSizes()) {
      Err("selector.budget.size_distribution",
          "needs one weight per size in [eta_min, eta_max]");
    }
    double total = 0.0;
    bool malformed = false;
    for (double w : budget.size_distribution) {
      if (!(w >= 0.0) || !std::isfinite(w)) malformed = true;
      total += w;
    }
    if (malformed) {
      Err("selector.budget.size_distribution",
          "weights must be finite and non-negative");
    } else if (!(total > 0.0)) {
      Err("selector.budget.size_distribution",
          "needs at least one positive weight");
    }
  }
  if (options.selector.strategy == CandidateStrategy::kRandomWalk &&
      options.selector.walks_per_candidate == 0) {
    Err("selector.walks_per_candidate",
        "must be positive for the random-walk strategy");
  }
  if (!(options.selector.weight_decay > 0.0 &&
        options.selector.weight_decay <= 1.0)) {
    Err("selector.weight_decay", "must be in (0, 1]");
  }
  // k-means derives k from it; fine clustering splits down to it.
  const bool fine = options.clustering.mode != ClusteringMode::kCoarseOnly;
  if (options.clustering.max_cluster_size < (fine ? 2u : 1u)) {
    Err("clustering.max_cluster_size",
        fine ? "must be at least 2 when fine clustering runs"
             : "must be positive");
  }
  if (!(options.clustering.miner.min_support > 0.0 &&
        options.clustering.miner.min_support <= 1.0)) {
    Err("clustering.miner.min_support", "must be in (0, 1]");
  }
  if (options.clustering.miner.max_edges == 0) {
    Err("clustering.miner.max_edges", "must be positive");
  }
  if (!(options.deadline_ms >= 0.0) || !std::isfinite(options.deadline_ms)) {
    Err("deadline_ms", "must be finite and non-negative");
  }
  if (options.threads > ThreadPool::kMaxThreads) {
    Err("threads", "must not exceed ThreadPool::kMaxThreads (256)");
  }
  if (options.use_sampling) {
    if (!(options.eager.epsilon > 0.0) ||
        !std::isfinite(options.eager.epsilon)) {
      Err("eager.epsilon", "must be positive and finite");
    }
    if (!(options.eager.rho > 0.0 && options.eager.rho < 1.0)) {
      Err("eager.rho", "must be in (0, 1)");
    }
    if (!(options.eager.phi > 0.0 && options.eager.phi < 1.0)) {
      Err("eager.phi", "must be in (0, 1)");
    }
    if (!(options.lazy.p > 0.0 && options.lazy.p < 1.0)) {
      Err("lazy.p", "must be in (0, 1)");
    }
    if (!(options.lazy.z > 0.0) || !std::isfinite(options.lazy.z)) {
      Err("lazy.z", "must be positive and finite");
    }
    if (!(options.lazy.e > 0.0) || !std::isfinite(options.lazy.e)) {
      Err("lazy.e", "must be positive and finite");
    }
  }
  if (options.resume && options.checkpoint_dir.empty()) {
    Err("resume", "requires checkpoint_dir to be set");
  }
  if (options.processes > 64) {
    Err("processes", "must not exceed 64");
  }
  if (options.max_shard_retries > 16) {
    Err("max_shard_retries", "must not exceed 16");
  }
  if (!(options.shard_heartbeat_timeout_ms > 0.0) ||
      !std::isfinite(options.shard_heartbeat_timeout_ms)) {
    Err("shard_heartbeat_timeout_ms", "must be positive and finite");
  }
  if (!(options.shard_backoff_base_ms >= 0.0) ||
      !std::isfinite(options.shard_backoff_base_ms)) {
    Err("shard_backoff_base_ms", "must be finite and non-negative");
  }
  if (!(options.shard_backoff_cap_ms >= options.shard_backoff_base_ms) ||
      !std::isfinite(options.shard_backoff_cap_ms)) {
    Err("shard_backoff_cap_ms",
        "must be finite and at least shard_backoff_base_ms");
  }
  if (options.mem_soft_limit_bytes != 0 && options.mem_hard_limit_bytes != 0 &&
      options.mem_soft_limit_bytes > options.mem_hard_limit_bytes) {
    Err("mem_soft_limit_bytes", "must not exceed mem_hard_limit_bytes");
  }
  const bool remote = !options.dist_listen.empty() ||
                      options.dist_listen_fd >= 0;
  if (remote && options.processes <= 1) {
    Err("dist_listen", "requires processes > 1 (sharded execution)");
  }
  if (!options.dist_listen.empty() && options.dist_listen_fd >= 0) {
    Err("dist_listen", "mutually exclusive with dist_listen_fd");
  }
  if (!(options.dist_join_timeout_ms > 0.0) ||
      !std::isfinite(options.dist_join_timeout_ms)) {
    Err("dist_join_timeout_ms", "must be positive and finite");
  }
  return errors;
}

uint64_t ConfigFingerprint(const CatapultOptions& options,
                           const GraphDatabase& db) {
  Fingerprinter fp;
  fp.Mix(options.seed);

  const PatternBudget& budget = options.selector.budget;
  fp.Mix(budget.eta_min);
  fp.Mix(budget.eta_max);
  fp.Mix(budget.gamma);
  fp.Mix(budget.size_distribution.size());
  for (double w : budget.size_distribution) fp.MixDouble(w);

  const SelectorOptions& sel = options.selector;
  fp.Mix(sel.walks_per_candidate);
  fp.Mix(static_cast<uint64_t>(sel.strategy));
  fp.MixDouble(sel.weight_decay);
  fp.Mix(sel.iso_node_budget);
  fp.Mix(sel.ged.node_budget);
  fp.Mix(sel.approximate_diversity ? 1 : 0);
  // Duplicate skipping, once a switch, is always on; mixing its old value
  // keeps checkpoint fingerprints and trace ids unchanged.
  fp.Mix(1);

  // Seven clustering values were options once and are fixed now: k-means
  // as the coarse algorithm (0), k derived from max_cluster_size (0), no cap
  // on mined subtrees (0), the miner's per-level candidate cap, facility
  // location's defaults and k-means' iteration cap. Mixing each in its old
  // position keeps checkpoint fingerprints and trace ids unchanged.
  const SmallGraphClusteringOptions& cl = options.clustering;
  const FacilitySelectionOptions facility;
  fp.Mix(static_cast<uint64_t>(cl.mode));
  fp.Mix(0);
  fp.Mix(cl.max_cluster_size);
  fp.Mix(0);
  fp.MixDouble(cl.miner.min_support);
  fp.Mix(cl.miner.max_edges);
  fp.Mix(0);
  fp.Mix(kSubtreeCandidatesPerLevel);
  fp.Mix(facility.max_selected);
  fp.MixDouble(facility.min_relative_gain);
  fp.Mix(cl.fine_mcs.connected ? 1 : 0);
  fp.Mix(cl.fine_mcs.match_edge_labels ? 1 : 0);
  fp.Mix(cl.fine_mcs.node_budget);
  fp.Mix(KMeansOptions{}.max_iterations);

  fp.Mix(options.use_sampling ? 1 : 0);
  fp.MixDouble(options.eager.epsilon);
  fp.MixDouble(options.eager.rho);
  fp.MixDouble(options.eager.phi);
  fp.MixDouble(options.lazy.p);
  fp.MixDouble(options.lazy.z);
  fp.MixDouble(options.lazy.e);
  fp.Mix(options.lazy.min_cluster_size_to_sample);

  // `processes` and the supervision knobs (retries, heartbeat, backoff) are
  // excluded for the same reason as `threads`: shard boundaries and retry
  // timing never affect the output, so checkpoints resume across process
  // counts.

  // The ingestion quarantine digest: database ids are dense over the
  // *kept* graphs, so two ingestions of the same file that quarantined
  // different graphs produce incompatible id spaces even if they hash
  // alike otherwise — a resume across them must be rejected.
  fp.Mix(options.ingest_digest);

  // Structural hash of D: a checkpoint is only compatible with the exact
  // database it was computed from. Deadline and memory-budget options are
  // deliberately excluded — resuming a killed run under a new time or
  // memory budget is the point.
  fp.Mix(db.size());
  for (Label l = 0; l < db.labels().size(); ++l) {
    fp.MixString(db.labels().Name(l));
  }
  for (GraphId id = 0; id < db.size(); ++id) {
    const Graph& g = db.graph(id);
    fp.Mix(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) fp.Mix(g.VertexLabel(v));
    fp.Mix(g.NumEdges());
    for (const Edge& e : g.EdgeList()) {
      fp.Mix(e.u);
      fp.Mix(e.v);
      fp.Mix(e.label);
    }
  }
  return fp.hash();
}

CatapultResult RunCatapult(const GraphDatabase& db,
                           const CatapultOptions& options,
                           const RunContext& ctx) {
  CatapultResult result;
  result.option_errors = ValidateCatapultOptions(options);
  if (!result.ok() || db.empty()) return result;
  std::unique_ptr<ThreadPool> owned_pool;
  const RunContext run_ctx = MergeOptionsContext(options, ctx, &owned_pool);
  // Observability: install the calling thread's metrics shard for the whole
  // run (worker threads install theirs per parallel region inside the
  // pool), and open the root span. Both are no-ops when the context carries
  // no registry/tracer; neither ever influences pipeline decisions, so a
  // traced run stays bit-identical to an untraced one.
  obs::ScopedMetricsScope metrics_scope(run_ctx.metrics());
  obs::Span run_span(run_ctx.tracer(), "catapult.run");
  obs::SetGaugeMax(obs::Gauge::kPoolThreads, run_ctx.pool()->num_threads());
  PreparedCorpus corpus;
  corpus.fingerprint = FingerprintRun(options, db, run_ctx);

  // Durability: open the checkpoint store and, when resuming, restore the
  // longest valid phase chain (recovery ladder; DESIGN.md Section 8). Every
  // decision lands in the report's checkpoint_events.
  std::unique_ptr<CheckpointStore> store;
  Durability durability;
  if (!options.checkpoint_dir.empty()) {
    store = std::make_unique<CheckpointStore>(options.checkpoint_dir,
                                              corpus.fingerprint);
    if (options.resume) {
      durability.recovery = store->Recover(db, options.selector.budget);
      corpus.execution.checkpoint_events =
          std::move(durability.recovery.events);
    }
    durability.store = store.get();
  }
  RunCorpusPhases(db, options, run_ctx, run_span.id(), &durability, &corpus);

  ExecutionReport& exec = result.execution;
  exec = std::move(corpus.execution);
  SelectorCheckpointHooks hooks;
  if (durability.recovery.selection.has_value()) {
    hooks.resume = &*durability.recovery.selection;
    exec.resumed_from = "selection";
    exec.checkpoint_events.push_back(
        {CheckpointEvent::Kind::kResumedFromPhase, "selection",
         std::to_string(durability.recovery.selection->patterns.size()) +
             " patterns already selected"});
  }
  size_t progress_saves = 0;
  size_t progress_failures = 0;
  std::string last_save_error;
  if (durability.store != nullptr) {
    // Selection progress is checkpointed after every accepted pattern: each
    // state is an exact loop invariant, so a kill mid-selection loses at
    // most one greedy iteration.
    hooks.on_pattern_selected = [&](const SelectorCheckpointState& state) {
      std::string error = store->SaveSelection(state);
      if (error.empty()) {
        ++progress_saves;
        ++exec.checkpoints_written;
      } else {
        ++progress_failures;
        last_save_error = error;
      }
      if (CATAPULT_FAILPOINT("catapult.crash_after_selection_checkpoint")) {
        run_ctx.Cancel();
      }
    };
  }
  RunSelectionPhase(db, corpus, options, run_ctx, run_span.id(), hooks,
                    &result);
  if (progress_saves > 0) {
    exec.checkpoint_events.push_back(
        {CheckpointEvent::Kind::kPhaseCheckpointed, "selection",
         std::to_string(progress_saves) + " incremental checkpoints"});
  }
  if (progress_failures > 0) {
    exec.checkpoint_events.push_back(
        {CheckpointEvent::Kind::kCheckpointWriteFailed, "selection",
         std::to_string(progress_failures) + " failed writes, last: " +
             last_save_error});
  }
  result.clusters = std::move(corpus.clusters);
  result.csgs = std::move(corpus.csgs);
  result.features = std::move(corpus.features);
  result.clustering_seconds = corpus.clustering_seconds;
  result.csg_seconds = corpus.csg_seconds;

  // Close the root span before snapshotting so its counter deltas cover the
  // whole run, then merge the per-thread metric shards into the report.
  // Safe here: every parallel region has joined, so worker writes
  // happen-before this read.
  run_span.Close();
  if (run_ctx.metrics() != nullptr) {
    exec.metrics = run_ctx.metrics()->Snapshot();
  }
  return result;
}

PreparedCorpus PrepareCorpus(const GraphDatabase& db,
                             const CatapultOptions& options,
                             const RunContext& ctx) {
  PreparedCorpus corpus;
  corpus.option_errors = ValidateCatapultOptions(options);
  if (!corpus.ok() || db.empty()) return corpus;
  std::unique_ptr<ThreadPool> owned_pool;
  const RunContext run_ctx = MergeOptionsContext(options, ctx, &owned_pool);
  obs::ScopedMetricsScope metrics_scope(run_ctx.metrics());
  obs::Span prepare_span(run_ctx.tracer(), "catapult.prepare");
  corpus.fingerprint = FingerprintRun(options, db, run_ctx);
  RunCorpusPhases(db, options, run_ctx, prepare_span.id(), nullptr, &corpus);
  return corpus;
}

CatapultResult RunCatapultSelection(const GraphDatabase& db,
                                    const PreparedCorpus& corpus,
                                    const CatapultOptions& options,
                                    const RunContext& ctx) {
  CatapultResult result;
  result.option_errors = ValidateCatapultOptions(options);
  if (!result.ok() || db.empty()) return result;
  std::unique_ptr<ThreadPool> owned_pool;
  const RunContext run_ctx = MergeOptionsContext(options, ctx, &owned_pool);
  obs::ScopedMetricsScope metrics_scope(run_ctx.metrics());
  result.execution = corpus.execution;
  RunSelectionPhase(db, corpus, options, run_ctx, /*parent_span=*/0,
                    SelectorCheckpointHooks{}, &result);
  if (run_ctx.metrics() != nullptr) {
    result.execution.metrics = run_ctx.metrics()->Snapshot();
  }
  return result;
}

}  // namespace catapult
