#include "src/core/catapult.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>

#include "src/cluster/feature_vectors.h"
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

// Resolves CatapultOptions::threads: explicit values win; 0 consults the
// CATAPULT_THREADS environment variable (itself 0 = hardware concurrency,
// the hook the CI sanitizer jobs use to thread every suite), else 1.
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

// Sampling-mode coarse stages (Section 4.3): features are mined on the
// eager sample at a lowered threshold and re-verified on the full database;
// coarse clustering covers the full database; oversized coarse clusters are
// lazily down-sampled. The returned result's `clusters` hold the sampled
// coarse partition — the shared fine stage (FineClusteringStage, in-process
// or sharded) runs on top of it.
ClusteringResult SamplingCoarseStage(const GraphDatabase& db,
                                     const CatapultOptions& options,
                                     Rng& rng, const RunContext& ctx) {
  ClusteringResult result;
  WallTimer mining_timer;

  // Eager sample + lowered-threshold mining (at most half of the remaining
  // time, the same split as the unsampled path).
  std::vector<GraphId> sample = EagerSample(db.size(), options.eager, rng);
  SubtreeMinerOptions lowered = options.clustering.miner;
  lowered.min_support = LoweredSupportThreshold(
      options.clustering.miner.min_support, sample.size(), options.eager);
  std::vector<FrequentSubtree> candidates = MineFrequentSubtrees(
      db, sample, lowered, ctx.Slice(0.5), &result.mining_complete);

  // Re-count candidate supports on the full database at the original
  // threshold (Lemma 4.4's verification step). One full-database support
  // count per candidate is the expensive part; the counts are independent
  // (per-candidate slots, read-only database) and run on the context's
  // pool, with the stop poll per candidate and the keep/drop reduction in
  // candidate order.
  const size_t min_count = static_cast<size_t>(std::max(
      1.0, options.clustering.miner.min_support *
               static_cast<double>(db.size())));
  const FlatGraphDatabase flat_db = FlatGraphDatabase::Build(db);
  std::vector<DynamicBitset> supports(candidates.size());
  std::vector<uint8_t> frequent(candidates.size(), 0);
  std::atomic<bool> stop_verifying{false};
  ParallelFor(ctx, candidates.size(), 1, [&](size_t i) {
    if (stop_verifying.load(std::memory_order_relaxed)) return;
    if (ctx.StopRequested("miner.count_support")) {
      stop_verifying.store(true, std::memory_order_relaxed);
      return;
    }
    DynamicBitset support = CountSupport(candidates[i].tree, flat_db);
    if (support.Count() < min_count) return;
    supports[i] = std::move(support);
    frequent[i] = 1;
  });
  if (stop_verifying.load(std::memory_order_relaxed)) {
    result.mining_complete = false;
  }
  std::vector<FrequentSubtree> verified;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (frequent[i] == 0) continue;
    FrequentSubtree& fs = candidates[i];
    fs.frequency = static_cast<double>(supports[i].Count()) /
                   static_cast<double>(db.size());
    fs.support = std::move(supports[i]);
    verified.push_back(std::move(fs));
  }
  std::vector<size_t> selected =
      SelectRepresentativeSubtrees(verified, options.clustering.facility);
  for (size_t idx : selected) result.features.push_back(verified[idx]);
  result.mining_seconds = mining_timer.ElapsedSeconds();

  // Coarse clustering over the full database; feature vectors come straight
  // from the verified support sets (bit i of subtree j <=> graph i).
  WallTimer coarse_timer;
  std::vector<GraphId> all(db.size());
  for (GraphId i = 0; i < db.size(); ++i) all[i] = i;
  std::vector<std::vector<GraphId>> coarse;
  // The feature matrix is the phase's dominant allocation; charge it before
  // materialising. A refused charge sheds coarse clustering entirely (one
  // cluster; fine clustering can still split it).
  ScopedMemoryCharge feature_charge(
      ctx.memory(),
      db.size() * ApproxBitsetBytes(result.features.size()),
      "mem.features");
  if (ctx.StopRequested("cluster.coarse") || !feature_charge.ok()) {
    result.coarse_complete = false;
    coarse.push_back(all);
  } else if (result.features.empty()) {
    coarse.push_back(all);
  } else {
    std::vector<DynamicBitset> features(db.size(),
                                        DynamicBitset(result.features.size()));
    for (size_t j = 0; j < result.features.size(); ++j) {
      for (size_t i : result.features[j].support.ToIndices()) {
        features[i].Set(j);
      }
    }
    KMeansOptions kmeans_options;
    kmeans_options.k = options.clustering.explicit_k != 0
                           ? options.clustering.explicit_k
                           : std::max<size_t>(
                                 1, db.size() /
                                        options.clustering.max_cluster_size);
    kmeans_options.max_iterations =
        options.clustering.kmeans_max_iterations;
    KMeansResult kmeans = KMeansCluster(features, kmeans_options, rng, ctx);
    size_t k = 0;
    for (size_t a : kmeans.assignment) k = std::max(k, a + 1);
    coarse.assign(k, {});
    for (size_t i = 0; i < db.size(); ++i) {
      coarse[kmeans.assignment[i]].push_back(static_cast<GraphId>(i));
    }
    coarse.erase(std::remove_if(coarse.begin(), coarse.end(),
                                [](const auto& c) { return c.empty(); }),
                 coarse.end());
  }
  result.coarse_seconds = coarse_timer.ElapsedSeconds();

  // Lazy sampling of oversized clusters; fine clustering is the caller's.
  result.clusters = LazySampleClusters(coarse, db.size(), options.lazy, rng);
  return result;
}

// The coarse stages of the clustering phase under either mining path. What
// remains afterwards — fine splitting and CSG folding — is exactly the work
// the sharded executor partitions across worker processes.
ClusteringResult RunCoarseStages(const GraphDatabase& db,
                                 const CatapultOptions& options, Rng& rng,
                                 const RunContext& ctx) {
  if (options.use_sampling) return SamplingCoarseStage(db, options, rng, ctx);
  std::vector<GraphId> all(db.size());
  for (GraphId i = 0; i < db.size(); ++i) all[i] = i;
  return CoarseClusteringStage(db, all, options.clustering, rng, ctx);
}

// Context merge shared by the prepared-corpus entry points: the effective
// deadline is the earlier of the caller's and options.deadline_ms, option
// memory limits supersede the caller's ledger, and a pool is owned when the
// caller brought none (or asked for a specific thread count). Mirrors the
// merge at the top of RunCatapult.
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
  if (run_ctx.pool() == nullptr || options.threads != 0) {
    *owned_pool =
        std::make_unique<ThreadPool>(ResolveThreadCount(options.threads));
    run_ctx = run_ctx.WithPool(owned_pool->get());
  }
  return run_ctx;
}

}  // namespace

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
  if (options.clustering.max_cluster_size == 0) {
    Err("clustering.max_cluster_size", "must be positive");
  }
  if (options.clustering.kmeans_max_iterations == 0) {
    Err("clustering.kmeans_max_iterations", "must be positive");
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
  if (!(options.clustering_time_share > 0.0 &&
        options.clustering_time_share < 1.0)) {
    Err("clustering_time_share", "must be in (0, 1)");
  }
  if (!(options.csg_time_share > 0.0 && options.csg_time_share < 1.0)) {
    Err("csg_time_share", "must be in (0, 1)");
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
  if (!(options.dist_write_stall_timeout_ms > 0.0) ||
      !std::isfinite(options.dist_write_stall_timeout_ms)) {
    Err("dist_write_stall_timeout_ms", "must be positive and finite");
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
  fp.Mix(sel.skip_duplicates ? 1 : 0);

  const SmallGraphClusteringOptions& cl = options.clustering;
  fp.Mix(static_cast<uint64_t>(cl.mode));
  fp.Mix(static_cast<uint64_t>(cl.coarse_algorithm));
  fp.Mix(cl.max_cluster_size);
  fp.Mix(cl.explicit_k);
  fp.MixDouble(cl.miner.min_support);
  fp.Mix(cl.miner.max_edges);
  fp.Mix(cl.miner.max_results);
  fp.Mix(cl.miner.max_candidates_per_level);
  fp.Mix(cl.facility.max_selected);
  fp.MixDouble(cl.facility.min_relative_gain);
  fp.Mix(cl.fine_mcs.connected ? 1 : 0);
  fp.Mix(cl.fine_mcs.match_edge_labels ? 1 : 0);
  fp.Mix(cl.fine_mcs.node_budget);
  fp.Mix(cl.kmeans_max_iterations);

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
                           const CatapultOptions& options) {
  return RunCatapult(db, options, RunContext::NoLimit());
}

CatapultResult RunCatapult(const GraphDatabase& db,
                           const CatapultOptions& options,
                           const RunContext& ctx) {
  CatapultResult result;
  result.option_errors = ValidateCatapultOptions(options);
  if (!result.ok()) return result;
  if (db.empty()) return result;

  // The effective deadline is the earlier of the caller's context and
  // options.deadline_ms; the cancellation token is shared either way.
  RunContext run_ctx = ctx;
  if (options.deadline_ms > 0.0) {
    run_ctx = RunContext(
                  Deadline::Earliest(ctx.deadline(),
                                     Deadline::AfterMillis(options.deadline_ms)),
                  ctx.cancel_token(), ctx.memory())
                  .WithPool(ctx.pool())
                  .WithObservability(ctx.metrics(), ctx.tracer());
  }
  // Memory governance: a budget configured in the options supersedes the
  // (by default unlimited) ledger of the caller's context.
  if (options.mem_hard_limit_bytes != 0 || options.mem_soft_limit_bytes != 0) {
    run_ctx = run_ctx.WithMemory(MemoryBudget::Limited(
        options.mem_soft_limit_bytes, options.mem_hard_limit_bytes));
  }
  // Parallelism: a pool carried by the caller's context is reused when the
  // options don't ask for a specific count; otherwise the run owns a pool
  // sized by options.threads (a 1-thread pool spawns no threads and executes
  // inline, so the default path stays exactly sequential).
  //
  // Sharded mode (processes > 1) forces a 1-thread supervisor pool instead:
  // forking a multithreaded process is undefined behaviour territory (only
  // the forking thread survives in the child), so the supervisor stays
  // single-threaded until every fork is behind it; each member builds its
  // own `threads`-sized pool after the fork, and selection swaps in a real
  // pool once the sharded phase is over.
  const bool dist_mode = options.processes > 1;
  std::unique_ptr<ThreadPool> owned_pool;
  if (dist_mode) {
    owned_pool = std::make_unique<ThreadPool>(1);
    run_ctx = run_ctx.WithPool(owned_pool.get());
  } else if (run_ctx.pool() == nullptr || options.threads != 0) {
    owned_pool =
        std::make_unique<ThreadPool>(ResolveThreadCount(options.threads));
    run_ctx = run_ctx.WithPool(owned_pool.get());
  }
  const MemoryBudget& memory = run_ctx.memory();
  // Observability: install the calling thread's metrics shard for the whole
  // run (worker threads install theirs per parallel region inside the
  // pool), and open the root span. Both are no-ops when the context carries
  // no registry/tracer; neither ever influences pipeline decisions, so a
  // traced run stays bit-identical to an untraced one.
  obs::ScopedMetricsScope metrics_scope(run_ctx.metrics());
  obs::Span run_span(run_ctx.tracer(), "catapult.run");
  obs::SetGaugeMax(obs::Gauge::kPoolThreads, run_ctx.pool()->num_threads());
  ExecutionReport& exec = result.execution;
  exec.deadline_set = !run_ctx.Unlimited();
  // In sharded mode the supervisor pool is deliberately 1-thread; report
  // the worker-side thread count, which is what sizes the actual compute.
  exec.threads = dist_mode ? ResolveThreadCount(options.threads)
                           : run_ctx.pool()->num_threads();
  exec.mem_budget_set = memory.limited();
  exec.mem_soft_limit = memory.soft_limit();
  exec.mem_hard_limit = memory.hard_limit();
  // Aggregates each phase's pool activity into its PhaseParallelStats.
  // Reads the pool through run_ctx: sharded runs swap in a fresh pool for
  // selection, and stats baselines always come from the then-active pool.
  auto FinishPhase = [&run_ctx](const ThreadPool::Stats& before, double wall,
                                PhaseParallelStats& out) {
    ThreadPool::Stats after = run_ctx.pool()->stats();
    out.wall_seconds = wall;
    out.busy_seconds = after.busy_seconds - before.busy_seconds;
    out.parallel_items = after.items - before.items;
  };
  Rng rng(options.seed);

  // Computed once for the checkpoint store, the shard artifacts, and the
  // distributed-trace correlation id.
  const bool need_fingerprint = !options.checkpoint_dir.empty() || dist_mode ||
                                run_ctx.tracer() != nullptr;
  const uint64_t fingerprint =
      need_fingerprint ? ConfigFingerprint(options, db) : 0;
  // Deterministic trace id: same (options, db, seed) → same id, so a rerun
  // produces byte-identical trace documents under fixed ticks. Respects an
  // id the caller already installed (e.g. the serving loop's per-corpus id).
  if (run_ctx.tracer() != nullptr && run_ctx.tracer()->trace_id() == 0) {
    run_ctx.tracer()->SetTraceId(fingerprint ^ options.seed);
  }

  // Durability: open the checkpoint store and, when resuming, restore the
  // longest valid phase chain (recovery ladder; DESIGN.md Section 8). Every
  // decision lands in exec.checkpoint_events.
  std::unique_ptr<CheckpointStore> store;
  CheckpointStore::Recovery recovery;
  if (!options.checkpoint_dir.empty()) {
    store = std::make_unique<CheckpointStore>(options.checkpoint_dir,
                                              fingerprint);
    if (options.resume) {
      recovery = store->Recover(db, options.selector.budget);
      for (CheckpointEvent& event : recovery.events) {
        exec.checkpoint_events.push_back(std::move(event));
      }
    }
  }
  const bool write_checkpoints =
      store != nullptr && options.checkpoint_every_phase;
  auto RecordPhaseSave = [&exec](const char* phase,
                                 const std::string& error) {
    if (error.empty()) {
      ++exec.checkpoints_written;
      exec.checkpoint_events.push_back(
          {CheckpointEvent::Kind::kPhaseCheckpointed, phase, ""});
    } else {
      exec.checkpoint_events.push_back(
          {CheckpointEvent::Kind::kCheckpointWriteFailed, phase, error});
    }
  };

  // Phase spans: children of the run span, closed just before each phase's
  // stats are finalised so the trace duration matches the reported wall
  // time. Span objects are inert (and free) when the context has no tracer.
  std::optional<obs::Span> phase_span;

  // Sharded mode computes CSGs inside the clustering phase's sharded
  // executor (fine clustering + folding are one unit of per-cluster work);
  // the CSG phase then adopts them instead of re-folding.
  std::vector<ClusterSummaryGraph> dist_csgs;
  size_t dist_degraded_csgs = 0;
  bool have_dist_csgs = false;

  // --- Clustering ---
  WallTimer clustering_timer;
  ThreadPool::Stats clustering_pool_stats = run_ctx.pool()->stats();
  phase_span.emplace(run_ctx.tracer(), "clustering", run_span.id());
  if (recovery.clustering.has_value()) {
    result.clusters = std::move(recovery.clustering->clusters);
    result.features = std::move(recovery.clustering->features);
    // Continue the pseudo-random stream exactly where the checkpointed
    // clustering phase left it, so later phases draw the same values the
    // uninterrupted run would have drawn.
    rng.RestoreState(recovery.clustering->rng_after);
    exec.resumed_from = "clustering";
    exec.checkpoint_events.push_back(
        {CheckpointEvent::Kind::kResumedFromPhase, "clustering",
         std::to_string(result.clusters.size()) + " clusters"});
  } else {
    // Per-phase time allocation: clustering gets its share of the total,
    // CSG its share of the remainder, selection the rest. Each phase still
    // honours the overall deadline (a slice can never exceed it).
    RunContext clustering_ctx = run_ctx.Slice(options.clustering_time_share);
    ClusteringResult clustering =
        RunCoarseStages(db, options, rng, clustering_ctx);
    bool fine_enabled =
        options.use_sampling ||
        options.clustering.mode != ClusteringMode::kCoarseOnly;
    if (dist_mode) {
      // Mirror FineClusteringStage's soft-pressure shed before any stream
      // is split, so sharded and in-process runs degrade at the same point.
      if (fine_enabled && run_ctx.memory().SoftExceeded()) {
        fine_enabled = false;
        clustering.fine_complete = false;
      }
      dist::DistOptions dopts;
      dopts.processes = options.processes;
      dopts.max_shard_retries = options.max_shard_retries;
      dopts.heartbeat_timeout_ms = options.shard_heartbeat_timeout_ms;
      dopts.backoff_base_ms = options.shard_backoff_base_ms;
      dopts.backoff_cap_ms = options.shard_backoff_cap_ms;
      dopts.worker_threads = ResolveThreadCount(options.threads);
      dopts.fine_enabled = fine_enabled;
      dopts.fine.max_cluster_size = options.clustering.max_cluster_size;
      dopts.fine.mcs = options.clustering.fine_mcs;
      dopts.checkpoint_dir = options.checkpoint_dir;
      dopts.fingerprint = fingerprint;
      dopts.mem_soft_limit_bytes = options.mem_soft_limit_bytes;
      dopts.mem_hard_limit_bytes = options.mem_hard_limit_bytes;
      dopts.listen_address = options.dist_listen;
      dopts.listen_fd = options.dist_listen_fd;
      dopts.join_timeout_ms = options.dist_join_timeout_ms;
      dopts.write_stall_timeout_ms = options.dist_write_stall_timeout_ms;
      dopts.admin_listen = options.dist_admin_listen;
      // The sharded phase spans fine clustering and CSG folding, so its
      // slice covers both phases' shares.
      RunContext dist_ctx = run_ctx.Slice(std::min(
          0.95, options.clustering_time_share + options.csg_time_share));
      dist::ShardedPhasesResult sharded = dist::RunShardedClusterPhases(
          db, clustering.clusters, dopts, rng, dist_ctx, &exec.dist);
      clustering.clusters = std::move(sharded.fine_clusters);
      if (!sharded.fine_complete) clustering.fine_complete = false;
      dist_csgs = std::move(sharded.csgs);
      dist_degraded_csgs = sharded.degraded_csgs;
      have_dist_csgs = true;
    } else if (fine_enabled) {
      FineClusteringStage(db, options.clustering, &clustering, rng,
                          clustering_ctx);
    }
    result.clusters = std::move(clustering.clusters);
    result.features = std::move(clustering.features);
    exec.clustering_complete = clustering.Complete();
    exec.clustering_coarse_only = !clustering.fine_complete;
    if (write_checkpoints) {
      // Only fully completed phases become durable: a deadline-degraded
      // phase is re-run on resume rather than frozen below its potential.
      if (clustering.Complete()) {
        ClusteringArtifact artifact;
        artifact.clusters = result.clusters;
        artifact.features = result.features;
        artifact.rng_after = rng.SaveState();
        RecordPhaseSave("clustering", store->SaveClustering(artifact));
        // Test-only simulated kill: the site models a crash immediately
        // after the checkpoint became durable.
        if (CATAPULT_FAILPOINT("catapult.crash_after_clustering_checkpoint")) {
          run_ctx.Cancel();
        }
      } else {
        exec.checkpoint_events.push_back(
            {CheckpointEvent::Kind::kCheckpointSkipped, "clustering",
             "phase incomplete under deadline"});
      }
    }
  }
  phase_span.reset();
  result.clustering_seconds = clustering_timer.ElapsedSeconds();
  FinishPhase(clustering_pool_stats, result.clustering_seconds,
              exec.clustering_parallel);

  // --- CSG generation ---
  WallTimer csg_timer;
  ThreadPool::Stats csg_pool_stats = run_ctx.pool()->stats();
  phase_span.emplace(run_ctx.tracer(), "csg", run_span.id());
  if (recovery.csgs.has_value()) {
    result.csgs = std::move(recovery.csgs->csgs);
    rng.RestoreState(recovery.csgs->rng_after);
    exec.resumed_from = "csgs";
    exec.checkpoint_events.push_back(
        {CheckpointEvent::Kind::kResumedFromPhase, "csgs",
         std::to_string(result.csgs.size()) + " summaries"});
  } else if (have_dist_csgs) {
    // Sharded mode already folded the CSGs alongside fine clustering; adopt
    // them here so the checkpoint ladder (and its rng position) matches the
    // in-process path byte for byte.
    result.csgs = std::move(dist_csgs);
    exec.degraded_csgs = dist_degraded_csgs;
    exec.csg_complete = exec.degraded_csgs == 0;
    if (write_checkpoints) {
      if (exec.csg_complete) {
        CsgArtifact artifact;
        artifact.csgs = result.csgs;
        artifact.rng_after = rng.SaveState();
        RecordPhaseSave("csgs", store->SaveCsgs(artifact));
        if (CATAPULT_FAILPOINT("catapult.crash_after_csg_checkpoint")) {
          run_ctx.Cancel();
        }
      } else {
        exec.checkpoint_events.push_back(
            {CheckpointEvent::Kind::kCheckpointSkipped, "csgs",
             "phase incomplete under deadline"});
      }
    }
  } else {
    RunContext csg_ctx = run_ctx.Slice(options.csg_time_share);
    result.csgs =
        BuildCsgs(db, result.clusters, csg_ctx, &exec.degraded_csgs);
    exec.csg_complete = exec.degraded_csgs == 0;
    if (write_checkpoints) {
      if (exec.csg_complete) {
        CsgArtifact artifact;
        artifact.csgs = result.csgs;
        artifact.rng_after = rng.SaveState();
        RecordPhaseSave("csgs", store->SaveCsgs(artifact));
        if (CATAPULT_FAILPOINT("catapult.crash_after_csg_checkpoint")) {
          run_ctx.Cancel();
        }
      } else {
        exec.checkpoint_events.push_back(
            {CheckpointEvent::Kind::kCheckpointSkipped, "csgs",
             "phase incomplete under deadline"});
      }
    }
  }
  phase_span.reset();
  result.csg_seconds = csg_timer.ElapsedSeconds();
  FinishPhase(csg_pool_stats, result.csg_seconds, exec.csg_parallel);

  // --- Selection ---
  // Sharded mode ran the supervisor on a 1-thread pool so no pool threads
  // existed across fork(); all forks are behind us now, so selection gets a
  // real multi-thread pool (same size the in-process run would have used).
  std::unique_ptr<ThreadPool> selection_pool;
  if (dist_mode) {
    selection_pool =
        std::make_unique<ThreadPool>(ResolveThreadCount(options.threads));
    run_ctx = run_ctx.WithPool(selection_pool.get());
    obs::SetGaugeMax(obs::Gauge::kPoolThreads, selection_pool->num_threads());
  }
  WallTimer selection_timer;
  ThreadPool::Stats selection_pool_stats = run_ctx.pool()->stats();
  phase_span.emplace(run_ctx.tracer(), "selection", run_span.id());
  SelectorCheckpointHooks hooks;
  if (recovery.selection.has_value()) {
    hooks.resume = &*recovery.selection;
    exec.resumed_from = "selection";
    exec.checkpoint_events.push_back(
        {CheckpointEvent::Kind::kResumedFromPhase, "selection",
         std::to_string(recovery.selection->patterns.size()) +
             " patterns already selected"});
  }
  size_t progress_saves = 0;
  size_t progress_failures = 0;
  std::string last_save_error;
  if (write_checkpoints) {
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
  result.selection = FindCannedPatternSet(db, result.clusters, result.csgs,
                                          options.selector, rng, run_ctx,
                                          hooks);
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
  phase_span.reset();
  result.selection_seconds = selection_timer.ElapsedSeconds();
  FinishPhase(selection_pool_stats, result.selection_seconds,
              exec.selection_parallel);
  exec.selection_complete = result.selection.complete;
  exec.fallback_patterns = result.selection.fallback_patterns;
  exec.iso_budget_exhausted = result.selection.iso_budget_exhausted;

  exec.mem_peak_bytes = memory.peak();
  exec.mem_soft_exceeded =
      memory.soft_limit() != 0 && memory.peak() >= memory.soft_limit();
  exec.mem_hard_breached = memory.HardBreached();
  if (exec.mem_hard_breached) exec.resource_error = memory.error();
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
  if (!corpus.ok()) return corpus;
  if (db.empty()) {
    corpus.complete = true;
    corpus.rng_after_csg = Rng(options.seed).SaveState();
    return corpus;
  }
  std::unique_ptr<ThreadPool> owned_pool;
  RunContext run_ctx = MergeOptionsContext(options, ctx, &owned_pool);
  obs::ScopedMetricsScope metrics_scope(run_ctx.metrics());
  obs::Span prepare_span(run_ctx.tracer(), "catapult.prepare");
  Rng rng(options.seed);

  // Exactly RunCatapult's in-process clustering phase: one deadline slice
  // covers the coarse stages and the fine splits, so a later selection on
  // this corpus matches the one-shot run draw for draw.
  WallTimer clustering_timer;
  std::optional<obs::Span> phase_span;
  phase_span.emplace(run_ctx.tracer(), "clustering", prepare_span.id());
  RunContext clustering_ctx = run_ctx.Slice(options.clustering_time_share);
  ClusteringResult clustering =
      RunCoarseStages(db, options, rng, clustering_ctx);
  if (options.use_sampling ||
      options.clustering.mode != ClusteringMode::kCoarseOnly) {
    FineClusteringStage(db, options.clustering, &clustering, rng,
                        clustering_ctx);
  }
  corpus.clusters = std::move(clustering.clusters);
  corpus.features = std::move(clustering.features);
  phase_span.reset();
  corpus.clustering_seconds = clustering_timer.ElapsedSeconds();

  WallTimer csg_timer;
  phase_span.emplace(run_ctx.tracer(), "csg", prepare_span.id());
  size_t degraded_csgs = 0;
  corpus.csgs = BuildCsgs(db, corpus.clusters,
                          run_ctx.Slice(options.csg_time_share),
                          &degraded_csgs);
  phase_span.reset();
  corpus.csg_seconds = csg_timer.ElapsedSeconds();

  corpus.summary_index = BuildFlatSummaryIndex(corpus.csgs);
  corpus.rng_after_csg = rng.SaveState();
  corpus.fingerprint = ConfigFingerprint(options, db);
  corpus.complete = clustering.Complete() && degraded_csgs == 0;
  return corpus;
}

CatapultResult RunCatapultSelection(const GraphDatabase& db,
                                    const PreparedCorpus& corpus,
                                    const CatapultOptions& options,
                                    const RunContext& ctx) {
  CatapultResult result;
  result.option_errors = ValidateCatapultOptions(options);
  if (!result.ok()) return result;
  if (db.empty()) return result;
  std::unique_ptr<ThreadPool> owned_pool;
  RunContext run_ctx = MergeOptionsContext(options, ctx, &owned_pool);
  obs::ScopedMetricsScope metrics_scope(run_ctx.metrics());
  obs::Span selection_span(run_ctx.tracer(), "selection");
  ExecutionReport& exec = result.execution;
  exec.deadline_set = !run_ctx.Unlimited();
  exec.threads = run_ctx.pool()->num_threads();
  const MemoryBudget& memory = run_ctx.memory();
  exec.mem_budget_set = memory.limited();
  exec.mem_soft_limit = memory.soft_limit();
  exec.mem_hard_limit = memory.hard_limit();
  exec.clustering_complete = corpus.complete;
  exec.csg_complete = corpus.complete;

  WallTimer selection_timer;
  ThreadPool::Stats pool_stats = run_ctx.pool()->stats();
  // Resume the seed stream exactly where the prepared corpus's CSG phase
  // left it — the invariant that makes this path bit-identical to the
  // uninterrupted RunCatapult.
  Rng rng(options.seed);
  rng.RestoreState(corpus.rng_after_csg);
  result.selection =
      FindCannedPatternSet(db, corpus.clusters, corpus.csgs, options.selector,
                           rng, run_ctx, SelectorCheckpointHooks{},
                           &corpus.summary_index);
  result.selection_seconds = selection_timer.ElapsedSeconds();
  ThreadPool::Stats after = run_ctx.pool()->stats();
  exec.selection_parallel.wall_seconds = result.selection_seconds;
  exec.selection_parallel.busy_seconds =
      after.busy_seconds - pool_stats.busy_seconds;
  exec.selection_parallel.parallel_items = after.items - pool_stats.items;
  exec.selection_complete = result.selection.complete;
  exec.fallback_patterns = result.selection.fallback_patterns;
  exec.iso_budget_exhausted = result.selection.iso_budget_exhausted;
  exec.mem_peak_bytes = memory.peak();
  exec.mem_soft_exceeded =
      memory.soft_limit() != 0 && memory.peak() >= memory.soft_limit();
  exec.mem_hard_breached = memory.HardBreached();
  if (exec.mem_hard_breached) exec.resource_error = memory.error();
  selection_span.Close();
  if (run_ctx.metrics() != nullptr) {
    exec.metrics = run_ctx.metrics()->Snapshot();
  }
  return result;
}

}  // namespace catapult
