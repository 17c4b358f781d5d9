#ifndef CATAPULT_CORE_CATAPULT_H_
#define CATAPULT_CORE_CATAPULT_H_

#include <string>
#include <vector>

#include "src/cluster/pipeline.h"
#include "src/core/selector.h"
#include "src/csg/csg.h"
#include "src/dist/dist_report.h"
#include "src/graph/graph_database.h"
#include "src/obs/metrics.h"
#include "src/persist/checkpoint.h"
#include "src/sample/sampling.h"
#include "src/util/deadline.h"

namespace catapult {

// End-to-end configuration of the Catapult pipeline (Algorithm 1 +
// Section 4.3 sampling).
struct CatapultOptions {
  SmallGraphClusteringOptions clustering;
  SelectorOptions selector;

  // Enable the two-level sampling path for large databases (Figure 3's
  // eager + lazy samplers).
  bool use_sampling = false;
  EagerSamplingOptions eager;
  LazySamplingOptions lazy;

  // Deterministic seed for the whole pipeline.
  uint64_t seed = 42;

  // Worker threads for the parallel phases (sampled supports, k-means
  // assignment, fine splits, CSG folds, candidate walks, scoring). 0 means
  // "auto": the CATAPULT_THREADS environment variable if set (its own 0
  // meaning hardware concurrency), else 1. The task decomposition pre-splits
  // rng streams and reduces in task order, so — absent a binding memory
  // hard limit or live deadline — the output is bit-identical at every
  // thread count, and the setting is excluded from ConfigFingerprint (a
  // checkpoint resumes fine under a different thread count, like a new
  // deadline). Clamped to ThreadPool::kMaxThreads.
  size_t threads = 0;

  // Wall-clock deadline for the whole run in milliseconds (0 = unlimited).
  // On expiry every phase returns its best partial result and the
  // degradation is reported in CatapultResult::execution; with no deadline
  // the output is bit-identical to a build without the deadline machinery.
  // Clustering and CSG folding get fixed shares of the remaining time
  // (DESIGN.md §7); selection runs against the whole deadline.
  double deadline_ms = 0.0;

  // Crash-safe checkpointing (DESIGN.md Section 8). When `checkpoint_dir`
  // is non-empty, every fully completed phase — and every accepted pattern
  // during selection — is persisted as a checksummed, atomically written
  // checkpoint; with `resume` also true, the run first validates the
  // directory's checkpoints and restarts from the furthest intact phase
  // (falling down the recovery ladder on corruption) instead of from
  // scratch, and a sharded phase it reruns reuses the valid shard records
  // a prior run left. Without `resume` the run reuses nothing a prior run
  // left. The deadline options above are deliberately excluded from the
  // checkpoint compatibility fingerprint: resuming a killed run under a
  // new deadline is the expected use.
  std::string checkpoint_dir;
  bool resume = false;

  // Resource governance (DESIGN.md Section 9). When `mem_hard_limit_bytes`
  // is non-zero every phase charges its input-proportional structures
  // against one shared MemoryBudget: crossing the soft limit sheds optional
  // work (coarse-only clustering, partial CSG folds, cache eviction), and a
  // charge past the hard limit winds the whole pipeline down exactly like a
  // deadline expiry — best-effort partial results plus a structured
  // ResourceError in ExecutionReport, never an OOM kill. A soft limit of 0
  // defaults to 3/4 of the hard limit. Like the deadline, the limits are
  // excluded from the checkpoint fingerprint: resuming under a different
  // memory budget is expected.
  size_t mem_soft_limit_bytes = 0;
  size_t mem_hard_limit_bytes = 0;

  // Sharded multi-process execution (DESIGN.md §12). With `processes` > 1
  // the fine-clustering and CSG phases are partitioned by coarse cluster
  // across that many forked member processes, supervised for crashes and
  // hangs; 0 or 1 keeps everything in-process. Member failures are retried
  // up to `max_shard_retries` times per shard under deterministic capped
  // exponential backoff, then the shard is quarantined and executed
  // in-process. Like `threads`, `processes` and the supervision knobs are
  // excluded from ConfigFingerprint: the task decomposition pre-splits rng
  // streams per coarse cluster and merges in cluster order, so a P-process
  // run is bit-identical to a 1-process run (asserted down to checkpoint
  // bytes by tests/dist_test.cc) and checkpoints resume across process
  // counts.
  size_t processes = 0;
  size_t max_shard_retries = 2;
  // A member silent on its connection for this long is declared hung and
  // fenced (its shard retries from the clusters already accepted).
  double shard_heartbeat_timeout_ms = 2000.0;
  // Remote worker fleets (DESIGN.md §12). A non-empty listen
  // address ("unix:PATH" or "tcp:HOST:PORT") — or an adopted listening fd
  // — makes the sharded phases supervise remote catapult_worker processes
  // that dial in, instead of forking members. Requires processes > 1.
  // Remote supervision knobs are, like the rest, fingerprint-excluded:
  // transport never changes results, only where the work runs.
  std::string dist_listen;
  int dist_listen_fd = -1;  // already-listening fd to adopt (tests); not owned
  // With work pending and no member joined (or rejoined) for this long,
  // the fleet is declared lost and the run completes via the in-process
  // fallback (reported as remote_fallback_only, CLI exit code 7).
  double dist_join_timeout_ms = 10000.0;
  // Optional admin endpoint served by the remote-fleet supervision loop
  // ("unix:PATH" / "tcp:HOST:PORT"; empty = disabled): /metrics, /statusz,
  // /healthz. Fingerprint-excluded like the other supervision knobs.
  std::string dist_admin_listen;
  // Retry backoff: delay before retry k is min(base * 2^(k-1), cap).
  double shard_backoff_base_ms = 25.0;
  double shard_backoff_cap_ms = 1000.0;

  // Quarantine digest of the ingestion that produced the database
  // (IngestReport::quarantine_digest; 0 = nothing quarantined). Folded into
  // ConfigFingerprint so a checkpoint taken against a database with a
  // different quarantine set — whose dense graph ids index *different*
  // graphs — is rejected on resume instead of silently mis-assigning
  // clusters.
  uint64_t ingest_digest = 0;
};

// One rejected CatapultOptions field: which option and why. Returned by
// ValidateCatapultOptions / RunCatapult so invalid configurations surface
// as data instead of tripping a CHECK abort deep inside the pipeline.
struct OptionsError {
  std::string field;    // e.g. "selector.budget.eta_min"
  std::string message;  // e.g. "must exceed 2 (Definition 3.1)"
};

// Validates every pipeline-facing invariant of `options` (pattern budget
// ordering, positive gamma, sane walk counts, decay range, sampling
// parameters, checkpoint flags). Returns one entry per violated
// field; empty means the options are safe to run.
std::vector<OptionsError> ValidateCatapultOptions(
    const CatapultOptions& options);

// Resolves CatapultOptions::threads: explicit values win; 0 consults the
// CATAPULT_THREADS environment variable (itself 0 = hardware concurrency,
// the hook the CI sanitizer jobs use to thread every suite), else 1. A
// sharded run's members compute on this many threads too.
size_t ResolveThreadCount(size_t configured);

// Compatibility fingerprint of (options, db): every option that influences
// the pipeline's output plus a structural hash of the database. Checkpoints
// carry it so a stale checkpoint from a different database, budget, or seed
// is rejected on resume instead of silently reused. Deadline settings are
// excluded (see CatapultOptions::checkpoint_dir).
uint64_t ConfigFingerprint(const CatapultOptions& options,
                           const GraphDatabase& db);

// Parallel-execution accounting of one phase: the phase's wall time against
// the aggregate time all threads (caller included) spent inside the phase's
// ParallelFor bodies. busy/wall is the phase's *effective parallelism* —
// ~1.0 when single-threaded or dominated by sequential sections, approaching
// the thread count when the parallel regions dominate the phase.
struct PhaseParallelStats {
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;
  uint64_t parallel_items = 0;  // ParallelFor body invocations

  double EffectiveParallelism() const {
    return wall_seconds > 0.0 ? busy_seconds / wall_seconds : 0.0;
  }
};

// Robustness diagnostics of one RunCatapult execution (DESIGN.md,
// "Robustness & anytime semantics").
struct ExecutionReport {
  bool deadline_set = false;

  // Parallelism diagnostics: the resolved thread count (see
  // CatapultOptions::threads) and per-phase parallel accounting.
  size_t threads = 1;
  PhaseParallelStats clustering_parallel;
  PhaseParallelStats csg_parallel;
  PhaseParallelStats selection_parallel;

  // Phase completeness: false when the deadline or a cancellation cut the
  // phase short and its output is a best-effort partial result.
  bool clustering_complete = true;
  bool csg_complete = true;
  bool selection_complete = true;

  // Degradation-ladder rungs actually taken.
  bool clustering_coarse_only = false;  // fine splitting left clusters unsplit
  size_t degraded_csgs = 0;             // summaries folded from fewer members
  size_t fallback_patterns = 0;         // frequent-edge fallback selections
  uint64_t iso_budget_exhausted = 0;    // truncated VF2 coverage checks

  // Checkpoint/recovery diagnostics (empty without a checkpoint_dir).
  // `resumed_from` is the furthest phase restored from a checkpoint
  // ("clustering", "csgs", or "selection"; empty = cold start), and
  // `checkpoint_events` logs every durability decision: phases
  // checkpointed, checkpoints rejected with their reason, resumes, write
  // failures. Rejections and recovery-ladder falls are always a logged
  // decision here, never an abort.
  std::string resumed_from;
  size_t checkpoints_written = 0;
  std::vector<CheckpointEvent> checkpoint_events;

  // Memory-governance diagnostics (DESIGN.md Section 9). `mem_peak_bytes`
  // is the high-water mark of tracked bytes; `mem_soft_exceeded` means at
  // least one phase observed soft-limit pressure and shed work;
  // `mem_hard_breached` means a charge was refused and the pipeline wound
  // down with partial results — `resource_error` then names the charge site
  // and sizes.
  bool mem_budget_set = false;
  size_t mem_peak_bytes = 0;
  size_t mem_soft_limit = 0;
  size_t mem_hard_limit = 0;
  bool mem_soft_exceeded = false;
  bool mem_hard_breached = false;
  ResourceError resource_error;

  // Merged per-primitive metrics of the run (DESIGN.md §11). Always
  // present; `metrics.enabled` is false when the run carried no registry,
  // in which case every counter is zero.
  obs::MetricsSnapshot metrics;

  // Sharded-execution supervision report (DESIGN.md §12): worker spawns,
  // deaths, hangs, retries, backoff waits, quarantines and fallbacks, plus
  // the ordered event log. `dist.enabled` is false for in-process runs.
  dist::DistReport dist;

  bool Resumed() const { return !resumed_from.empty(); }

  bool Degraded() const {
    return !clustering_complete || !csg_complete || !selection_complete ||
           clustering_coarse_only || degraded_csgs > 0 ||
           fallback_patterns > 0 || mem_hard_breached;
  }
};

// Everything Algorithm 1 produces, plus phase timings for the benchmark
// harnesses.
struct CatapultResult {
  SelectionResult selection;
  std::vector<std::vector<GraphId>> clusters;
  std::vector<ClusterSummaryGraph> csgs;
  std::vector<FrequentSubtree> features;

  // Non-empty when RunCatapult refused to run because the options violate
  // their invariants (see ValidateCatapultOptions); every other field is
  // then default-constructed.
  std::vector<OptionsError> option_errors;
  bool ok() const { return option_errors.empty(); }

  double clustering_seconds = 0.0;  // mining + coarse + fine
  double csg_seconds = 0.0;
  double selection_seconds = 0.0;   // the paper's PGT

  ExecutionReport execution;

  // Convenience view of the selected canned patterns.
  std::vector<Graph> Patterns() const { return selection.PatternGraphs(); }
};

// Runs the full Catapult pipeline on `db` (Algorithm 1): (optionally eager-
// sampled) small graph clustering, (optionally lazy-sampled) CSG
// generation, and canned-pattern selection — PrepareCorpus's phases followed
// by RunCatapultSelection's, under one merged context, plus the checkpoint
// store, the recovery ladder and per-pattern selection checkpoints. `ctx`
// lets a caller share a cancellation token, pool or observability handles;
// when `options.deadline_ms` is also set, the effective deadline is the
// earlier of the two.
CatapultResult RunCatapult(const GraphDatabase& db,
                           const CatapultOptions& options,
                           const RunContext& ctx = RunContext::NoLimit());

// Clustering + CSG artifacts of a database, computed once and reused across
// many selection calls — the serving path (DESIGN.md §13). The artifacts
// depend only on the clustering/sampling options and the seed, never on the
// selection budget, so one prepared corpus answers any (eta_min, eta_max,
// gamma) request. RunCatapult runs the same phases into a PreparedCorpus of
// its own and then selects on it, so RunCatapultSelection is bit-identical
// to a one-shot RunCatapult with the same options by construction. The
// SelectionCorpus part (clusters, CSGs and their indices) is what every
// FindCannedPatternSet call reads.
struct PreparedCorpus : SelectionCorpus {
  std::vector<FrequentSubtree> features;
  RngState rng_after_csg;  // stream position selection resumes from
  // ConfigFingerprint of the (options, db) the corpus was prepared from,
  // surfaced so long-lived owners (the serving loop's /statusz) can report
  // which corpus they answer from without re-hashing the database.
  uint64_t fingerprint = 0;

  // The corpus phases' part of the run report: completeness, coarse-only
  // clustering, degraded CSGs, their parallel stats, `dist`, and the
  // checkpoint decisions (RunCatapult's only: PrepareCorpus has no store).
  // Every selection on this corpus starts its ExecutionReport from it, so a
  // served result carries the same degradation detail as a one-shot run.
  ExecutionReport execution;

  double clustering_seconds = 0.0;
  double csg_seconds = 0.0;

  // False when a deadline/cancellation/memory breach degraded clustering or
  // CSG folding; selections on a degraded corpus are flagged degraded.
  bool Complete() const {
    return execution.clustering_complete && execution.csg_complete;
  }

  // Non-empty when the options were rejected (see ValidateCatapultOptions);
  // every other field is then default-constructed.
  std::vector<OptionsError> option_errors;
  bool ok() const { return option_errors.empty(); }
};

// Runs RunCatapult's corpus phases — coarse stage, fine clustering (sharded
// under `processes` > 1 exactly as RunCatapult shards it), CSG folding and
// the corpus indices — without the checkpoint store, and captures their
// artifacts for reuse. It is the one way to get a corpus: the server, the
// benches and the examples that select under many budgets call it, with
// `options.seed` seeding the corpus phases' stream.
PreparedCorpus PrepareCorpus(const GraphDatabase& db,
                             const CatapultOptions& options,
                             const RunContext& ctx);

// Selection-only run against a prepared corpus: restores the corpus's rng
// position and executes FindCannedPatternSet under `ctx` merged with
// `options` (deadline, memory budget, threads — exactly like RunCatapult).
// `options` must share the clustering/sampling options and seed the corpus
// was prepared with; only the selector options (budget, walks, decay) may
// differ. The result's ExecutionReport starts from the corpus phases'
// report; its clusters/csgs/features are left empty — the corpus already
// holds them, and serving must not copy them per request.
CatapultResult RunCatapultSelection(const GraphDatabase& db,
                                    const PreparedCorpus& corpus,
                                    const CatapultOptions& options,
                                    const RunContext& ctx);

}  // namespace catapult

#endif  // CATAPULT_CORE_CATAPULT_H_
