#ifndef CATAPULT_OBS_METRICS_H_
#define CATAPULT_OBS_METRICS_H_

// Process-wide metrics registry: monotonic counters, high-watermark gauges
// and fixed-bucket log2 histograms covering the pipeline's hot primitives
// (VF2, exact and bipartite GED, MCS, random walks, k-means, CSG folds, the
// selector coverage cache and diversity folds, checkpoint I/O, the memory
// budget and failpoints).
//
// Design constraints (DESIGN.md §11):
//  * Zero cross-thread synchronization on hot paths. Each thread writes a
//    private MetricsShard through a thread_local pointer; Count()/Observe()
//    are one TLS load, one branch and a plain (non-atomic) add. Shards are
//    merged only at Snapshot(), which the pipeline calls after its parallel
//    regions have joined — the ThreadPool's join handshake provides the
//    happens-before edge, so merging reads plain writes safely.
//  * Zero overhead when disabled. With no registry attached the TLS pointer
//    is null and every helper is a load+branch — no atomic ops, no locks.
//  * No effect on results. Instrumentation only ever writes counters; no
//    decision in the pipeline reads them, so a run with metrics enabled is
//    bit-identical to a disabled run at any thread count (asserted by
//    tests/obs_test.cc). Counter merging is commutative, so totals are also
//    independent of the thread count.
//
// This header deliberately includes nothing from src/ so every subsystem
// (including src/util) can instrument itself without include cycles.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace catapult::obs {

// Monotonic event counters. Append new entries just before kCount and add
// the matching name to kCounterNames in metrics.cc.
enum class Counter : uint32_t {
  kVf2Calls = 0,         // subgraph-isomorphism searches started
  kVf2Nodes,             // search-tree nodes expanded across all searches
  kVf2BudgetExhausted,   // searches cut short by a node budget
  kGedBipartiteCalls,    // bipartite GED lower-bound evaluations
  kWalkSteps,            // random-walk edge extensions attempted
  kWalkDeadEnds,         // walks stopped early (no extensible edge)
  kPcpEmitted,           // non-empty candidate patterns produced by walks
  kPcpDeduplicated,      // candidates dropped as duplicates of earlier ones
  kKmeansIterations,     // coarse-clustering Lloyd rounds executed
  kKmeansReassignments,  // graphs that changed cluster in a round
  kFineSplitRounds,      // fine-clustering split rounds, summed over the
                         // coarse clusters each lockstep round splits
  kCsgFolds,             // member graphs folded into a summary graph
  kCsgVerticesMapped,    // member vertices mapped onto existing CSG vertices
  kCsgDummyPads,         // CSG vertices added because no mapping existed
  kSelectorCacheHits,    // coverage-cache lookups served from the cache
  kSelectorCacheMisses,  // coverage-cache lookups that ran VF2
  kSelectorCacheEvictions,  // cache entries dropped under memory pressure
  kSelectorDivFolds,     // diversity GED evaluations folded into a memo
  kSelectorDivPruned,    // diversity folds skipped by the lower bound
  kCheckpointRecordsWritten,
  kCheckpointRecordsRead,
  kCheckpointBytesWritten,
  kCheckpointBytesRead,
  kCheckpointFsyncs,     // fsync/fdatasync calls issued by atomic writes
  kMemCharges,           // successful MemoryBudget::TryCharge calls
  kMemChargeRefused,     // charges refused by the hard limit
  kMemSoftPressure,      // charges that crossed the soft limit
  kFailpointFires,       // armed failpoints that actually fired
  kDistWorkersSpawned,   // shard worker processes forked
  kDistWorkerDeaths,     // active fleet members fenced (in-band liveness)
  kDistWorkerHangs,      // heartbeat deadline misses (member fenced)
  kDistShardRetries,     // shards requeued after a worker failure
  kDistBackoffWaits,     // retry launches delayed by the backoff policy
  kDistQuarantines,      // shards that exhausted their failure budget
  kDistFallbacks,        // unfinished shards executed in-process
  kDistHeartbeats,       // heartbeat frames received by the supervisor
  kDistArtifactsReused,  // clusters restored from prior-attempt artifacts
  kDistArtifactsRejected,  // shard artifacts that failed validation
  kServeAccepted,          // client connections accepted by the server
  kServeDisconnects,       // client connections closed (any reason)
  kServeRequests,          // well-formed selection requests received
  kServeResponses,         // panel responses handed to the write path
  kServeShed,              // requests refused with an explicit retry-after
  kServeCacheHits,         // panels served from the keyed result cache
  kServeCacheMisses,       // panels computed by a fresh selection run
  kServeDegraded,          // responses whose panel was deadline/limit degraded
  kServePoisonedStreams,   // clients dropped for torn/corrupt frames
  kServeIdleReaped,        // idle sessions closed by the reaper
  kServeWriteTimeouts,     // slow clients dropped mid-write
  kServeAcceptFailures,    // accept() errors survived (EMFILE & friends)
  kDistNetAccepts,         // remote-worker connections accepted
  kDistNetJoins,           // handshakes admitted (fresh joins + rejoins)
  kDistNetRejects,         // handshakes refused with a typed kJoinReject
  kDistNetReconnects,      // rejoins of a previously-seen worker identity
  kDistNetFencedFrames,    // frames from a fenced generation (never applied)
  kDistNetDuplicateClusters,  // re-delivered cluster results (idempotent)
  kDistNetWriteStalls,     // sends that hit the write-stall deadline
  kDistNetRemoteClusters,  // cluster results accepted from remote workers
  kObsSpansMerged,         // worker spans imported into the merged trace
  kObsSpansDropped,        // shipped spans discarded (trace mismatch/no tracer)
  kServeSlowRequests,      // requests whose run time crossed --slow-request-ms
  kServeReqlogDropped,     // request-log events dropped by the bounded queue
  kSelectorBoundSkipped,   // candidates never folded: their bound could not win
  kGedCalls,               // exact (branch-and-bound) GED searches
  kGedNodes,               // search-tree nodes expanded across them
  kGedBudgetExhausted,     // exact GED searches cut short by a node budget
  kMcsCalls,               // MCS searches run (both inputs non-empty)
  kMcsNodes,               // search-tree nodes counted against their
                           // budgets, walked or reused (src/iso/mcs.h)
  kMcsBudgetExhausted,     // MCS searches cut short by a node budget
  kMcsNodesWalked,         // of kMcsNodes, the nodes the searches entered
  kCount
};

// High-watermark gauges: Gauge() keeps the maximum value ever set, which
// merges commutatively across shards (unlike a last-writer-wins gauge).
enum class Gauge : uint32_t {
  kMemPeakBytes = 0,     // peak concurrent MemoryBudget usage observed
  kSelectorCachePeak,    // peak coverage-cache entry count
  kPoolThreads,          // resolved worker-thread count of the run
  kServeQueueDepthPeak,  // peak admission-queue depth observed
  kServeSessionsPeak,    // peak concurrent client sessions
  kDistWorkersPeak,      // peak concurrent remote-fleet members
  kCount
};

// Fixed-bucket log2 histograms: value v lands in bucket floor(log2(v)) + 1
// (v == 0 in bucket 0), so bucket b > 0 covers [2^(b-1), 2^b).
enum class Hist : uint32_t {
  kVf2NodesPerCall = 0,  // search-tree nodes expanded per VF2 search
  kGedMatrixDim,         // bipartite cost-matrix dimension (na + nb)
  kPcpEdges,             // edge count of emitted candidate patterns
  kCheckpointRecordBytes,  // payload size of checkpoint records written
  kServeRequestMillis,   // admission-to-response latency per served request
  kDistReconnectMillis,  // death-to-rejoin latency per worker reconnect
  kServeQueueWaitMillis,  // admission-to-worker-pickup wait per served request
  kCount
};

inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);
inline constexpr size_t kNumGauges = static_cast<size_t>(Gauge::kCount);
inline constexpr size_t kNumHists = static_cast<size_t>(Hist::kCount);
inline constexpr size_t kHistBuckets = 65;  // bucket 64 = values >= 2^63

const char* CounterName(Counter c);
const char* GaugeName(Gauge g);
const char* HistName(Hist h);

// Bucket index of `v` under the log2 bucketing scheme above.
constexpr size_t HistBucket(uint64_t v) {
  if (v == 0) return 0;
  size_t b = 0;
  while (v != 0) {
    v >>= 1;
    ++b;
  }
  return b;  // floor(log2(v)) + 1, <= 64
}

// Per-histogram accumulator (count/sum/min/max + bucket array).
struct HistData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = UINT64_MAX;  // UINT64_MAX while empty
  uint64_t max = 0;
  std::array<uint64_t, kHistBuckets> buckets{};

  void Record(uint64_t v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
    ++buckets[HistBucket(v)];
  }
  void MergeFrom(const HistData& other) {
    count += other.count;
    sum += other.sum;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    for (size_t i = 0; i < kHistBuckets; ++i) buckets[i] += other.buckets[i];
  }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Estimated p-quantile (p in [0, 1]) by linear interpolation inside the
  // log2 bucket holding the p-th observation, clamped to [min, max]. Exact
  // at the extremes; within a factor-of-2 band elsewhere, which is all a
  // log2 histogram can promise.
  uint64_t Quantile(double p) const;
};

// One thread's private slice of the registry. Plain (non-atomic) fields:
// only the owning thread writes, and the registry reads only after the
// owning thread's parallel region joined (or, for the calling thread, on
// the calling thread itself).
struct MetricsShard {
  std::array<uint64_t, kNumCounters> counters{};
  std::array<uint64_t, kNumGauges> gauges{};
  std::array<HistData, kNumHists> hists{};
};

namespace internal {
// The currently installed shard of the calling thread; null when metrics
// are disabled for this thread. constinit: guaranteed no TLS init guard on
// the hot path.
extern constinit thread_local MetricsShard* tls_shard;
}  // namespace internal

// --- Hot-path recording helpers --------------------------------------------
// One TLS load + branch when disabled; a plain add when enabled. Never any
// atomic operation or lock.

inline void Count(Counter c, uint64_t n = 1) {
  MetricsShard* shard = internal::tls_shard;
  if (shard != nullptr) shard->counters[static_cast<size_t>(c)] += n;
}

inline void SetGaugeMax(Gauge g, uint64_t v) {
  MetricsShard* shard = internal::tls_shard;
  if (shard != nullptr) {
    uint64_t& slot = shard->gauges[static_cast<size_t>(g)];
    if (v > slot) slot = v;
  }
}

inline void Observe(Hist h, uint64_t v) {
  MetricsShard* shard = internal::tls_shard;
  if (shard != nullptr) shard->hists[static_cast<size_t>(h)].Record(v);
}

// Read-only view of the calling thread's counters (zeros when disabled).
// Used by the tracer to compute per-span counter deltas.
std::array<uint64_t, kNumCounters> ThreadCounterSnapshot();

// --- Merged snapshot --------------------------------------------------------

struct MetricsSnapshot {
  bool enabled = false;  // false when no registry was attached to the run
  std::array<uint64_t, kNumCounters> counters{};
  std::array<uint64_t, kNumGauges> gauges{};
  std::array<HistData, kNumHists> hists{};

  uint64_t counter(Counter c) const {
    return counters[static_cast<size_t>(c)];
  }
  uint64_t gauge(Gauge g) const { return gauges[static_cast<size_t>(g)]; }
  const HistData& hist(Hist h) const {
    return hists[static_cast<size_t>(h)];
  }

  // Folds `other` in: counters/histograms add, gauges keep the maximum.
  // `enabled` ORs, so merging an empty snapshot is the identity.
  void MergeFrom(const MetricsSnapshot& other);
};

// Human-readable multi-line rendering (used by the CLI's --print-stats).
// Counters and gauges print one per line; histograms print
// count/mean/min/max. Zero-valued entries are skipped unless
// `include_zeros`.
std::string HumanSummary(const MetricsSnapshot& snapshot,
                         bool include_zeros = false);

class JsonWriter;

// Appends {"counters": {...}, "gauges": {...}, "histograms": {...}} fields
// into the writer's currently open object. Every name is always present so
// the schema is stable; histograms render as
// {"count": n, "sum": s, "min": m, "max": M, "buckets": [...]} with the
// bucket array trimmed of trailing zeros.
void RenderMetricsFields(const MetricsSnapshot& snapshot, JsonWriter& json);

// --- Registry ---------------------------------------------------------------

// Owns one shard per participating thread, keyed by thread id so a thread
// re-entering a scope reuses its shard. The mutex is taken only when a
// scope is installed (once per parallel region per thread) and at
// Snapshot(), never on the recording path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The calling thread's shard, created on first use. Stable address for
  // the registry's lifetime.
  MetricsShard* ShardForThisThread();

  // Merged totals across every shard. Must not race with threads actively
  // recording into this registry's shards; the pipeline guarantees this by
  // snapshotting only after its parallel regions joined.
  MetricsSnapshot Snapshot() const;

  // Drops all recorded values (shards stay allocated and installed scopes
  // remain valid). Same non-concurrency contract as Snapshot().
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<MetricsShard>>>
      shards_;
};

// Installs `registry`'s shard for the calling thread for the scope's
// lifetime, restoring the previous shard (usually none) on destruction.
// A null registry installs nothing and records nothing.
class ScopedMetricsScope {
 public:
  explicit ScopedMetricsScope(MetricsRegistry* registry);
  ~ScopedMetricsScope();

  ScopedMetricsScope(const ScopedMetricsScope&) = delete;
  ScopedMetricsScope& operator=(const ScopedMetricsScope&) = delete;

 private:
  MetricsShard* previous_ = nullptr;
  bool installed_ = false;
};

}  // namespace catapult::obs

#endif  // CATAPULT_OBS_METRICS_H_
