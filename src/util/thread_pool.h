#ifndef CATAPULT_UTIL_THREAD_POOL_H_
#define CATAPULT_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

// Fixed-size worker pool with a deterministic ParallelFor. The pipeline's
// parallel phases all follow the same shape: the caller allocates one result
// slot per item, ParallelFor fills the slots (any thread may execute any
// item), and the caller then reduces the slots *sequentially in index order*.
// Because every data-dependent decision — reductions, arg-max tie-breaks,
// floating-point accumulation order, RNG consumption — happens either before
// the fork (pre-split child RNG streams drawn on the calling thread in task
// order) or after the join (ordered slot scan), an N-thread run is
// bit-identical to a 1-thread run of the same seed.
//
// A pool of size 1 spawns no threads at all: ParallelFor executes inline on
// the calling thread in strict index order, which keeps the default path
// observably identical to the pre-pool sequential code (including failpoint
// firing order and memory-charge order).

namespace catapult {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class ThreadPool {
 public:
  // Number of logical CPUs, never 0 (falls back to 1 when the runtime cannot
  // tell). This is what `--threads 0` resolves to.
  static size_t HardwareThreads();

  // Creates a pool that executes ParallelFor bodies on `threads` threads in
  // total (the calling thread participates, so `threads - 1` workers are
  // spawned). `threads` is clamped to [1, kMaxThreads].
  explicit ThreadPool(size_t threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  // Cumulative execution counters, aggregated across all threads. `busy
  // seconds` is the time spent inside ParallelFor bodies (caller included);
  // comparing a phase's busy-time delta against its wall time yields the
  // phase's effective parallelism for ExecutionReport.
  struct Stats {
    double busy_seconds = 0.0;
    uint64_t items = 0;       // body invocations completed
    uint64_t regions = 0;     // ParallelFor calls executed
  };
  Stats stats() const;

  // Runs body(i) for every i in [0, n). Items are claimed in chunks of
  // `grain` (>= 1) off a shared counter; the chunk layout depends only on
  // `n` and `grain`, never on the thread count, and each item writes only
  // its own slot, so outputs are identical at any pool size. Blocks until
  // all n items completed. Bodies must not call back into the same pool
  // (no nested parallelism) and must not throw.
  //
  // With num_threads() == 1 this is exactly `for (i = 0; i < n; ++i)
  // body(i)` on the calling thread — same order, same thread, no atomics
  // beyond the stats counters.
  //
  // When `metrics` is non-null, every participating thread installs its
  // thread-local shard of that registry for the duration of the job (once
  // per thread per job, not per item), so obs::Count()/Observe() calls
  // inside the body record without any cross-thread synchronization.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t)>& body,
                   obs::MetricsRegistry* metrics = nullptr);
  void ParallelFor(size_t n, const std::function<void(size_t)>& body) {
    ParallelFor(n, 1, body);
  }

  // Upper bound on pool size; a sanity clamp, far above useful parallelism
  // for this workload.
  static constexpr size_t kMaxThreads = 256;

 private:
  struct Job {
    const std::function<void(size_t)>* body = nullptr;
    size_t n = 0;
    size_t grain = 1;
    obs::MetricsRegistry* metrics = nullptr;  // shard scope for workers
    std::atomic<size_t> next{0};   // next unclaimed item index
    std::atomic<size_t> done{0};   // items completed
  };

  void WorkerLoop();
  void RunChunks(Job& job);

  size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait here for a job
  std::condition_variable done_cv_;   // caller waits here for completion
  Job* job_ = nullptr;                // current job, guarded by mutex_
  uint64_t job_seq_ = 0;              // bumped per job, guarded by mutex_
  size_t workers_in_job_ = 0;         // workers inside RunChunks
  bool stop_ = false;

  std::atomic<uint64_t> busy_nanos_{0};
  std::atomic<uint64_t> items_{0};
  std::atomic<uint64_t> regions_{0};
};

class RunContext;

// Runs body(i) for i in [0, n) on the context's pool; with no pool (or a
// 1-thread pool) this is a plain in-order loop on the calling thread.
void ParallelFor(const RunContext& ctx, size_t n, size_t grain,
                 const std::function<void(size_t)>& body);

}  // namespace catapult

#endif  // CATAPULT_UTIL_THREAD_POOL_H_
