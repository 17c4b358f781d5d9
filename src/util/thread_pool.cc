#include "src/util/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "src/obs/metrics.h"
#include "src/util/deadline.h"

namespace catapult {

namespace {
using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}
}  // namespace

size_t ThreadPool::HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

ThreadPool::ThreadPool(size_t threads)
    : num_threads_(std::clamp<size_t>(threads, 1, kMaxThreads)) {
  workers_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.busy_seconds = busy_nanos_.load(std::memory_order_relaxed) * 1e-9;
  s.items = items_.load(std::memory_order_relaxed);
  s.regions = regions_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::RunChunks(Job& job) {
  // One shard install per (job, thread): instrumentation inside the body
  // records into this thread's private shard with no further locking.
  obs::ScopedMetricsScope metrics_scope(job.metrics);
  const Clock::time_point start = Clock::now();
  uint64_t ran = 0;
  for (;;) {
    const size_t begin =
        job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (begin >= job.n) break;
    const size_t end = std::min(job.n, begin + job.grain);
    for (size_t i = begin; i < end; ++i) (*job.body)(i);
    ran += end - begin;
    job.done.fetch_add(end - begin, std::memory_order_acq_rel);
  }
  if (ran > 0) {
    busy_nanos_.fetch_add(NanosSince(start), std::memory_order_relaxed);
    items_.fetch_add(ran, std::memory_order_relaxed);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_seq = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || job_seq_ != seen_seq; });
      if (stop_) return;
      seen_seq = job_seq_;
      job = job_;
      if (job == nullptr) continue;  // job already retired by the caller
      ++workers_in_job_;
    }
    RunChunks(*job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --workers_in_job_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t)>& body,
                             obs::MetricsRegistry* metrics) {
  if (n == 0) return;
  regions_.fetch_add(1, std::memory_order_relaxed);
  grain = std::max<size_t>(grain, 1);

  if (num_threads_ == 1 || n == 1) {
    // Inline sequential execution in index order: the default path has the
    // exact observable behaviour of a plain loop.
    obs::ScopedMetricsScope metrics_scope(metrics);
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < n; ++i) body(i);
    busy_nanos_.fetch_add(NanosSince(start), std::memory_order_relaxed);
    items_.fetch_add(n, std::memory_order_relaxed);
    return;
  }

  Job job;
  job.body = &body;
  job.n = n;
  job.grain = grain;
  job.metrics = metrics;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++job_seq_;
  }
  work_cv_.notify_all();

  RunChunks(job);  // the calling thread participates

  // The job is complete once every item ran AND no worker still holds the
  // job pointer; only then may `job` (a stack object) be destroyed.
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    return job.done.load(std::memory_order_acquire) == n &&
           workers_in_job_ == 0;
  });
  job_ = nullptr;
}

void ParallelFor(const RunContext& ctx, size_t n, size_t grain,
                 const std::function<void(size_t)>& body) {
  if (ctx.pool() != nullptr) {
    ctx.pool()->ParallelFor(n, grain, body, ctx.metrics());
  } else {
    // No pool: the calling thread runs inline and already holds whatever
    // shard scope the pipeline installed, so nothing to set up here.
    for (size_t i = 0; i < n; ++i) body(i);
  }
}

}  // namespace catapult
