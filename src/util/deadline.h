#ifndef CATAPULT_UTIL_DEADLINE_H_
#define CATAPULT_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "src/util/failpoint.h"
#include "src/util/mem_budget.h"

// Deadline-aware execution support. The Catapult pipeline chains several
// NP-hard primitives (GED, MCS/MCCS, VF2); a pathological database can stall
// any of them indefinitely. A RunContext carries a monotonic wall-clock
// deadline plus a cooperative cancellation token down the whole call chain,
// and every phase polls it at iteration granularity: on expiry a phase winds
// down and returns its best partial result (anytime semantics) instead of
// running on. Remaining time is also translated into node budgets for the
// backtracking kernels so a single kernel call cannot consume the entire
// slice of a later phase.

namespace catapult {

namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs

class ThreadPool;

// A point on the monotonic clock by which work should stop. Infinite by
// default; value-copyable.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : infinite_(true) {}

  static Deadline Infinite() { return Deadline(); }
  static Deadline AfterSeconds(double seconds);
  static Deadline AfterMillis(double ms) { return AfterSeconds(ms * 1e-3); }
  static Deadline At(Clock::time_point when);

  bool infinite() const { return infinite_; }
  bool Expired() const { return !infinite_ && Clock::now() >= at_; }

  // Remaining time in seconds: never negative, +infinity when infinite.
  double RemainingSeconds() const;

  // The earlier of this deadline and `now + fraction * remaining`: slices
  // the overall allowance into a per-phase allocation. A phase finishing
  // early automatically donates its unused time to later phases, because
  // later slices are taken from the then-remaining total. Infinite deadlines
  // slice to infinite.
  Deadline Fraction(double fraction) const;

  // The earlier of two deadlines.
  static Deadline Earliest(const Deadline& a, const Deadline& b);

 private:
  bool infinite_;
  Clock::time_point at_{};
};

// Shared cooperative cancellation flag. Copies observe the same flag, so a
// token handed into RunCatapult can be cancelled concurrently (e.g. by a
// serving thread whose client disconnected) and is observed by the deepest
// work loops at their next poll.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool Cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Execution context threaded through the pipeline: deadline + cancellation
// token + memory budget + budget translation. Copy freely; copies share the
// token and the memory ledger.
class RunContext {
 public:
  // Conservative exploration speed assumed for the backtracking kernels when
  // converting remaining seconds into node budgets. The VF2/MCS/GED kernels
  // expand well over this many nodes per second on molecule-sized graphs, so
  // the translation errs toward finishing before the deadline.
  static constexpr double kDefaultNodesPerSecond = 2e6;

  RunContext() = default;
  explicit RunContext(Deadline deadline) : deadline_(deadline) {}
  RunContext(Deadline deadline, CancelToken token)
      : deadline_(deadline), cancel_(std::move(token)) {}
  RunContext(Deadline deadline, CancelToken token, MemoryBudget memory)
      : deadline_(deadline),
        cancel_(std::move(token)),
        memory_(std::move(memory)) {}

  static RunContext NoLimit() { return RunContext(); }

  const Deadline& deadline() const { return deadline_; }
  const CancelToken& cancel_token() const { return cancel_; }

  // The shared memory ledger (unlimited by default). Producers charge their
  // input-proportional structures through this handle; a refused charge
  // latches the breach, which every subsequent StopRequested poll observes,
  // so a hard memory breach winds the whole pipeline down exactly like a
  // deadline expiry — best-effort partial results, never an OOM kill.
  const MemoryBudget& memory() const { return memory_; }
  MemoryBudget& memory() { return memory_; }

  // Copy of this context charging against `memory` instead.
  RunContext WithMemory(MemoryBudget memory) const {
    RunContext copy = *this;
    copy.memory_ = std::move(memory);
    return copy;
  }

  // Copy of this context whose parallel regions execute on `pool` (non-
  // owning; may be nullptr to force inline execution). The pool must outlive
  // every copy of the context that references it.
  RunContext WithPool(ThreadPool* pool) const {
    RunContext copy = *this;
    copy.pool_ = pool;
    return copy;
  }

  // Pool for parallel regions; nullptr means "run inline on the calling
  // thread", which is observably identical to a 1-thread pool.
  ThreadPool* pool() const { return pool_; }

  // Copy of this context recording metrics into `metrics` and spans into
  // `tracer` (both non-owning; either may be nullptr to disable that half).
  // Observability handles live here, next to the deadline and pool, rather
  // than in CatapultOptions: they are execution environment, not
  // configuration, so ConfigFingerprint never sees them and resume
  // compatibility cannot depend on whether a run was traced.
  RunContext WithObservability(obs::MetricsRegistry* metrics,
                               obs::Tracer* tracer) const {
    RunContext copy = *this;
    copy.metrics_ = metrics;
    copy.tracer_ = tracer;
    return copy;
  }

  // Metrics registry for this run; nullptr = metrics disabled (hot-path
  // recording helpers see a null thread-local shard and no-op).
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // Span tracer for this run; nullptr = tracing disabled (spans are inert).
  obs::Tracer* tracer() const { return tracer_; }

  // Requests cooperative cancellation; observed by all copies of this
  // context at their next StopRequested poll.
  void Cancel() const { cancel_.Cancel(); }

  // True when no deadline is set (a cancellation can still stop work).
  bool Unlimited() const { return deadline_.infinite(); }

  // The cooperative stop poll. True when the deadline expired, the token was
  // cancelled, the memory budget's hard limit was breached, or — in tests —
  // the failpoint `site` is armed. Work loops call this once per iteration
  // and wind down with their best partial result when it fires. With no
  // deadline, no cancellation, no memory limit, and no armed failpoints this
  // is three relaxed loads, so the unlimited path stays behaviourally and
  // observably identical to pre-deadline code.
  bool StopRequested(const char* site = nullptr) const {
    if (site != nullptr && CATAPULT_FAILPOINT(site)) return true;
    return cancel_.Cancelled() || memory_.HardBreached() ||
           deadline_.Expired();
  }

  // Sub-context whose deadline covers `fraction` of the remaining time (the
  // memory ledger is shared, not sliced: bytes, unlike seconds, are returned
  // when a phase frees its structures).
  RunContext Slice(double fraction) const {
    RunContext copy = *this;
    copy.deadline_ = deadline_.Fraction(fraction);
    return copy;
  }

  // Tightens a configured kernel node budget (0 = unlimited) against the
  // remaining time at `nodes_per_second`: the kernel may use at most the
  // nodes affordable before the deadline. Unlimited contexts return
  // `configured` unchanged; expired contexts return 1 so kernels return
  // immediately but still produce their valid trivial answer.
  uint64_t TightenNodeBudget(
      uint64_t configured,
      double nodes_per_second = kDefaultNodesPerSecond) const;

 private:
  Deadline deadline_;
  CancelToken cancel_;
  MemoryBudget memory_;
  ThreadPool* pool_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace catapult

#endif  // CATAPULT_UTIL_DEADLINE_H_
