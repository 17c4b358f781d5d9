#ifndef CATAPULT_OBS_CLOCK_H_
#define CATAPULT_OBS_CLOCK_H_

#include <chrono>
#include <cstdint>

// The single measurement time source for the whole system: phase timers,
// span tracing and metrics all read obs::NowNanos(), which counts
// monotonic nanoseconds since a process-wide anchor taken on first use.
// Pinned to steady_clock: durations feed the deadline slice-donation logic,
// the parallel-speedup accounting and trace-event timestamps, all of which
// would misbehave if the clock could jump (NTP adjustment, suspend/resume)
// mid-phase.
//
// Tests can install a deterministic tick source with ScopedTickSourceForTest
// so trace files and timing-dependent assertions are reproducible down to
// the nanosecond. The Deadline class keeps its own raw steady_clock reads on
// purpose — deadlines are control plane, not measurement, and must not be
// influenced by a test clock.

namespace catapult::obs {

// Function producing monotonic nanoseconds since some fixed origin.
using TickSource = uint64_t (*)();

// Monotonic nanoseconds since the process anchor (or whatever the installed
// tick source reports). Never decreases under the default source.
uint64_t NowNanos();

// Installs a deterministic tick source that advances a thread-local counter
// by `step_ns` per read. Thread-locality makes timestamps a function of each
// thread's own clock-read count, so background threads (heartbeats, admin
// pollers) cannot perturb the timestamps of the thread doing measured work —
// the property the byte-stable trace reruns rely on. Process-wide and
// irreversible by design: used once at startup, before threads exist.
void EnableFixedTicks(uint64_t step_ns);

// Reads CATAPULT_FIXED_TICKS from the environment and, when set, calls
// EnableFixedTicks with its value (nanoseconds per read; an unparseable or
// empty value falls back to 1000). Call at the top of main(), before any
// observability state is touched.
void InstallTicksFromEnv();

// RAII override of the tick source; restores the previous source on
// destruction. Test-only: not for concurrent installation from multiple
// threads, though reads (NowNanos) from any thread are safe.
class ScopedTickSourceForTest {
 public:
  explicit ScopedTickSourceForTest(TickSource source);
  ~ScopedTickSourceForTest();

  ScopedTickSourceForTest(const ScopedTickSourceForTest&) = delete;
  ScopedTickSourceForTest& operator=(const ScopedTickSourceForTest&) = delete;

 private:
  TickSource previous_;
};

// Simple stopwatch over NowNanos(), used for the paper's timing measures
// (clustering time, pattern generation time) and the per-phase wall times in
// ExecutionReport. Lives here so phase timers and span timestamps can never
// disagree about what time it is.
class WallTimer {
 public:
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "phase timings must come from a monotonic clock");

  WallTimer() : start_(NowNanos()) {}

  // Restarts the stopwatch.
  void Reset() { start_ = NowNanos(); }

  // Elapsed seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return static_cast<double>(NowNanos() - start_) * 1e-9;
  }

  // Elapsed milliseconds since construction or the last Reset().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  uint64_t start_;
};

}  // namespace catapult::obs

namespace catapult {
// The stopwatch predates the obs layer; existing call sites use the
// unqualified name.
using obs::WallTimer;
}  // namespace catapult

#endif  // CATAPULT_OBS_CLOCK_H_
