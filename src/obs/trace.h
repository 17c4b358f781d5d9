#ifndef CATAPULT_OBS_TRACE_H_
#define CATAPULT_OBS_TRACE_H_

// Span-based tracer emitting Chrome trace-event JSON, loadable directly in
// chrome://tracing or https://ui.perfetto.dev. Spans are RAII objects with
// *explicit parent handles*: a child span is given its parent's id() rather
// than being inferred from thread-local nesting, so spans opened inside
// worker threads attach to the phase span that spawned the region even
// though they run on a different thread. Each span also records the delta
// of the owning thread's metric counters between open and close, emitted as
// trace-event args. Only that thread is counted: at 1 thread, hovering a
// VF2-heavy span in Perfetto shows exactly how many calls/nodes it spent,
// but with more threads the work pool workers did inside the span is
// missing (a scheduling-dependent share; DESIGN.md §11), and the metrics
// JSON holds the exact run totals. Only work counts appear there: the
// wall-clock-paced dist.heartbeats is left out.
//
// Spans are coarse (phases, sub-phases, per-cluster folds, checkpoint
// writes), so the tracer is a simple mutex-protected event buffer; the
// per-event lock never sits on an inner loop. A null Tracer* produces inert
// spans that do nothing, which is how a disabled run avoids all tracing
// cost.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace catapult::obs {

// One completed ("ph":"X") trace event.
struct TraceEvent {
  std::string name;
  uint64_t start_ns = 0;  // obs::NowNanos() at span open
  uint64_t dur_ns = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  int tid = 0;             // small per-tracer thread index
  int pid = 0;             // process track; 0 renders as 1 (the host process)
  // Non-zero counter deltas over the span's lifetime on its own thread
  // (dist.heartbeats excluded).
  std::vector<std::pair<Counter, uint64_t>> counter_deltas;
};

// Wire-portable record of one completed span, as shipped by shard workers
// back to the supervisor in completion frames. Span/parent ids are local to
// the worker's batch; ImportShardSpans remaps them into the merged tracer's
// id space. Timestamps are normalized (relative to the batch's earliest
// open) so merged traces are independent of worker wall clocks.
struct SpanRecord {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root within the batch
  uint32_t tid = 0;
  std::vector<std::pair<Counter, uint64_t>> counter_deltas;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Fresh process-unique span id (> 0; 0 means "no parent").
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Appends a finished event; thread-safe.
  void Emit(TraceEvent event);

  size_t event_count() const;

  // Distributed-trace correlation id carried in CTWF frames; 0 = unset.
  // Workers echo it back with their span buffers, and ToJson surfaces it as
  // a top-level "traceId" key when non-zero.
  void SetTraceId(uint64_t id) {
    trace_id_.store(id, std::memory_order_relaxed);
  }
  uint64_t trace_id() const {
    return trace_id_.load(std::memory_order_relaxed);
  }

  // Names a process track ("ph":"M" process_name metadata in ToJson). The
  // host process is pid 1; merged worker shards get stable pids above it.
  void SetProcessName(int pid, std::string name);

  // Removes all buffered events and returns them as wire-portable records
  // with timestamps normalized to the batch's earliest span open. Used by
  // shard workers to ship their buffer in the completion frame.
  std::vector<SpanRecord> DrainSpans();

  // Merges one worker's shipped span batch onto process track `pid`:
  // assigns fresh span ids in record order, rewrites parent links (unknown
  // or zero parents attach to a synthetic root named `root_name` that spans
  // the whole batch), and rebases timestamps at `base_ns`. The root is
  // parented under `parent_span_id` in this tracer's id space. Returns the
  // number of spans imported (excluding the synthetic root). Deterministic:
  // equal batches imported in equal order produce identical events.
  size_t ImportShardSpans(const std::vector<SpanRecord>& spans, int pid,
                          uint64_t parent_span_id,
                          const std::string& root_name, uint64_t base_ns);

  // The full Chrome trace document:
  // {"traceEvents": [...], "displayTimeUnit": "ms"}. Timestamps and
  // durations are microseconds, as the trace-event format specifies.
  // Process-name metadata events come first (by pid), then completed spans
  // in emission order — no sorting, so output is deterministic.
  std::string ToJson() const;
  bool WriteFile(const std::string& path) const;

 private:
  int TidLocked(std::thread::id id);

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::map<std::thread::id, int> tids_;
  std::map<int, std::string> process_names_;
  std::atomic<uint64_t> next_span_id_{0};
  std::atomic<uint64_t> trace_id_{0};
};

// RAII span. Construct with the owning tracer (null = inert) and the
// parent's id (0 = root). The event is emitted on destruction or Close().
class Span {
 public:
  Span(Tracer* tracer, std::string name, uint64_t parent_id = 0);
  ~Span() { Close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // This span's id, for handing to children. 0 when inert: a child of an
  // inert span is simply a root span of whatever tracer *it* gets.
  uint64_t id() const { return id_; }
  bool active() const { return tracer_ != nullptr; }

  // Emits the event early; idempotent.
  void Close();

 private:
  Tracer* tracer_ = nullptr;
  std::string name_;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t start_ns_ = 0;
  std::array<uint64_t, kNumCounters> counters_at_open_{};
};

}  // namespace catapult::obs

#endif  // CATAPULT_OBS_TRACE_H_
