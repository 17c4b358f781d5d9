#include "src/obs/trace.h"

#include <fstream>

#include "src/obs/clock.h"
#include "src/obs/json.h"

namespace catapult::obs {

int Tracer::TidLocked(std::thread::id id) {
  auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  const int tid = static_cast<int>(tids_.size());
  tids_.emplace(id, tid);
  return tid;
}

void Tracer::Emit(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  event.tid = TidLocked(std::this_thread::get_id());
  events_.push_back(std::move(event));
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void Tracer::SetProcessName(int pid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  process_names_[pid] = std::move(name);
}

std::vector<SpanRecord> Tracer::DrainSpans() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(events_.size());
  uint64_t min_start = UINT64_MAX;
  for (const TraceEvent& e : events_) {
    if (e.start_ns < min_start) min_start = e.start_ns;
  }
  for (TraceEvent& e : events_) {
    SpanRecord record;
    record.name = std::move(e.name);
    record.start_ns = e.start_ns - min_start;
    record.dur_ns = e.dur_ns;
    record.span_id = e.span_id;
    record.parent_id = e.parent_id;
    record.tid = static_cast<uint32_t>(e.tid < 0 ? 0 : e.tid);
    record.counter_deltas = std::move(e.counter_deltas);
    out.push_back(std::move(record));
  }
  events_.clear();
  return out;
}

size_t Tracer::ImportShardSpans(const std::vector<SpanRecord>& spans, int pid,
                                uint64_t parent_span_id,
                                const std::string& root_name,
                                uint64_t base_ns) {
  if (spans.empty()) return 0;
  // Pass 1: mint fresh ids in record order (deterministic given a
  // deterministic import order) and find the batch's extent.
  const uint64_t root_id = NextSpanId();
  std::map<uint64_t, uint64_t> remap;
  std::vector<uint64_t> fresh(spans.size());
  uint64_t batch_end = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    fresh[i] = NextSpanId();
    if (spans[i].span_id != 0) remap[spans[i].span_id] = fresh[i];
    const uint64_t end = spans[i].start_ns + spans[i].dur_ns;
    if (end > batch_end) batch_end = end;
  }
  // Pass 2: emit the synthetic root, then the rebased children. Events are
  // appended directly (not via Emit) so tid/pid come from the records, not
  // from the importing thread.
  std::lock_guard<std::mutex> lock(mutex_);
  TraceEvent root;
  root.name = root_name;
  root.start_ns = base_ns;
  root.dur_ns = batch_end;
  root.span_id = root_id;
  root.parent_id = parent_span_id;
  root.tid = 0;
  root.pid = pid;
  events_.push_back(std::move(root));
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    TraceEvent e;
    e.name = s.name;
    e.start_ns = base_ns + s.start_ns;
    e.dur_ns = s.dur_ns;
    e.span_id = fresh[i];
    const auto parent = remap.find(s.parent_id);
    e.parent_id = parent == remap.end() ? root_id : parent->second;
    e.tid = static_cast<int>(s.tid);
    e.pid = pid;
    e.counter_deltas = s.counter_deltas;
    events_.push_back(std::move(e));
  }
  return spans.size();
}

std::string Tracer::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [pid, name] : process_names_) {
      json.BeginObject();
      json.Key("name").Value("process_name");
      json.Key("ph").Value("M");
      json.Key("pid").Value(pid == 0 ? 1 : pid);
      json.Key("tid").Value(0);
      json.Key("args").BeginObject();
      json.Key("name").Value(name);
      json.EndObject();
      json.EndObject();
    }
    for (const TraceEvent& e : events_) {
      json.BeginObject();
      json.Key("name").Value(e.name);
      json.Key("cat").Value("catapult");
      json.Key("ph").Value("X");
      json.Key("ts").Value(e.start_ns / 1000);   // microseconds
      json.Key("dur").Value(e.dur_ns / 1000);
      json.Key("pid").Value(e.pid == 0 ? 1 : e.pid);
      json.Key("tid").Value(e.tid);
      json.Key("args").BeginObject();
      json.Key("span_id").Value(e.span_id);
      json.Key("parent_id").Value(e.parent_id);
      for (const auto& [counter, delta] : e.counter_deltas) {
        json.Key(CounterName(counter)).Value(delta);
      }
      json.EndObject();
      json.EndObject();
    }
  }
  json.EndArray();
  json.Key("displayTimeUnit").Value("ms");
  const uint64_t trace_id = trace_id_.load(std::memory_order_relaxed);
  if (trace_id != 0) json.Key("traceId").Value(trace_id);
  json.EndObject();
  return json.str();
}

bool Tracer::WriteFile(const std::string& path) const {
  const std::string doc = ToJson();
  std::ofstream stream(path, std::ios::binary | std::ios::trunc);
  if (!stream) return false;
  stream << doc << '\n';
  return static_cast<bool>(stream);
}

Span::Span(Tracer* tracer, std::string name, uint64_t parent_id)
    : tracer_(tracer), name_(std::move(name)), parent_id_(parent_id) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NextSpanId();
  start_ns_ = NowNanos();
  counters_at_open_ = ThreadCounterSnapshot();
}

void Span::Close() {
  if (tracer_ == nullptr) return;
  TraceEvent event;
  event.name = std::move(name_);
  event.start_ns = start_ns_;
  const uint64_t now = NowNanos();
  event.dur_ns = now >= start_ns_ ? now - start_ns_ : 0;
  event.span_id = id_;
  event.parent_id = parent_id_;
  const std::array<uint64_t, kNumCounters> at_close = ThreadCounterSnapshot();
  for (size_t i = 0; i < kNumCounters; ++i) {
    // Span args carry work counts only. Heartbeat frames are paced by the
    // wall clock, so their count would differ between identical runs; it
    // stays in the metrics.
    if (static_cast<Counter>(i) == Counter::kDistHeartbeats) continue;
    const uint64_t delta = at_close[i] - counters_at_open_[i];
    if (delta != 0) {
      event.counter_deltas.emplace_back(static_cast<Counter>(i), delta);
    }
  }
  Tracer* tracer = tracer_;
  tracer_ = nullptr;  // idempotent close
  tracer->Emit(std::move(event));
}

}  // namespace catapult::obs
