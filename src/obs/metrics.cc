#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/json.h"

namespace catapult::obs {

namespace internal {
constinit thread_local MetricsShard* tls_shard = nullptr;
}  // namespace internal

namespace {

constexpr const char* kCounterNames[] = {
    "vf2.calls",
    "vf2.nodes",
    "vf2.budget_exhausted",
    "ged.bipartite_calls",
    "walk.steps",
    "walk.dead_ends",
    "walk.pcp_emitted",
    "walk.pcp_deduplicated",
    "kmeans.iterations",
    "kmeans.reassignments",
    "fine.split_rounds",
    "csg.folds",
    "csg.vertices_mapped",
    "csg.dummy_pads",
    "selector.cache_hits",
    "selector.cache_misses",
    "selector.cache_evictions",
    "selector.div_folds",
    "selector.div_pruned",
    "ckpt.records_written",
    "ckpt.records_read",
    "ckpt.bytes_written",
    "ckpt.bytes_read",
    "ckpt.fsyncs",
    "mem.charges",
    "mem.charge_refused",
    "mem.soft_pressure",
    "failpoint.fires",
    "dist.workers_spawned",
    "dist.worker_deaths",
    "dist.worker_hangs",
    "dist.shard_retries",
    "dist.backoff_waits",
    "dist.quarantines",
    "dist.inprocess_fallbacks",
    "dist.heartbeats",
    "dist.artifacts_reused",
    "dist.artifacts_rejected",
    "serve.accepted",
    "serve.disconnects",
    "serve.requests",
    "serve.responses",
    "serve.shed",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.degraded",
    "serve.poisoned_streams",
    "serve.idle_reaped",
    "serve.write_timeouts",
    "serve.accept_failures",
    "dist.net.accepts",
    "dist.net.joins",
    "dist.net.rejects",
    "dist.net.reconnects",
    "dist.net.fenced_frames",
    "dist.net.duplicate_clusters",
    "dist.net.write_stalls",
    "dist.net.remote_clusters",
    "obs.spans_merged",
    "obs.spans_dropped",
    "serve.slow_requests",
    "serve.reqlog_dropped",
    "selector.bound_skipped",
    "ged.calls",
    "ged.nodes",
    "ged.budget_exhausted",
    "mcs.calls",
    "mcs.nodes",
    "mcs.budget_exhausted",
    "mcs.nodes_walked",
};
static_assert(sizeof(kCounterNames) / sizeof(kCounterNames[0]) == kNumCounters,
              "counter name table out of sync with the Counter enum");

constexpr const char* kGaugeNames[] = {
    "mem.peak_bytes",
    "selector.cache_peak",
    "pool.threads",
    "serve.queue_depth_peak",
    "serve.sessions_peak",
    "dist.workers_peak",
};
static_assert(sizeof(kGaugeNames) / sizeof(kGaugeNames[0]) == kNumGauges,
              "gauge name table out of sync with the Gauge enum");

constexpr const char* kHistNames[] = {
    "vf2.nodes_per_call",
    "ged.matrix_dim",
    "walk.pcp_edges",
    "ckpt.record_bytes",
    "serve.request_millis",
    "dist.reconnect_millis",
    "serve.queue_wait_millis",
};
static_assert(sizeof(kHistNames) / sizeof(kHistNames[0]) == kNumHists,
              "histogram name table out of sync with the Hist enum");

}  // namespace

uint64_t HistData::Quantile(double p) const {
  if (count == 0) return 0;
  if (p <= 0.0) return min;
  if (p >= 1.0) return max;
  // Rank of the target observation, 1-based.
  const double target = p * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kHistBuckets; ++b) {
    const uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) < target) {
      cumulative += in_bucket;
      continue;
    }
    // Linear interpolation across the bucket's value range. Bucket 0 holds
    // only the value 0; bucket 64 is open-ended, so its upper edge clamps
    // to the observed max.
    if (b == 0) return std::clamp<uint64_t>(0, min, max);
    const double lo = static_cast<double>(uint64_t{1} << (b - 1));
    const double hi = b >= 64 ? static_cast<double>(max)
                              : static_cast<double>((uint64_t{1} << b) - 1);
    const double frac =
        (target - static_cast<double>(cumulative)) / in_bucket;
    const double value = lo + (hi - lo) * frac;
    const uint64_t rounded = static_cast<uint64_t>(value + 0.5);
    return std::clamp(rounded, min, max);
  }
  return max;
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  enabled = enabled || other.enabled;
  for (size_t i = 0; i < kNumCounters; ++i) counters[i] += other.counters[i];
  for (size_t i = 0; i < kNumGauges; ++i) {
    gauges[i] = std::max(gauges[i], other.gauges[i]);
  }
  for (size_t i = 0; i < kNumHists; ++i) hists[i].MergeFrom(other.hists[i]);
}

const char* CounterName(Counter c) {
  return kCounterNames[static_cast<size_t>(c)];
}
const char* GaugeName(Gauge g) { return kGaugeNames[static_cast<size_t>(g)]; }
const char* HistName(Hist h) { return kHistNames[static_cast<size_t>(h)]; }

std::array<uint64_t, kNumCounters> ThreadCounterSnapshot() {
  MetricsShard* shard = internal::tls_shard;
  if (shard != nullptr) return shard->counters;
  return {};
}

MetricsShard* MetricsRegistry::ShardForThisThread() {
  const std::thread::id me = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, shard] : shards_) {
    if (id == me) return shard.get();
  }
  shards_.emplace_back(me, std::make_unique<MetricsShard>());
  return shards_.back().second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.enabled = true;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, shard] : shards_) {
    for (size_t i = 0; i < kNumCounters; ++i) {
      snapshot.counters[i] += shard->counters[i];
    }
    for (size_t i = 0; i < kNumGauges; ++i) {
      snapshot.gauges[i] = std::max(snapshot.gauges[i], shard->gauges[i]);
    }
    for (size_t i = 0; i < kNumHists; ++i) {
      snapshot.hists[i].MergeFrom(shard->hists[i]);
    }
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, shard] : shards_) *shard = MetricsShard{};
}

ScopedMetricsScope::ScopedMetricsScope(MetricsRegistry* registry) {
  if (registry != nullptr) {
    previous_ = internal::tls_shard;
    internal::tls_shard = registry->ShardForThisThread();
    installed_ = true;
  }
}

ScopedMetricsScope::~ScopedMetricsScope() {
  if (installed_) internal::tls_shard = previous_;
}

std::string HumanSummary(const MetricsSnapshot& snapshot, bool include_zeros) {
  std::string out;
  char line[160];
  out += "counters:\n";
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (snapshot.counters[i] == 0 && !include_zeros) continue;
    std::snprintf(line, sizeof(line), "  %-24s %12llu\n", kCounterNames[i],
                  static_cast<unsigned long long>(snapshot.counters[i]));
    out += line;
  }
  out += "gauges:\n";
  for (size_t i = 0; i < kNumGauges; ++i) {
    if (snapshot.gauges[i] == 0 && !include_zeros) continue;
    std::snprintf(line, sizeof(line), "  %-24s %12llu\n", kGaugeNames[i],
                  static_cast<unsigned long long>(snapshot.gauges[i]));
    out += line;
  }
  out += "histograms:\n";
  for (size_t i = 0; i < kNumHists; ++i) {
    const HistData& h = snapshot.hists[i];
    if (h.count == 0 && !include_zeros) continue;
    std::snprintf(line, sizeof(line),
                  "  %-24s count=%llu mean=%.1f min=%llu max=%llu "
                  "p50=%llu p95=%llu p99=%llu\n",
                  kHistNames[i], static_cast<unsigned long long>(h.count),
                  h.Mean(),
                  static_cast<unsigned long long>(h.count == 0 ? 0 : h.min),
                  static_cast<unsigned long long>(h.max),
                  static_cast<unsigned long long>(h.Quantile(0.50)),
                  static_cast<unsigned long long>(h.Quantile(0.95)),
                  static_cast<unsigned long long>(h.Quantile(0.99)));
    out += line;
  }
  return out;
}

void RenderMetricsFields(const MetricsSnapshot& snapshot, JsonWriter& json) {
  json.Key("enabled").Value(snapshot.enabled);
  json.Key("counters").BeginObject();
  for (size_t i = 0; i < kNumCounters; ++i) {
    json.Key(kCounterNames[i]).Value(snapshot.counters[i]);
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (size_t i = 0; i < kNumGauges; ++i) {
    json.Key(kGaugeNames[i]).Value(snapshot.gauges[i]);
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (size_t i = 0; i < kNumHists; ++i) {
    const HistData& h = snapshot.hists[i];
    json.Key(kHistNames[i]).BeginObject();
    json.Key("count").Value(h.count);
    json.Key("sum").Value(h.sum);
    json.Key("min").Value(h.count == 0 ? uint64_t{0} : h.min);
    json.Key("max").Value(h.max);
    json.Key("buckets").BeginArray();
    size_t last = kHistBuckets;
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (size_t b = 0; b < last; ++b) json.Value(h.buckets[b]);
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();
}

}  // namespace catapult::obs
