#include "src/dist/wire.h"

#include <cstring>

#include "src/persist/record_io.h"

namespace catapult::dist {

namespace {

using persist::BinaryReader;
using persist::BinaryWriter;
using persist::Crc32;

void PutLeU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint32_t GetLeU32(const char* data) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(data[i]))
             << (8 * i);
  }
  return value;
}

bool ValidFrameType(uint32_t raw) {
  return raw >= static_cast<uint32_t>(FrameType::kHeartbeat) &&
         raw <= static_cast<uint32_t>(FrameType::kShutdown) && raw != 3;
}

constexpr size_t kHeaderBytes = 16;

// Minimum encoded size of one SpanRecord: empty name (4-byte length), five
// u64 fields, a u32 tid and a u64 delta count. Used as a hostile-count cap.
constexpr size_t kMinSpanBytes = 4 + 5 * 8 + 4 + 8;

void PutSpan(BinaryWriter* w, const obs::SpanRecord& s) {
  w->PutString(s.name);
  w->PutU64(s.start_ns);
  w->PutU64(s.dur_ns);
  w->PutU64(s.span_id);
  w->PutU64(s.parent_id);
  w->PutU32(s.tid);
  w->PutU64(s.counter_deltas.size());
  for (const auto& [counter, delta] : s.counter_deltas) {
    w->PutU32(static_cast<uint32_t>(counter));
    w->PutU64(delta);
  }
}

bool GetSpan(BinaryReader* r, obs::SpanRecord* s) {
  s->name = r->GetString();
  s->start_ns = r->GetU64();
  s->dur_ns = r->GetU64();
  s->span_id = r->GetU64();
  s->parent_id = r->GetU64();
  s->tid = r->GetU32();
  const uint64_t delta_count = r->GetU64();
  if (!r->ok() || delta_count > obs::kNumCounters) return false;
  s->counter_deltas.clear();
  s->counter_deltas.reserve(delta_count);
  for (uint64_t i = 0; i < delta_count && r->ok(); ++i) {
    const uint32_t counter = r->GetU32();
    const uint64_t delta = r->GetU64();
    if (counter >= obs::kNumCounters) return false;
    s->counter_deltas.emplace_back(static_cast<obs::Counter>(counter), delta);
  }
  return r->ok();
}

}  // namespace

std::string EncodeFrame(FrameType type, const std::string& payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  PutLeU32(&out, kFrameMagic);
  PutLeU32(&out, static_cast<uint32_t>(type));
  PutLeU32(&out, static_cast<uint32_t>(payload.size()));
  PutLeU32(&out, Crc32(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

void FrameReader::Feed(const char* data, size_t size) {
  if (corrupt_) return;
  buffer_.append(data, size);
}

std::optional<Frame> FrameReader::Next() {
  if (corrupt_) return std::nullopt;
  if (buffer_.size() - offset_ < kHeaderBytes) return std::nullopt;
  const char* header = buffer_.data() + offset_;
  if (GetLeU32(header) != kFrameMagic) {
    corrupt_ = true;
    error_ = "bad frame magic";
    return std::nullopt;
  }
  uint32_t raw_type = GetLeU32(header + 4);
  if (!ValidFrameType(raw_type)) {
    corrupt_ = true;
    error_ = "unknown frame type";
    return std::nullopt;
  }
  uint32_t payload_size = GetLeU32(header + 8);
  if (payload_size > kMaxFramePayload) {
    corrupt_ = true;
    error_ = "frame payload too large";
    return std::nullopt;
  }
  if (buffer_.size() - offset_ < kHeaderBytes + payload_size) {
    return std::nullopt;  // incomplete; wait for more bytes
  }
  uint32_t expected_crc = GetLeU32(header + 12);
  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.payload.assign(buffer_, offset_ + kHeaderBytes, payload_size);
  if (Crc32(frame.payload.data(), frame.payload.size()) != expected_crc) {
    corrupt_ = true;
    error_ = "frame checksum mismatch";
    return std::nullopt;
  }
  offset_ += kHeaderBytes + payload_size;
  // Compact once the consumed prefix dominates, so a long-lived reader does
  // not grow without bound.
  if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  return frame;
}

std::string Encode(const HeartbeatFrame&) { return std::string(); }

std::string Encode(const ShardDoneFrame& f) {
  BinaryWriter w;
  w.PutU64(f.shard);
  w.PutU64(f.counters.size());
  for (uint64_t c : f.counters) w.PutU64(c);
  w.PutU64(f.trace_id);
  w.PutU64(f.spans.size());
  for (const obs::SpanRecord& s : f.spans) PutSpan(&w, s);
  return w.TakeBuffer();
}

std::string Encode(const ShardErrorFrame& f) {
  BinaryWriter w;
  w.PutString(f.message);
  return w.TakeBuffer();
}

bool Decode(const std::string& payload, HeartbeatFrame*) {
  return payload.empty();
}

bool Decode(const std::string& payload, ShardDoneFrame* f) {
  BinaryReader r(payload);
  f->shard = r.GetU64();
  uint64_t count = r.GetU64();
  if (!r.ok() || count > obs::kNumCounters) return false;
  f->counters.assign(count, 0);
  for (uint64_t i = 0; i < count; ++i) f->counters[i] = r.GetU64();
  f->trace_id = r.GetU64();
  const uint64_t span_count = r.GetU64();
  if (!r.ok() || span_count > payload.size() / kMinSpanBytes) return false;
  f->spans.clear();
  f->spans.reserve(span_count);
  for (uint64_t i = 0; i < span_count; ++i) {
    obs::SpanRecord span;
    if (!GetSpan(&r, &span)) return false;
    f->spans.push_back(std::move(span));
  }
  return r.ok() && r.AtEnd();
}

bool Decode(const std::string& payload, ShardErrorFrame* f) {
  BinaryReader r(payload);
  f->message = r.GetString();
  return r.ok() && r.AtEnd();
}

std::string Encode(const JoinRequestFrame& f) {
  BinaryWriter w;
  w.PutU64(f.protocol);
  w.PutU64(f.fingerprint);
  w.PutString(f.worker_name);
  w.PutU64(f.prev_worker_id);
  w.PutU64(f.prev_generation);
  return w.TakeBuffer();
}

std::string Encode(const JoinAcceptFrame& f) {
  BinaryWriter w;
  w.PutU64(f.worker_id);
  w.PutU64(f.generation);
  w.PutDouble(f.heartbeat_interval_ms);
  w.PutDouble(f.heartbeat_timeout_ms);
  return w.TakeBuffer();
}

std::string Encode(const JoinRejectFrame& f) {
  BinaryWriter w;
  w.PutU32(f.code);
  w.PutString(f.message);
  return w.TakeBuffer();
}

std::string Encode(const ShardAssignFrame& f) {
  BinaryWriter w;
  w.PutU64(f.shard);
  w.PutU64(f.attempt);
  w.PutU64(f.generation);
  w.PutU8(f.fine_enabled ? 1 : 0);
  w.PutU64(f.fine_max_cluster_size);
  w.PutU8(f.mcs_connected ? 1 : 0);
  w.PutU8(f.mcs_match_edge_labels ? 1 : 0);
  w.PutU64(f.mcs_node_budget);
  w.PutDouble(f.deadline_remaining_ms);
  w.PutU64(f.mem_soft_limit_bytes);
  w.PutU64(f.mem_hard_limit_bytes);
  w.PutU64(f.clusters.size());
  for (const ClusterWork& c : f.clusters) {
    w.PutU64(c.index);
    w.PutU64(c.members.size());
    for (GraphId id : c.members) w.PutU32(id);
    for (uint64_t word : c.stream.words) w.PutU64(word);
  }
  w.PutU64(f.trace_id);
  w.PutU64(f.threads);
  return w.TakeBuffer();
}

std::string Encode(const ClusterResultFrame& f) {
  BinaryWriter w;
  w.PutU64(f.shard);
  w.PutU64(f.generation);
  w.PutU64(f.cluster_index);
  w.PutString(f.payload);
  return w.TakeBuffer();
}

std::string Encode(const ShutdownFrame& f) {
  BinaryWriter w;
  w.PutU32(f.code);
  w.PutString(f.message);
  return w.TakeBuffer();
}

bool Decode(const std::string& payload, JoinRequestFrame* f) {
  BinaryReader r(payload);
  f->protocol = r.GetU64();
  // Another version's layout: only its version is ours to read.
  if (r.ok() && f->protocol != kDistProtocolVersion) return true;
  f->fingerprint = r.GetU64();
  f->worker_name = r.GetString();
  f->prev_worker_id = r.GetU64();
  f->prev_generation = r.GetU64();
  return r.ok() && r.AtEnd();
}

bool Decode(const std::string& payload, JoinAcceptFrame* f) {
  BinaryReader r(payload);
  f->worker_id = r.GetU64();
  f->generation = r.GetU64();
  f->heartbeat_interval_ms = r.GetDouble();
  f->heartbeat_timeout_ms = r.GetDouble();
  return r.ok() && r.AtEnd();
}

bool Decode(const std::string& payload, JoinRejectFrame* f) {
  BinaryReader r(payload);
  f->code = r.GetU32();
  f->message = r.GetString();
  return r.ok() && r.AtEnd();
}

bool Decode(const std::string& payload, ShardAssignFrame* f) {
  BinaryReader r(payload);
  f->shard = r.GetU64();
  f->attempt = r.GetU64();
  f->generation = r.GetU64();
  f->fine_enabled = r.GetU8() != 0;
  f->fine_max_cluster_size = r.GetU64();
  f->mcs_connected = r.GetU8() != 0;
  f->mcs_match_edge_labels = r.GetU8() != 0;
  f->mcs_node_budget = r.GetU64();
  f->deadline_remaining_ms = r.GetDouble();
  f->mem_soft_limit_bytes = r.GetU64();
  f->mem_hard_limit_bytes = r.GetU64();
  uint64_t cluster_count = r.GetU64();
  // Each cluster costs at least 48 payload bytes (index + count + stream),
  // so a count beyond payload/48 is corruption — reject before reserving.
  if (!r.ok() || cluster_count > payload.size() / 48) return false;
  f->clusters.clear();
  f->clusters.reserve(cluster_count);
  for (uint64_t i = 0; i < cluster_count && r.ok(); ++i) {
    ClusterWork work;
    work.index = r.GetU64();
    uint64_t member_count = r.GetU64();
    if (!r.ok() || member_count > payload.size() / 4) return false;
    work.members.reserve(member_count);
    for (uint64_t m = 0; m < member_count && r.ok(); ++m) {
      work.members.push_back(r.GetU32());
    }
    for (uint64_t& word : work.stream.words) word = r.GetU64();
    // A fine-enabled assignment must carry a usable stream for every
    // cluster: the all-zero state is xoshiro's absorbing fixed point.
    if (f->fine_enabled && !work.stream.Valid()) return false;
    f->clusters.push_back(std::move(work));
  }
  f->trace_id = r.GetU64();
  f->threads = r.GetU64();
  return r.ok() && r.AtEnd();
}

bool Decode(const std::string& payload, ClusterResultFrame* f) {
  BinaryReader r(payload);
  f->shard = r.GetU64();
  f->generation = r.GetU64();
  f->cluster_index = r.GetU64();
  f->payload = r.GetString();
  return r.ok() && r.AtEnd();
}

bool Decode(const std::string& payload, ShutdownFrame* f) {
  BinaryReader r(payload);
  f->code = r.GetU32();
  f->message = r.GetString();
  return r.ok() && r.AtEnd();
}

}  // namespace catapult::dist
