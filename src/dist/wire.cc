#include "src/dist/wire.h"

#include <cstring>

#include "src/persist/record_io.h"

namespace catapult::dist {

namespace {

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

}  // namespace catapult::dist
