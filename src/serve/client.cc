#include "src/serve/client.h"

#include <chrono>
#include <cstdio>
#include <thread>

namespace catapult::serve {

namespace {
// How long Connect waits for room in the server's listen backlog.
constexpr double kConnectTimeoutMs = 5000.0;
}  // namespace

ServeClient::~ServeClient() { Close(); }

std::string ServeClient::Connect(const std::string& socket_path) {
  Close();
  dist::Address address;
  std::string error;
  if (!dist::ParseAddress("unix:" + socket_path, &address, &error)) {
    return "connect: " + error;
  }
  const int fd = dist::Dial(address, kConnectTimeoutMs, &error);
  if (fd < 0) return error;
  channel_ = std::make_unique<dist::Channel>(fd);
  reader_ = dist::FrameReader();
  return "";
}

void ServeClient::Close() { channel_.reset(); }

bool ServeClient::SendRawBytes(const std::string& bytes) {
  return channel_ != nullptr && channel_->SendEncoded(bytes);
}

std::string ServeClient::ReadFrame(dist::Frame* frame, double timeout_ms) {
  if (channel_ == nullptr) return "not connected";
  switch (dist::WaitFrame(*channel_, reader_, timeout_ms, frame)) {
    case dist::WaitStatus::kFrame:
      return "";
    case dist::WaitStatus::kTimeout:
      return "timed out waiting for reply";
    case dist::WaitStatus::kClosed:
      return "connection closed by server";
    case dist::WaitStatus::kCorrupt:
      return "stream corrupt: " + reader_.error();
    case dist::WaitStatus::kError:
      break;
  }
  return channel_->error().empty() ? "connection lost" : channel_->error();
}

ServeClient::MineOutcome ServeClient::Mine(const MineRequest& request,
                                           double timeout_ms) {
  MineOutcome outcome;
  if (!SendRawBytes(
          dist::EncodeFrame(dist::FrameType::kServeRequest, Encode(request)))) {
    outcome.error = "send failed";
    return outcome;
  }
  dist::Frame frame;
  const std::string read_error = ReadFrame(&frame, timeout_ms);
  if (!read_error.empty()) {
    outcome.error = read_error;
    return outcome;
  }
  switch (frame.type) {
    case dist::FrameType::kServeResponse:
      if (!Decode(frame.payload, &outcome.reply) ||
          !DecodePanel(outcome.reply.panel, &outcome.panel)) {
        outcome.error = "undecodable panel reply";
        return outcome;
      }
      outcome.kind = MineOutcome::Kind::kPanel;
      return outcome;
    case dist::FrameType::kServeShed:
      if (!Decode(frame.payload, &outcome.shed)) {
        outcome.error = "undecodable shed reply";
        return outcome;
      }
      outcome.kind = MineOutcome::Kind::kShed;
      outcome.request_id = outcome.shed.request_id;
      return outcome;
    case dist::FrameType::kServeError: {
      ErrorReply err;
      if (!Decode(frame.payload, &err)) {
        outcome.error = "undecodable error reply";
        return outcome;
      }
      outcome.kind = MineOutcome::Kind::kError;
      outcome.error = err.message;
      outcome.request_id = err.request_id;
      return outcome;
    }
    default:
      outcome.error = "unexpected reply frame type";
      return outcome;
  }
}

ServeClient::MineOutcome ServeClient::MineWithRetry(const MineRequest& request,
                                                    size_t max_attempts,
                                                    double timeout_ms,
                                                    std::string* retry_log) {
  MineOutcome outcome;
  for (size_t attempt = 0; attempt + 1 < max_attempts; ++attempt) {
    outcome = Mine(request, timeout_ms);
    if (outcome.kind != MineOutcome::Kind::kShed) return outcome;
    if (retry_log != nullptr) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "retry attempt=%zu shed=%s request_id=%llu backoff_ms=%g\n",
                    attempt + 1, ToString(outcome.shed.reason),
                    static_cast<unsigned long long>(outcome.shed.request_id),
                    outcome.shed.retry_after_ms);
      retry_log->append(line);
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        outcome.shed.retry_after_ms));
  }
  return max_attempts == 0 ? outcome : Mine(request, timeout_ms);
}

std::string ServeClient::Ping(PongReply* pong, double timeout_ms) {
  PingRequest ping;
  ping.nonce = 0x70696e67u;  // "ping"
  if (!SendRawBytes(
          dist::EncodeFrame(dist::FrameType::kServePing, Encode(ping)))) {
    return "send failed";
  }
  dist::Frame frame;
  const std::string read_error = ReadFrame(&frame, timeout_ms);
  if (!read_error.empty()) return read_error;
  if (frame.type != dist::FrameType::kServePong ||
      !Decode(frame.payload, pong)) {
    return "undecodable pong reply";
  }
  return "";
}

}  // namespace catapult::serve
