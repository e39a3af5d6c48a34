#include "telemetry/spec_codec.h"


namespace uavres::telemetry {

namespace {

/// Frame header: payload length, then message type.
auto FrameHeader(auto& len, auto& type) {
  return [&](auto& v) { v(len, type); };
}

}  // namespace

std::string EncodeFrame(SpecMsgType type, const std::string& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const auto raw_type = static_cast<std::uint8_t>(type);
  return Encode(FrameHeader(len, raw_type)) + payload;
}

bool FrameReader::Feed(const char* data, std::size_t n) {
  if (corrupt_) return false;
  buf_.append(data, n);
  return true;
}

std::optional<SpecFrame> FrameReader::Next() {
  if (corrupt_) return std::nullopt;
  // Compact lazily: drop consumed prefix once it dominates the buffer.
  if (consumed_ > 0 && consumed_ * 2 > buf_.size()) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  constexpr std::size_t kHeaderBytes = 5;
  std::uint32_t len = 0;
  std::uint8_t type = 0;
  if (!Decode(std::string_view(buf_).substr(consumed_, kHeaderBytes), FrameHeader(len, type))) {
    return std::nullopt;
  }
  if (len > kMaxFramePayloadBytes) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (buf_.size() - consumed_ < kHeaderBytes + len) return std::nullopt;
  SpecFrame frame;
  frame.type = static_cast<SpecMsgType>(type);
  frame.payload.assign(buf_, consumed_ + kHeaderBytes, len);
  consumed_ += kHeaderBytes + len;
  return frame;
}

const char* ToString(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kRejectedOverload: return "overload";
    case RejectReason::kBadSpec: return "bad-spec";
    case RejectReason::kVersionMismatch: return "version-mismatch";
    case RejectReason::kMalformed: return "malformed";
    case RejectReason::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

const char* ToString(ResultSource s) {
  switch (s) {
    case ResultSource::kComputed: return "computed";
    case ResultSource::kStoreHit: return "store-hit";
    case ResultSource::kSingleFlight: return "single-flight";
  }
  return "unknown";
}

}  // namespace uavres::telemetry
