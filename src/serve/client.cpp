#include "serve/client.h"

#include <unordered_map>

#include "serve/net.h"

namespace uavres::serve {

using telemetry::RequestState;
using telemetry::SpecFrame;
using telemetry::SpecMsgType;
using telemetry::WireRequest;

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::SendFrame(SpecMsgType type, const std::string& payload,
                       std::string* error) {
  const std::string frame = telemetry::EncodeFrame(type, payload);
  if (!net::SendAll(fd_, frame.data(), frame.size())) {
    if (error) *error = "connection lost while sending";
    return false;
  }
  return true;
}

bool Client::ReadFrame(SpecFrame& frame, std::string* error) {
  for (;;) {
    if (auto next = reader_.Next()) {
      frame = std::move(*next);
      return true;
    }
    if (reader_.corrupt()) {
      if (error) *error = "corrupt frame from server";
      return false;
    }
    char buf[16 * 1024];
    const ssize_t got = net::RecvSome(fd_, buf, sizeof buf);
    if (got <= 0) {
      if (error) *error = "connection closed by server";
      return false;
    }
    if (!reader_.Feed(buf, static_cast<std::size_t>(got))) {
      if (error) *error = "oversized frame from server";
      return false;
    }
  }
}

bool Client::Connect(std::string* error) {
  Close();
  fd_ = net::Connect(opts_.host, opts_.port, error);
  if (fd_ < 0) return false;
  if (!SendFrame(SpecMsgType::kHello,
                 telemetry::Encode(telemetry::WireHello{telemetry::kSpecSchemaVersion, opts_.name}),
                 error)) {
    Close();
    return false;
  }
  SpecFrame frame;
  if (!ReadFrame(frame, error)) {
    Close();
    return false;
  }
  if (frame.type == SpecMsgType::kReject) {
    telemetry::WireReject reject;
    telemetry::Decode(frame.payload, reject);
    if (error) *error = "handshake rejected (" + std::string(ToString(reject.reason)) +
                        "): " + reject.detail;
    Close();
    return false;
  }
  telemetry::WireHelloAck ack;
  if (frame.type != SpecMsgType::kHelloAck || !telemetry::Decode(frame.payload, ack) ||
      ack.schema_version != telemetry::kSpecSchemaVersion) {
    if (error) *error = "unexpected handshake reply";
    Close();
    return false;
  }
  return true;
}

bool Client::SubmitAndWait(const std::vector<telemetry::WireSpec>& specs,
                           std::vector<Outcome>& out, std::string* error) {
  out.clear();
  if (specs.empty()) return true;
  if (fd_ < 0) {
    if (error) *error = "not connected";
    return false;
  }

  telemetry::WireBatch batch;
  batch.requests.reserve(specs.size());
  out.resize(specs.size());
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    WireRequest req;
    req.request_id = next_request_id_++;
    req.spec = specs[i];
    out[i].request_id = req.request_id;
    index.emplace(req.request_id, i);
    batch.requests.push_back(req);
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (!SendFrame(SpecMsgType::kSubmitBatch, telemetry::Encode(batch), error)) {
    return false;
  }

  // Latency is submit-to-terminal per request: the batch goes out at t0 and
  // each request's clock stops when its Result/Reject lands.
  std::size_t pending = specs.size();
  while (pending > 0) {
    SpecFrame frame;
    if (!ReadFrame(frame, error)) return false;
    switch (frame.type) {
      case SpecMsgType::kProgress: {
        telemetry::WireProgress progress;
        if (!telemetry::Decode(frame.payload, progress)) break;
        if (auto it = index.find(progress.request_id); it != index.end()) {
          if (progress.state == RequestState::kAttached) out[it->second].attached = true;
        }
        break;
      }
      case SpecMsgType::kResult: {
        telemetry::WireResult result;
        if (!telemetry::Decode(frame.payload, result)) {
          if (error) *error = "undecodable result frame";
          return false;
        }
        auto it = index.find(result.request_id);
        if (it == index.end()) break;  // stale id from a previous batch
        Outcome& o = out[it->second];
        if (!core::ReadMissionResult(result.result_bytes, o.result)) {
          if (error) *error = "undecodable MissionResult payload";
          return false;
        }
        o.ok = true;
        o.source = result.source;
        o.result_bytes = std::move(result.result_bytes);
        o.latency_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        --pending;
        break;
      }
      case SpecMsgType::kReject: {
        telemetry::WireReject reject;
        if (!telemetry::Decode(frame.payload, reject)) {
          if (error) *error = "undecodable reject frame";
          return false;
        }
        if (reject.request_id == 0) {  // connection-level reject: protocol failure
          if (error) *error = "server rejected connection (" +
                              std::string(ToString(reject.reason)) + "): " + reject.detail;
          return false;
        }
        auto it = index.find(reject.request_id);
        if (it == index.end()) break;
        Outcome& o = out[it->second];
        o.ok = false;
        o.reject = reject.reason;
        o.reject_detail = std::move(reject.detail);
        o.latency_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        --pending;
        break;
      }
      default:
        break;  // tolerate unknown non-terminal frames
    }
  }
  return true;
}

bool Client::QueryStats(telemetry::ServeStats& stats, std::string& metrics_json,
                        std::string* error) {
  if (fd_ < 0) {
    if (error) *error = "not connected";
    return false;
  }
  if (!SendFrame(SpecMsgType::kStats, std::string(), error)) return false;
  SpecFrame frame;
  for (;;) {
    if (!ReadFrame(frame, error)) return false;
    if (frame.type == SpecMsgType::kStatsReply) break;
    // Stats may interleave with late frames from an aborted batch; skip.
  }
  telemetry::WireStatsReply reply;
  if (!telemetry::Decode(frame.payload, reply)) {
    if (error) *error = "undecodable stats reply";
    return false;
  }
  stats = reply.stats;
  metrics_json = std::move(reply.metrics_json);
  return true;
}

bool Client::Shutdown(std::string* error) {
  if (fd_ < 0) {
    if (error) *error = "not connected";
    return false;
  }
  return SendFrame(SpecMsgType::kShutdown, std::string(), error);
}

}  // namespace uavres::serve
