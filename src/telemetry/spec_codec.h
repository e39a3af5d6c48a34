// Versioned wire codec for the `uavres serve` ExperimentSpec API.
//
// The daemon (src/serve) and its clients exchange length-prefixed frames
// over a local TCP stream:
//
//   u32 payload_len | u8 msg_type | payload (payload_len bytes)
//
// Each payload is a Wire* struct below with one field list on the
// telemetry/binary_io.h codec; the codec never interprets simulation
// types — it speaks only the flat wire structs defined here
// (WireSpec mirrors uav::ExperimentSpec's identity fields; the serve layer
// converts). MissionResult payloads reuse the result store's serialization
// verbatim (core::WriteMissionResult), so a result byte-compared over the
// wire is byte-compared against the store and the offline campaign.
//
// Versioning: kSpecSchemaVersion is THE experiment-identity schema number,
// shared verbatim by
//   * this wire protocol (exchanged in Hello/HelloAck; mismatch rejects the
//     connection with kVersionMismatch before any spec is accepted),
//   * core::ExperimentCacheKey (mixed into every store key), and
//   * the result store's on-disk entries (kResultStoreSchemaVersion aliases
//     it — see core/result_store.h).
// Bump it whenever the WireSpec layout, the cache-key recipe, or any
// simulation-affecting semantics change that the spec fields cannot
// express. Client and server must agree exactly: there is no negotiation,
// because a version-skewed spec would silently key a different experiment.
//
// Robustness: every decoder returns false on framing failure (bad magic,
// short payload, trailing bytes, implausible counts, a bool byte above 1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/binary_io.h"

namespace uavres::telemetry {

/// Experiment-identity schema, v3: the serve wire API, the sharded result
/// store and the cache-key recipe all stamp this number (history: v1 seed
/// PR 1, v2 per-axis fault RNG streams in PR 3, v3 serve/sharded store).
inline constexpr std::uint32_t kSpecSchemaVersion = 3;

/// Hello magic ("UVSP"): rejects non-uavres peers before anything else.
inline constexpr std::uint32_t kSpecWireMagic = 0x50535655;

/// Frame sanity bound. The largest legitimate payload is a submit batch of
/// kMaxSpecsPerBatch specs (~64 B each) or a stats JSON dump — both far
/// below this; anything bigger is a corrupt length field.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 16u << 20;  // 16 MiB
inline constexpr std::uint32_t kMaxSpecsPerBatch = 4096;
inline constexpr std::uint32_t kMaxWireStringLen = 1u << 16;

enum class SpecMsgType : std::uint8_t {
  kHello = 1,        ///< client -> server: magic, schema version, client name
  kHelloAck = 2,     ///< server -> client: magic, schema version
  kSubmitBatch = 3,  ///< client -> server: N x (request_id, WireSpec)
  kProgress = 4,     ///< server -> client: request_id, RequestState
  kResult = 5,       ///< server -> client: request_id, source, MissionResult bytes
  kReject = 6,       ///< server -> client: request_id, reason, detail
  kStats = 7,        ///< client -> server: snapshot request
  kStatsReply = 8,   ///< server -> client: ServeStats + metrics JSON
  kShutdown = 9,     ///< client -> server: drain and stop the daemon
};

/// Why a request (or the whole connection, request_id 0) was refused.
enum class RejectReason : std::uint8_t {
  kNone = 0,
  kRejectedOverload = 1,  ///< admission queue full — resubmit later
  kBadSpec = 2,           ///< spec failed validation (unknown mission, ...)
  kVersionMismatch = 3,   ///< client schema != kSpecSchemaVersion
  kMalformed = 4,         ///< undecodable frame; connection is closed
  kShuttingDown = 5,      ///< daemon is draining; no new work accepted
};

/// Lifecycle milestones streamed back per request.
enum class RequestState : std::uint8_t {
  kQueued = 1,    ///< admitted to the scheduler queue
  kRunning = 2,   ///< a worker started simulating this spec
  kAttached = 3,  ///< deduped onto an identical in-flight spec (single-flight)
};

/// Where a request's result came from (dedup accounting on the wire).
enum class ResultSource : std::uint8_t {
  kComputed = 1,      ///< this request's own simulation produced it
  kStoreHit = 2,      ///< served from the persistent result store
  kSingleFlight = 3,  ///< attached to another request's in-flight run
};

/// Flat wire form of one experiment: exactly the identity tuple that
/// core::ExperimentCacheKey hashes, with the drone spec referenced by
/// mission index (the server owns the scenario fleet — clients cannot
/// submit arbitrary vehicle geometry). Field-by-field little-endian layout;
/// extending it requires a kSpecSchemaVersion bump.
struct WireSpec {
  std::int32_t mission_index{0};
  std::uint64_t seed_base{2024};
  bool recovery{false};  ///< RunConfig::recovery axis
  bool has_fault{false};
  std::uint8_t fault_type{0};    ///< core::FaultType
  std::uint8_t fault_target{0};  ///< core::FaultTarget
  double start_time_s{0.0};
  double duration_s{0.0};
  double magnitude{1.0};

  friend bool operator==(const WireSpec&, const WireSpec&) = default;
};

struct WireRequest {
  std::uint64_t request_id{0};
  WireSpec spec;
};

/// Server-side dedup/throughput counters carried in a kStatsReply (ahead of
/// the free-form metrics JSON, so load generators need no JSON parser).
struct ServeStats {
  std::uint64_t accepted{0};       ///< specs admitted (queued or attached)
  std::uint64_t rejected{0};       ///< kReject frames sent
  std::uint64_t completed{0};      ///< kResult frames sent
  std::uint64_t computed{0};       ///< simulations actually run
  std::uint64_t store_hits{0};     ///< served from the persistent store
  std::uint64_t singleflight{0};   ///< attached to an in-flight identical spec
  std::uint64_t gold_computed{0};  ///< reference runs simulated for dependents

  friend bool operator==(const ServeStats&, const ServeStats&) = default;
};

/// One decoded frame: type + raw payload bytes (decode them into the
/// matching Wire* message below).
struct SpecFrame {
  SpecMsgType type{SpecMsgType::kHello};
  std::string payload;
};

// --- Frame layer -----------------------------------------------------------

/// `u32 len | u8 type | payload` as a contiguous byte string ready to send.
std::string EncodeFrame(SpecMsgType type, const std::string& payload);

/// Incremental reassembly for a byte stream: feed arbitrary chunks, pop
/// complete frames. Rejects oversized length fields by entering a sticky
/// error state (the connection should be dropped).
class FrameReader {
 public:
  /// Appends raw bytes from the stream. Returns false once corrupt.
  bool Feed(const char* data, std::size_t n);

  /// Pops the next complete frame, or nullopt if more bytes are needed.
  std::optional<SpecFrame> Next();

  bool corrupt() const { return corrupt_; }

 private:
  std::string buf_;
  std::size_t consumed_{0};
  bool corrupt_{false};
};

// --- Payloads: one struct and one field list per message ------------------
// Encode(message) gives a payload; Decode(payload, message) reads one back
// and fails on any framing error, trailing bytes included
// (telemetry/binary_io.h).

struct WireHello {  ///< kHello
  std::uint32_t schema_version{0};
  std::string client_name;
};

struct WireHelloAck {  ///< kHelloAck
  std::uint32_t schema_version{0};
};

struct WireBatch {  ///< kSubmitBatch
  std::vector<WireRequest> requests;
};

struct WireProgress {  ///< kProgress
  std::uint64_t request_id{0};
  RequestState state{RequestState::kQueued};
};

/// kResult. `result_bytes` is an opaque serialized MissionResult (the serve
/// layer produces it with core::WriteMissionResult); the codec frames it only.
struct WireResult {
  std::uint64_t request_id{0};
  ResultSource source{ResultSource::kComputed};
  std::string result_bytes;
};

struct WireReject {  ///< kReject
  std::uint64_t request_id{0};
  RejectReason reason{RejectReason::kNone};
  std::string detail;
};

struct WireStatsReply {  ///< kStatsReply
  ServeStats stats;
  std::string metrics_json;
};

template <class V>
void Fields(V& v, WireSpec& s) {
  v(s.mission_index, s.seed_base, s.recovery, s.has_fault, s.fault_type, s.fault_target,
    s.start_time_s, s.duration_s, s.magnitude);
}

template <class V>
void Fields(V& v, WireRequest& r) {
  v(r.request_id, r.spec);
}

template <class V>
void Fields(V& v, ServeStats& s) {
  v(s.accepted, s.rejected, s.completed, s.computed, s.store_hits, s.singleflight,
    s.gold_computed);
}

template <class V>
void Fields(V& v, WireHello& m) {
  v(Expect{kSpecWireMagic}, m.schema_version, Capped{m.client_name, kMaxWireStringLen});
}

template <class V>
void Fields(V& v, WireHelloAck& m) {
  v(Expect{kSpecWireMagic}, m.schema_version);
}

template <class V>
void Fields(V& v, WireBatch& m) {
  v(Capped{m.requests, kMaxSpecsPerBatch});
}

template <class V>
void Fields(V& v, WireProgress& m) {
  v(m.request_id, InRange{m.state, RequestState::kQueued, RequestState::kAttached});
}

template <class V>
void Fields(V& v, WireResult& m) {
  v(m.request_id, InRange{m.source, ResultSource::kComputed, ResultSource::kSingleFlight},
    Capped{m.result_bytes, kMaxFramePayloadBytes});
}

template <class V>
void Fields(V& v, WireReject& m) {
  v(m.request_id, InRange{m.reason, RejectReason::kNone, RejectReason::kShuttingDown},
    Capped{m.detail, kMaxWireStringLen});
}

template <class V>
void Fields(V& v, WireStatsReply& m) {
  v(m.stats, Capped{m.metrics_json, kMaxFramePayloadBytes});
}

const char* ToString(RejectReason r);
const char* ToString(ResultSource s);

}  // namespace uavres::telemetry
