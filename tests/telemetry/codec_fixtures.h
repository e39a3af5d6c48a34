// Hand-filled codec fixtures: one byte string per serialized artifact layout,
// built through the public writers. Every field carries a distinct value, so
// a dropped, duplicated or reordered field changes the bytes.
//
// Shared by the golden (codec_golden_test.cpp), the corruption sweep
// (codec_corruption_test.cpp) and the hostile-count allocation bound
// (perf/alloc_regression_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bus/record.h"
#include "core/result_store.h"
#include "sim/snapshot.h"
#include "telemetry/fleet_codec.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/snapshot_codec.h"
#include "telemetry/spec_codec.h"

namespace uavres::codec_fixtures {

/// Which reader a fixture belongs to.
enum class Kind { kStoredRun, kFleetEntry, kSnapshot, kBusLog, kFlightRecord, kWireFrame };

struct Fixture {
  std::string name;
  Kind kind;
  std::string bytes;
  std::uint64_t key{0};  ///< store entries: the key the reader expects
};

inline constexpr std::uint64_t kGoldKey = 0x1122334455667788ULL;
inline constexpr std::uint64_t kFaultyKey = 0x8877665544332211ULL;
inline constexpr std::uint64_t kFleetKey = 0xA1B2C3D4E5F60718ULL;

inline core::MissionResult GoldResult() {
  core::MissionResult r;
  r.mission_index = 3;
  r.mission_name = "VLC-04 W-E";
  r.is_gold = true;
  r.fault.type = core::FaultType::kFreeze;
  r.fault.target = core::FaultTarget::kGyrometer;
  r.fault.start_time_s = 1.25;
  r.fault.duration_s = 2.5;
  r.outcome = core::MissionOutcome::kCompleted;
  r.flight_duration_s = 301.75;
  r.distance_km = 1.375;
  r.inner_violations = 4;
  r.outer_violations = 5;
  r.max_deviation_m = 0.625;
  r.failsafe_reason = nav::FailsafeReason::kSensorFault;
  r.failsafe_time_s = 6.5;
  r.crash_reason = "none";
  r.crash_time_s = 7.5;
  r.detector_enabled = true;
  r.detection_time_s = 8.5;
  r.detection_latency_s = 9.5;
  r.false_positives = 6;
  r.recovery_engaged = false;
  r.recovery_success = true;
  return r;
}

inline core::MissionResult FaultyResult() {
  core::MissionResult r;
  r.mission_index = 7;
  r.mission_name = "VLC-08";
  r.is_gold = false;
  r.fault.type = core::FaultType::kNoise;
  r.fault.target = core::FaultTarget::kImu;
  r.fault.start_time_s = 90.0;
  r.fault.duration_s = 30.0;
  r.outcome = core::MissionOutcome::kCrashed;
  r.flight_duration_s = 101.5;
  r.distance_km = 0.875;
  r.inner_violations = 11;
  r.outer_violations = 12;
  r.max_deviation_m = 42.25;
  r.failsafe_reason = nav::FailsafeReason::kEstimatorFailure;
  r.failsafe_time_s = 99.5;
  r.crash_reason = "tip-over";
  r.crash_time_s = 101.25;
  r.detector_enabled = false;
  r.detection_time_s = -1.0;
  r.detection_latency_s = -2.0;
  r.false_positives = 13;
  r.recovery_engaged = true;
  r.recovery_success = false;
  return r;
}

inline telemetry::TrajectorySample Sample(double base, bool fault_active) {
  telemetry::TrajectorySample s;
  s.t = base;
  s.pos_true = {base + 0.01, base + 0.02, base + 0.03};
  s.pos_est = {base + 0.04, base + 0.05, base + 0.06};
  s.vel_true = {base + 0.07, base + 0.08, base + 0.09};
  s.vel_est = {base + 0.10, base + 0.11, base + 0.12};
  s.att_true = {base + 0.13, base + 0.14, base + 0.15, base + 0.16};
  s.att_est = {base + 0.17, base + 0.18, base + 0.19, base + 0.20};
  s.airspeed_est = base + 0.21;
  s.fault_active = fault_active;
  return s;
}

inline telemetry::Trajectory ThreeSamples() {
  telemetry::Trajectory t;
  t.Add(Sample(10.0, false));
  t.Add(Sample(20.0, true));
  t.Add(Sample(30.0, false));
  return t;
}

inline telemetry::FleetRecord Fleet() {
  telemetry::FleetRecord r;
  r.num_drones = 2;
  r.sim_time_s = 1234.5;
  r.drones.push_back({7, "convoy-7", 1, 600.25, 0.125});
  r.drones.push_back({8, "convoy-8", 2, 700.75, 3.5});
  r.events.push_back({7, 8, 40.5, 41.5, 1.75, 1});
  r.events.push_back({8, 7, 50.5, 52.5, 0.25, 0});
  r.conflicts = 21;
  r.alerts = 22;
  r.instants_in_conflict = 23;
  r.min_separation_m = 0.375;
  r.broadphase_horizon_m = 24.5;
  r.cascade_size = 25;
  r.secondary_conflicts = 26;
  r.separation_samples = 27;
  r.separation_p5_m = 28.5;
  r.separation_p50_m = 29.5;
  r.reports_published = 30;
  r.reports_dropped = 31;
  r.reports_quarantined = 32;
  r.missions_completed = 33;
  r.relaunches = 34;
  r.throughput_missions_per_hour = 35.5;
  return r;
}

inline sim::Snapshot Snapshot() {
  sim::Snapshot snap;
  snap.version = sim::kSnapshotVersion;
  snap.seed = 0x0123456789ABCDEFULL;
  snap.step_count = 22500;
  snap.time_s = 89.996;
  snap.mission_index = 4;
  snap.mission_name = "VLC-05";
  snap.config_digest = 0xDEADBEEFCAFEF00DULL;
  snap.seed_base = 2024;
  snap.has_fault = true;
  snap.fault_type = 5;
  snap.fault_target = 1;
  snap.fault_start_s = 90.0;
  snap.fault_duration_s = 10.0;
  snap.fault_magnitude = 0.78125;
  snap.Add(3).bytes = std::string("\x00\x01\x02\x03\xFF", 5);
  snap.Add(14).bytes = "\x10\x20\x30";
  return snap;
}

inline bus::BusLogHeader BusHeader(bool has_fault) {
  bus::BusLogHeader h;
  h.mission_index = 6;
  h.seed_base = 0x5EEDBA5E;
  h.control_rate_hz = 250.5;
  h.has_fault = has_fault;
  if (has_fault) {
    h.fault_type = 3;
    h.fault_target = 2;
    h.fault_start_s = 90.25;
    h.fault_duration_s = 60.5;
  }
  h.recovery = true;
  return h;
}

inline math::Vec3 V(double base) { return {base + 0.1, base + 0.2, base + 0.3}; }

/// One frame per TopicId, in id order, every payload field distinct.
inline std::vector<bus::BusFrame> BusFrames() {
  std::vector<bus::BusFrame> frames;
  for (int id = 0; id < bus::kNumTopics; ++id) {
    bus::BusFrame f;
    f.id = static_cast<bus::TopicId>(id);
    f.t = 100.0 + id;
    frames.push_back(f);
  }
  auto& imu = frames[0].imu;
  for (int u = 0; u < bus::ImuSignal::kUnits; ++u) {
    imu.units[u].t = 1.0 + u;
    imu.units[u].accel_mps2 = V(2.0 + u);
    imu.units[u].gyro_rads = V(5.0 + u);
  }
  frames[1].gps = {11.0, V(12.0), V(13.0), false};
  frames[2].baro = {21.0, 22.5};
  frames[3].mag = {31.0, V(32.0)};
  auto& est = frames[4].estimate;
  est.att = {0.9, 0.1, 0.2, 0.3};
  est.vel = V(41.0);
  est.pos = V(42.0);
  est.gyro_bias = V(43.0);
  est.accel_bias = V(44.0);
  est.body_rate = V(45.0);
  auto& st = frames[5].estimator_status;
  st.gps_pos_test_ratio = 51.5;
  st.gps_vel_test_ratio = 52.5;
  st.baro_test_ratio = 53.5;
  st.mag_test_ratio = 54.5;
  st.time_since_gps_accept_s = 55.5;
  st.gps_reset_count = 56;
  st.gps_large_reset_count = 57;
  st.attitude_reset_count = 58;
  st.numerically_healthy = false;
  st.cov_asymmetry_events = 59;
  st.cov_negative_variance_events = 60;
  st.cov_trace_peak = 61.5;
  frames[6].imu_select.unit = 2;
  frames[7].health = {true, 3};
  auto& sp = frames[8].setpoint;
  sp.sp.pos = V(81.0);
  sp.sp.vel_ff = V(82.0);
  sp.sp.yaw = 83.5;
  sp.sp.cruise_speed = 84.5;
  sp.flight_mode = 4;
  sp.landed = true;
  frames[9].actuator = {{91.5, 92.5, 93.5, 94.5}, 95.5};
  auto& truth = frames[10].truth;
  truth.state.pos = V(101.0);
  truth.state.vel = V(102.0);
  truth.state.att = {0.8, 0.4, 0.2, 0.4};
  truth.state.omega = V(103.0);
  truth.state.accel_world = V(104.0);
  truth.on_ground = false;
  truth.induced_power_w = 105.5;
  frames[11].battery = {true, false, 0.625};
  frames[12].detector = {2, true, 121.5, 122.5, 123.5};
  return frames;
}

inline std::string BusLog(bool has_fault) {
  std::ostringstream os(std::ios::binary);
  bus::WriteBusLogHeader(os, BusHeader(has_fault));
  for (const auto& f : BusFrames()) bus::WriteBusFrame(os, f);
  return os.str();
}

inline telemetry::FlightRecord FlightRecord() {
  telemetry::FlightRecord r;
  r.trajectory = ThreeSamples();
  r.log.Add(0.5, telemetry::LogLevel::kInfo, "mode -> takeoff");
  r.log.Add(90.25, telemetry::LogLevel::kWarning, "fault window opened");
  r.log.Add(95.75, telemetry::LogLevel::kCritical, "FAILSAFE engaged");
  return r;
}

inline std::string Le64(std::uint64_t v) {
  std::string b(8, '\0');
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  return b;
}

inline std::vector<Fixture> All() {
  std::vector<Fixture> out;
  const auto add = [&](std::string name, Kind kind, std::string bytes,
                       std::uint64_t key = 0) {
    out.push_back({std::move(name), kind, std::move(bytes), key});
  };
  {
    std::ostringstream os(std::ios::binary);
    core::WriteStoredRun(os, kGoldKey, {GoldResult(), ThreeSamples()});
    add("uvrs_gold", Kind::kStoredRun, os.str(), kGoldKey);
  }
  {
    std::ostringstream os(std::ios::binary);
    core::WriteStoredRun(os, kFaultyKey, {FaultyResult(), std::nullopt});
    add("uvrs_faulty", Kind::kStoredRun, os.str(), kFaultyKey);
  }
  {
    // A .uvfl store file is the entry's u64 key followed by the record.
    std::ostringstream os(std::ios::binary);
    telemetry::WriteFleetRecord(os, Fleet());
    add("uvfl_entry", Kind::kFleetEntry, Le64(kFleetKey) + os.str(), kFleetKey);
  }
  {
    std::ostringstream os(std::ios::binary);
    telemetry::WriteSnapshot(os, Snapshot());
    add("uvsnap", Kind::kSnapshot, os.str());
  }
  add("uvbs_fault", Kind::kBusLog, BusLog(true));
  add("uvbs_no_fault", Kind::kBusLog, BusLog(false));
  {
    std::ostringstream os(std::ios::binary);
    telemetry::WriteFlightRecord(os, FlightRecord());
    add("uvrl", Kind::kFlightRecord, os.str());
  }

  using telemetry::EncodeFrame;
  using telemetry::SpecMsgType;
  telemetry::WireSpec faulty;
  faulty.mission_index = 7;
  faulty.seed_base = 987654321;
  faulty.recovery = true;
  faulty.has_fault = true;
  faulty.fault_type = 3;
  faulty.fault_target = 1;
  faulty.start_time_s = 90.5;
  faulty.duration_s = 12.5;
  faulty.magnitude = 0.75;
  telemetry::WireSpec gold;
  gold.mission_index = 2;
  gold.seed_base = 2025;
  gold.recovery = false;
  gold.has_fault = false;
  gold.fault_type = 0;
  gold.fault_target = 0;
  gold.start_time_s = 0.0;
  gold.duration_s = 0.0;
  gold.magnitude = 1.0;
  std::ostringstream result(std::ios::binary);
  core::WriteMissionResult(result, FaultyResult());
  telemetry::ServeStats stats{101, 102, 103, 104, 105, 106, 107};

  using telemetry::Encode;
  add("wire_hello", Kind::kWireFrame,
      EncodeFrame(SpecMsgType::kHello, Encode(telemetry::WireHello{3, "fixture-client"})));
  add("wire_hello_ack", Kind::kWireFrame,
      EncodeFrame(SpecMsgType::kHelloAck, Encode(telemetry::WireHelloAck{4})));
  add("wire_submit_batch", Kind::kWireFrame,
      EncodeFrame(SpecMsgType::kSubmitBatch,
                  Encode(telemetry::WireBatch{{{11, faulty}, {12, gold}}})));
  add("wire_progress", Kind::kWireFrame,
      EncodeFrame(SpecMsgType::kProgress,
                  Encode(telemetry::WireProgress{21, telemetry::RequestState::kRunning})));
  add("wire_result", Kind::kWireFrame,
      EncodeFrame(SpecMsgType::kResult,
                  Encode(telemetry::WireResult{31, telemetry::ResultSource::kStoreHit,
                                               result.str()})));
  add("wire_reject", Kind::kWireFrame,
      EncodeFrame(SpecMsgType::kReject,
                  Encode(telemetry::WireReject{41, telemetry::RejectReason::kBadSpec,
                                               "mission_index out of range"})));
  add("wire_stats", Kind::kWireFrame, EncodeFrame(SpecMsgType::kStats, std::string()));
  add("wire_stats_reply", Kind::kWireFrame,
      EncodeFrame(SpecMsgType::kStatsReply,
                  Encode(telemetry::WireStatsReply{stats, "{\"serve.requests\":51}"})));
  add("wire_shutdown", Kind::kWireFrame,
      EncodeFrame(SpecMsgType::kShutdown, std::string()));
  return out;
}

/// The payload of `frame` decoded by its message type and re-encoded into a
/// frame; nullopt when the payload decoder rejects it. Stats and Shutdown
/// carry no payload.
inline std::optional<std::string> ReencodeFrame(const telemetry::SpecFrame& frame) {
  using namespace telemetry;
  // Decodes the payload as `message` and re-encodes it.
  const auto reencode = [&](auto message) -> std::optional<std::string> {
    if (!Decode(frame.payload, message)) return std::nullopt;
    return EncodeFrame(frame.type, Encode(message));
  };
  switch (frame.type) {
    case SpecMsgType::kHello: return reencode(WireHello{});
    case SpecMsgType::kHelloAck: return reencode(WireHelloAck{});
    case SpecMsgType::kSubmitBatch: return reencode(WireBatch{});
    case SpecMsgType::kProgress: return reencode(WireProgress{});
    case SpecMsgType::kResult: return reencode(WireResult{});
    case SpecMsgType::kReject: return reencode(WireReject{});
    case SpecMsgType::kStatsReply: return reencode(WireStatsReply{});
    case SpecMsgType::kStats:
    case SpecMsgType::kShutdown:
      if (!frame.payload.empty()) return std::nullopt;
      return EncodeFrame(frame.type, std::string());
  }
  return std::nullopt;
}

/// Decodes `bytes` with the reader of `f.kind` and returns the decoded value
/// re-encoded; nullopt when the reader rejects the bytes or leaves some over.
inline std::optional<std::string> Reencode(const Fixture& f, std::string_view bytes) {
  std::ostringstream os(std::ios::binary);
  switch (f.kind) {
    case Kind::kStoredRun: {
      const auto run = core::ReadStoredRun(bytes, f.key);
      if (!run) return std::nullopt;
      core::WriteStoredRun(os, f.key, *run);
      return os.str();
    }
    case Kind::kFleetEntry: {
      const auto record = core::ReadFleetEntry(bytes, f.key);
      if (!record) return std::nullopt;
      telemetry::WriteFleetRecord(os, *record);
      return Le64(f.key) + os.str();
    }
    case Kind::kSnapshot: {
      const auto snap = telemetry::ReadSnapshot(bytes);
      if (!snap) return std::nullopt;
      telemetry::WriteSnapshot(os, *snap);
      return os.str();
    }
    case Kind::kBusLog: {
      // Frames are read until a read fails; the log is accepted only when
      // that read started exactly at the end of the input.
      std::istringstream is{std::string(bytes), std::ios::binary};
      bus::BusLogHeader header;
      if (!bus::ReadBusLogHeader(is, header)) return std::nullopt;
      bus::WriteBusLogHeader(os, header);
      bus::BusFrame frame;
      std::streamoff at = is.tellg();
      while (bus::ReadBusFrame(is, frame)) {
        bus::WriteBusFrame(os, frame);
        at = is.tellg();
      }
      if (at != static_cast<std::streamoff>(bytes.size())) return std::nullopt;
      return os.str();
    }
    case Kind::kFlightRecord: {
      const auto record = telemetry::ReadFlightRecord(bytes);
      if (!record) return std::nullopt;
      telemetry::WriteFlightRecord(os, *record);
      return os.str();
    }
    case Kind::kWireFrame: {
      telemetry::FrameReader reader;
      reader.Feed(bytes.data(), bytes.size());
      const auto frame = reader.Next();
      if (!frame || 5 + frame->payload.size() != bytes.size()) return std::nullopt;
      return ReencodeFrame(*frame);
    }
  }
  return std::nullopt;
}

}  // namespace uavres::codec_fixtures
