#include "bus/record.h"

#include <string_view>

#include "telemetry/binary_io.h"

namespace uavres::bus {

using telemetry::Expect;
using telemetry::InRange;

/// The fault block is present only when has_fault is set; a header read
/// without it leaves the fault fields at their zero defaults.
template <class V>
void Fields(V& v, BusLogHeader& h) {
  v(Expect{telemetry::Magic("UVBS")}, InRange{h.version, kBusLogVersion, kBusLogVersion},
    h.mission_index, h.seed_base, h.control_rate_hz, h.has_fault);
  if (h.has_fault) v(h.fault_type, h.fault_target, h.fault_start_s, h.fault_duration_s);
  v(h.recovery);
}

/// Topic id, stamp, then the fixed payload of that topic.
template <class V>
void Fields(V& v, BusFrame& f) {
  v(InRange{f.id, TopicId::kImu, TopicId::kDetector}, f.t);
  switch (f.id) {
    case TopicId::kImu:
      for (auto& u : f.imu.units) v(u.t, u.accel_mps2, u.gyro_rads);
      break;
    case TopicId::kGps: v(f.gps.t, f.gps.pos_ned_m, f.gps.vel_ned_mps, f.gps.valid); break;
    case TopicId::kBaro: v(f.baro.t, f.baro.alt_m); break;
    case TopicId::kMag: v(f.mag.t, f.mag.field_body); break;
    case TopicId::kEstimate: {
      auto& s = f.estimate;
      v(s.att, s.vel, s.pos, s.gyro_bias, s.accel_bias, s.body_rate);
      break;
    }
    case TopicId::kEstimatorStatus: {
      auto& s = f.estimator_status;
      v(s.gps_pos_test_ratio, s.gps_vel_test_ratio, s.baro_test_ratio, s.mag_test_ratio,
        s.time_since_gps_accept_s, s.gps_reset_count, s.gps_large_reset_count,
        s.attitude_reset_count, s.numerically_healthy, s.cov_asymmetry_events,
        s.cov_negative_variance_events, s.cov_trace_peak);
      break;
    }
    case TopicId::kImuSelect: v(f.imu_select.unit); break;
    case TopicId::kHealth: v(f.health.failsafe, f.health.reason); break;
    case TopicId::kSetpoint: {
      auto& s = f.setpoint;
      v(s.sp.pos, s.sp.vel_ff, s.sp.yaw, s.sp.cruise_speed, s.flight_mode, s.landed);
      break;
    }
    case TopicId::kActuator: v(f.actuator.cmds, f.actuator.collective); break;
    case TopicId::kTruth: {
      auto& s = f.truth.state;
      v(s.pos, s.vel, s.att, s.omega, s.accel_world, f.truth.on_ground,
        f.truth.induced_power_w);
      break;
    }
    case TopicId::kBattery: v(f.battery.critical, f.battery.empty, f.battery.soc); break;
    case TopicId::kDetector: {
      auto& s = f.detector;
      v(s.state, s.failover, s.cusum, s.plausibility, s.first_confirm_time_s);
      break;
    }
  }
}

bool WriteBusLogHeader(std::ostream& os, const BusLogHeader& header) {
  return static_cast<bool>(os << telemetry::Encode(header));
}

bool ReadBusLogHeader(std::istream& is, BusLogHeader& header) {
  // The header's size depends on has_fault: try the short form, then the
  // long one, reading only the bytes each needs.
  std::string bytes;
  for (const bool has_fault : {false, true}) {
    BusLogHeader h;
    h.has_fault = has_fault;
    const std::size_t have = bytes.size();
    bytes.resize(telemetry::Encode(h).size());
    if (!is.read(bytes.data() + have, static_cast<std::streamsize>(bytes.size() - have))) {
      return false;
    }
    if (telemetry::Decode(bytes, h)) {
      header = h;
      return true;
    }
  }
  return false;
}

void WriteBusFrame(std::ostream& os, const BusFrame& frame) {
  os << telemetry::Encode(frame);
}

bool ReadBusFrame(std::istream& is, BusFrame& frame) {
  // Frames are read one at a time (a log holds millions); each topic's
  // frame has a fixed size, measured once from a default frame.
  static const std::array<std::size_t, kNumTopics> kFrameBytes = [] {
    std::array<std::size_t, kNumTopics> sizes{};
    for (int id = 0; id < kNumTopics; ++id) {
      BusFrame f;
      f.id = static_cast<TopicId>(id);
      sizes[static_cast<std::size_t>(id)] = telemetry::Encode(f).size();
    }
    return sizes;
  }();
  char bytes[256] = {};
  if (!is.get(bytes[0])) return false;
  const auto id = static_cast<std::uint8_t>(bytes[0]);
  if (id >= kNumTopics || kFrameBytes[id] > sizeof bytes) return false;
  if (!is.read(bytes + 1, static_cast<std::streamsize>(kFrameBytes[id] - 1))) return false;
  return telemetry::Decode(std::string_view(bytes, kFrameBytes[id]), frame);
}

void BusTap::Capture() {
  if (bus_ == nullptr || os_ == nullptr) return;
  BusFrame frame;
  // Canonical TopicId order; each topic publishes at most once per step, so
  // a generation diff of exactly one frame per changed topic is guaranteed.
  const auto capture = [&](auto& topic, TopicId id, auto assign) {
    const auto idx = static_cast<std::size_t>(id);
    if (topic.generation() == seen_[idx]) return;
    seen_[idx] = topic.generation();
    frame.id = id;
    frame.t = topic.stamp();
    assign();
    buffer_.clear();
    telemetry::Encoder encoder(&buffer_);
    encoder(frame);
    os_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    ++frames_written_;
  };
  capture(bus_->imu, TopicId::kImu, [&] { frame.imu = bus_->imu.Latest(); });
  capture(bus_->gps, TopicId::kGps, [&] { frame.gps = bus_->gps.Latest(); });
  capture(bus_->baro, TopicId::kBaro, [&] { frame.baro = bus_->baro.Latest(); });
  capture(bus_->mag, TopicId::kMag, [&] { frame.mag = bus_->mag.Latest(); });
  capture(bus_->estimate, TopicId::kEstimate, [&] { frame.estimate = bus_->estimate.Latest(); });
  capture(bus_->estimator_status, TopicId::kEstimatorStatus,
          [&] { frame.estimator_status = bus_->estimator_status.Latest(); });
  capture(bus_->imu_select, TopicId::kImuSelect,
          [&] { frame.imu_select = bus_->imu_select.Latest(); });
  capture(bus_->health, TopicId::kHealth, [&] { frame.health = bus_->health.Latest(); });
  capture(bus_->setpoint, TopicId::kSetpoint, [&] { frame.setpoint = bus_->setpoint.Latest(); });
  capture(bus_->actuator, TopicId::kActuator, [&] { frame.actuator = bus_->actuator.Latest(); });
  capture(bus_->truth, TopicId::kTruth, [&] { frame.truth = bus_->truth.Latest(); });
  capture(bus_->battery, TopicId::kBattery, [&] { frame.battery = bus_->battery.Latest(); });
  capture(bus_->detector, TopicId::kDetector, [&] { frame.detector = bus_->detector.Latest(); });
}

}  // namespace uavres::bus
