// Bus traffic recording — the ekf2-replay analogue (DESIGN.md §13.4).
//
// `BusTap` snapshots a FlightBus after every control step: any topic whose
// generation advanced since the last capture is serialized as one frame.
// Because the scheduler publishes at most once per topic per step and the
// tap runs after all modules, the frame stream reproduces the intra-step
// publication order exactly (TopicId order == module schedule order), which
// is what lets an offline estimator re-run consume the stream sequentially
// and reproduce the online EKF bit-for-bit (src/uav/bus_replay.h).
//
// The header (magic "UVBS", provenance, optional fault block) and the frames
// (u8 topic id, f64 stamp, fixed per-topic payload) are declared once, as
// field lists in record.cpp on the telemetry/binary_io.h codec; each payload
// is its type's own list (topics.h), shared with the snapshot's bus section.
//
// Version history: v1 had no recovery flag and no kDetector topic; v2 adds
// both. Readers reject other versions outright — logs are regenerable test
// artifacts, not archival data.
//
// Readers validate framing and return false at the first inconsistency, so
// truncated or corrupt logs surface as "no more frames" rather than garbage.
#pragma once

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "bus/topics.h"

namespace uavres::bus {

inline constexpr std::uint32_t kBusLogVersion = 2;

/// Provenance header of one bus log. Fault identity is stored as raw enum
/// bytes (the bus layer sits below core's fault model; the uav layer
/// converts).
struct BusLogHeader {
  std::uint32_t version{kBusLogVersion};
  std::int32_t mission_index{0};
  std::uint64_t seed_base{0};
  double control_rate_hz{250.0};
  bool has_fault{false};
  std::uint8_t fault_type{0};
  std::uint8_t fault_target{0};
  double fault_start_s{0.0};
  double fault_duration_s{0.0};
  /// The run was recorded with the IMU-fault detector + failover enabled;
  /// replay must then run the offline detector and verify its decisions
  /// against the recorded kDetector frames.
  bool recovery{false};
};

bool WriteBusLogHeader(std::ostream& os, const BusLogHeader& header);
bool ReadBusLogHeader(std::istream& is, BusLogHeader& header);

/// One deserialized frame. `id` selects which payload member is valid.
struct BusFrame {
  TopicId id{TopicId::kImu};
  double t{0.0};

  ImuSignal imu;
  sensors::GpsSample gps;
  sensors::BaroSample baro;
  sensors::MagSample mag;
  estimation::NavState estimate;
  estimation::EkfStatus estimator_status;
  ImuSelectSignal imu_select;
  HealthSignal health;
  SetpointSignal setpoint;
  ActuatorSignal actuator;
  TruthSignal truth;
  BatterySignal battery;
  DetectorSignal detector;
};

/// Serialize one frame (topic id + stamp + payload selected by `id`).
void WriteBusFrame(std::ostream& os, const BusFrame& frame);

/// Read the next frame; false on EOF or any framing failure.
bool ReadBusFrame(std::istream& is, BusFrame& frame);

/// Generation-diffing recorder. Attach to a stepping vehicle
/// (Uav::StartRecording)
/// and it writes every newly published topic value after each step.
/// Recording is strictly additive: the bus itself never knows it is being
/// observed, so a recorded flight is bit-identical to an unrecorded one.
class BusTap {
 public:
  BusTap(const FlightBus* bus, std::ostream* os) : bus_(bus), os_(os) {}

  /// Serialize every topic whose generation advanced since the last call
  /// (or since construction). Call once per control step, after the step.
  void Capture();

  std::uint64_t frames_written() const { return frames_written_; }

 private:
  const FlightBus* bus_;  // not owned
  std::ostream* os_;      // not owned
  std::array<std::uint64_t, kNumTopics> seen_{};
  std::uint64_t frames_written_{0};
  std::string buffer_;  ///< one frame's bytes, reused across captures
};

}  // namespace uavres::bus
