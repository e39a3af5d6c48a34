// Full vehicle assembly: the FlightBus modules behind a thin façade.
//
// One Uav owns a FlightBus (bus/topics.h), the ten flight-stack modules
// (uav/modules.h) and the deterministic multi-rate schedule that advances
// them in lockstep at the control rate (250 Hz): sensing (with fault
// injection intercepted at the topic boundary), estimation, health
// monitoring, mode logic, the control cascade, physics and energy. The
// public accessors are unchanged from the pre-bus monolith so call sites
// outside src/uav need no churn.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>

#include "bus/record.h"
#include "bus/schedule.h"
#include "bus/topics.h"
#include "nav/mission.h"
#include "sim/snapshot.h"
#include "telemetry/binary_io.h"
#include "telemetry/flight_log.h"
#include "uav/modules.h"
#include "uav/uav_config.h"

namespace uavres::uav {

/// Section ids in a sim::Snapshot produced by Uav::SaveState. One section per
/// stateful subsystem, in schedule order, so a structural mismatch between
/// the snapshot and the reconstructed vehicle surfaces as a missing or
/// short-read section rather than silent corruption.
enum class SnapshotSectionId : std::uint32_t {
  kVehicleCore = 1,  ///< time, step count, flight log
  kBus = 2,          ///< every FlightBus topic (value, stamp, generation)
  kImu = 3,
  kGps = 4,
  kBaro = 5,
  kMag = 6,
  kEstimator = 7,
  kHealth = 8,
  kCommander = 9,
  kControl = 10,
  kPhysics = 11,
  kBattery = 12,
  kFaults = 13,    ///< injector RNG/freeze state (never the specs)
  kDetector = 14,  ///< present only when the online detector is enabled
  // 15..31 reserved for future vehicle sections.
  kHarness = 32,     ///< StepBookkeeper (simulation_runner.cpp), not written here
  kTrajectory = 33,  ///< the harness's trajectory so far, when the run records one
};

/// Appends section `id` to `snap`: `fields` (a type with a codec field list,
/// or a callable list) encoded on the telemetry/binary_io.h codec.
template <class T>
void SaveSection(sim::Snapshot& snap, SnapshotSectionId id, const T& fields) {
  snap.Add(static_cast<std::uint32_t>(id)).bytes = telemetry::Encode(fields);
}

/// Decodes section `id` of `snap` into `fields`; false when the section is
/// missing, corrupt, or not consumed to its last byte.
template <class T>
bool RestoreSection(const sim::Snapshot& snap, SnapshotSectionId id, T&& fields) {
  const sim::SnapshotSection* s = snap.Find(static_cast<std::uint32_t>(id));
  return s != nullptr && telemetry::Decode(s->bytes, fields);
}

/// One simulated vehicle flying one mission, optionally under fault injection.
class Uav {
 public:
  /// `first_step` is the step count the vehicle's clock starts at. A
  /// standalone flight starts at 0; a flight launched into a running fleet
  /// joins at the fleet's step count, so its multi-rate sensors keep the
  /// fleet's schedule phase.
  Uav(const UavConfig& cfg, const nav::MissionPlan& plan,
      std::optional<core::FaultSpec> fault, std::uint64_t seed,
      std::int64_t first_step = 0);

  /// Advance one control period (one schedule pass over all due modules).
  void Step();

  double time() const { return time_; }
  double dt() const { return dt_; }
  /// Control steps completed so far (snapshot capture points are expressed in
  /// this exact integer domain, never in float time).
  std::int64_t step_count() const { return step_count_; }

  /// Serialize the full run-mutable vehicle state into `snap` (one section
  /// per subsystem; see SnapshotSectionId). Configuration is not serialized:
  /// restore targets a freshly constructed Uav built from the same config,
  /// plan and seed. The caller fills the snapshot's meta fields.
  void SaveState(sim::Snapshot& snap);

  /// Restore from a snapshot taken by SaveState on a structurally identical
  /// vehicle. Returns false (vehicle state undefined — discard it) on any
  /// missing, truncated, over-long or corrupt section (a bool byte above 1,
  /// an enum out of range) or a detector-presence mismatch. Without
  /// `restore_faults` the kFaults section is skipped and the fault stage
  /// stays as constructed: a fork of a donor that had no fault, valid while
  /// FaultsIdleThrough the capture time.
  bool RestoreState(const sim::Snapshot& snap, bool restore_faults = true);

  /// True when no fault injector's window opens at or before `t`, so the
  /// stage is still in its constructed state after flying to `t`.
  bool FaultsIdleThrough(double t) const { return faults_.IdleThrough(t); }

  const sim::Quadrotor& quad() const { return physics_.quad(); }
  const estimation::Ekf& ekf() const { return estimator_.ekf(); }
  const nav::Commander& commander() const { return commander_mod_.commander(); }
  const nav::HealthMonitor& health() const { return health_mod_.monitor(); }
  const nav::CrashDetector& crash_detector() const { return physics_.crash_detector(); }
  const telemetry::FlightLog& log() const { return log_; }
  const UavConfig& config() const { return cfg_; }
  const sim::Battery& battery() const { return battery_mod_.battery(); }

  bool fault_active() const { return faults_.AnyImuActiveAt(time_); }
  bool airborne_seen() const { return physics_.airborne_seen(); }

  /// The online IMU-fault detector (meaningful only with cfg.detector.enabled).
  const estimation::ImuFaultDetector& detector() const { return detectors_.detector(); }
  bool detector_enabled() const { return detectors_.enabled(); }

  /// Last normalized collective thrust command (telemetry/tests).
  double last_thrust_cmd() const { return bus_.actuator.Latest().collective; }

  /// The vehicle's topic table (tests, observers). Read-only: publishing
  /// belongs to the modules.
  const bus::FlightBus& flight_bus() const { return bus_; }

  /// Mirror all topic traffic into `os` from the next Step() on (the header
  /// must already be written by the caller; see uav/bus_replay.h). Recording
  /// never perturbs the flight — the tap snapshots after each step.
  void StartRecording(std::ostream* os) { tap_.emplace(&bus_, os); }

  /// Frames the recording tap has written so far (0 when not recording).
  std::uint64_t recorded_frames() const { return tap_ ? tap_->frames_written() : 0; }

 private:
  /// The one section list SaveState and RestoreState walk: `section(id,
  /// fields)` per stateful subsystem, in schedule order, stopping at the
  /// first false.
  template <class Fn>
  bool Sections(Fn&& section);

  UavConfig cfg_;
  double dt_;
  double time_;
  std::int64_t step_count_;
  int gps_divider_;
  int baro_divider_;
  int mag_divider_;

  bus::FlightBus bus_;
  telemetry::FlightLog log_;

  ImuModule imu_mod_;
  GpsModule gps_mod_;
  BaroModule baro_mod_;
  MagModule mag_mod_;
  EstimatorModule estimator_;
  HealthModule health_mod_;
  CommanderModule commander_mod_;
  ControlCascadeModule control_mod_;
  PhysicsModule physics_;
  BatteryModule battery_mod_;
  FaultInterceptorStage faults_;
  // After faults_: the detector's imu interceptor must register after the
  // injectors so it observes post-fault samples.
  DetectorStage detectors_;

  bus::Schedule schedule_;
  std::optional<bus::BusTap> tap_;
};

}  // namespace uavres::uav
