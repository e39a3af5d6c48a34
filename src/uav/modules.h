// FlightBus modules: the decomposed flight stack (DESIGN.md §13).
//
// Each module owns its domain objects and communicates with the others
// exclusively over FlightBus topics; the deterministic Schedule runs them in
// this fixed order every control step:
//
//   Imu(1) Gps(÷) Baro(÷) Mag(÷) Estimator Health Commander Control Physics
//   Battery
//
// The decomposition is bit-identical to the old monolithic `Uav::Step()`:
// every module forks its RNG stream from the same seed constant the monolith
// used, draws in the same order, and the topics carry exactly the one-step
// latencies the monolith had implicitly (sensors sample the previous step's
// physics, the estimator uses the health monitor's previous-step IMU
// selection, commander/control read the previous step's post-drain battery
// state).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bus/schedule.h"
#include "bus/topics.h"
#include "math/state_io.h"
#include "estimation/complementary_filter.h"
#include "estimation/detectors.h"
#include "estimation/ekf.h"
#include "nav/mission.h"
#include "telemetry/flight_log.h"
#include "uav/uav_config.h"

namespace uavres::uav {

/// Samples the redundant IMU set from the truth topic and publishes it.
/// Fault injection happens inside the publish (interceptor chain).
class ImuModule final : public bus::Module {
 public:
  ImuModule(const sensors::ImuNoiseConfig& noise, const sensors::ImuRanges& ranges,
            std::uint64_t seed, bus::FlightBus* bus);
  void Step(const bus::StepInfo& info) override;

  /// Checkpoint seam (DESIGN.md §16): serialize / overwrite the module's
  /// run-mutable state (math/state_io.h byte streams).
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  sensors::RedundantImu imu_;
  bus::FlightBus* bus_;
};

/// GNSS receiver; scheduled at the GPS divider.
class GpsModule final : public bus::Module {
 public:
  GpsModule(const sensors::GpsConfig& cfg, std::uint64_t seed, bus::FlightBus* bus);
  void Step(const bus::StepInfo& info) override;

  /// Checkpoint seam (DESIGN.md §16): serialize / overwrite the module's
  /// run-mutable state (math/state_io.h byte streams).
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  sensors::Gps gps_;
  bus::FlightBus* bus_;
};

/// Barometer; scheduled at the baro divider. The sensor integrates drift
/// over its own period, so the module owns its divider.
class BaroModule final : public bus::Module {
 public:
  BaroModule(const sensors::BaroConfig& cfg, int divider, std::uint64_t seed,
             bus::FlightBus* bus);
  void Step(const bus::StepInfo& info) override;

  /// Checkpoint seam (DESIGN.md §16): serialize / overwrite the module's
  /// run-mutable state (math/state_io.h byte streams).
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  sensors::Barometer baro_;
  int divider_;
  bus::FlightBus* bus_;
};

/// Magnetometer; scheduled at the mag divider.
class MagModule final : public bus::Module {
 public:
  MagModule(const sensors::MagConfig& cfg, std::uint64_t seed, bus::FlightBus* bus);
  void Step(const bus::StepInfo& info) override;

  /// Checkpoint seam (DESIGN.md §16): serialize / overwrite the module's
  /// run-mutable state (math/state_io.h byte streams).
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  sensors::Magnetometer mag_;
  bus::FlightBus* bus_;
};

/// The EKF: predicts from the selected IMU unit every step and fuses each
/// aiding topic whose generation advanced (generation checks replace the
/// monolith's divider checks — same instants, by construction).
///
/// With a detector attached (AttachFailover), the module also runs a shadow
/// ComplementaryFilter on the same selected samples and, while the detector
/// holds kConfirmed, publishes the fallback attitude mix instead of the raw
/// EKF state. The detector's state machine advances inside the
/// estimator-status publish (DetectorStage), i.e. *after* this module reads
/// it, so the failover verdict carries the same one-step latency as every
/// other bus signal — online and offline replay agree exactly.
class EstimatorModule final : public bus::Module {
 public:
  EstimatorModule(const estimation::EkfConfig& cfg, bus::FlightBus* bus);
  void Init(const math::Vec3& pos, double yaw_rad) {
    ekf_.InitAtRest(pos, yaw_rad);
    comp_.InitAtRest(yaw_rad);
  }
  void Step(const bus::StepInfo& info) override;

  /// Enable failover: run the shadow filter and honor `detector` verdicts.
  void AttachFailover(const estimation::ImuFaultDetector* detector) { detector_ = detector; }

  const estimation::Ekf& ekf() const { return ekf_; }

  /// Checkpoint seam (DESIGN.md §16): serialize / overwrite the module's
  /// run-mutable state (math/state_io.h byte streams).
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  estimation::Ekf ekf_;
  estimation::ComplementaryFilter comp_;
  const estimation::ImuFaultDetector* detector_{nullptr};  // not owned
  bus::FlightBus* bus_;
  std::uint64_t gps_gen_{0};
  std::uint64_t baro_gen_{0};
  std::uint64_t mag_gen_{0};
  bool mag_seen_{false};
  double last_mag_t_{0.0};
};

/// Health monitor: consumes the selected IMU unit (its own previous-step
/// selection), the estimator status and the tilt estimate; publishes the
/// failsafe verdict and the next step's IMU selection.
class HealthModule final : public bus::Module {
 public:
  HealthModule(const nav::HealthMonitorConfig& cfg, bus::FlightBus* bus,
               telemetry::FlightLog* log);
  void Step(const bus::StepInfo& info) override;

  const nav::HealthMonitor& monitor() const { return monitor_; }

  /// Checkpoint seam (DESIGN.md §16): serialize / overwrite the module's
  /// run-mutable state (math/state_io.h byte streams).
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  nav::HealthMonitor monitor_;
  bus::FlightBus* bus_;
  telemetry::FlightLog* log_;
  bool recovered_logged_{false};
};

/// Mode logic: merges the health failsafe with the low-battery failsafe and
/// publishes the outer-loop setpoint plus the flight mode.
class CommanderModule final : public bus::Module {
 public:
  CommanderModule(const nav::MissionPlan& plan, const nav::CommanderConfig& cfg,
                  bus::FlightBus* bus, telemetry::FlightLog* log);
  void Step(const bus::StepInfo& info) override;

  const nav::Commander& commander() const { return commander_; }

  /// Checkpoint seam (DESIGN.md §16): serialize / overwrite the module's
  /// run-mutable state (math/state_io.h byte streams).
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  nav::Commander commander_;
  bus::FlightBus* bus_;
  telemetry::FlightLog* log_;
  bool battery_warned_{false};
};

/// Position -> attitude -> rate cascade plus the mixer. Publishes rotor
/// commands (zeroed when landed or the battery is empty).
class ControlCascadeModule final : public bus::Module {
 public:
  ControlCascadeModule(const control::PositionControlConfig& pos_cfg,
                       const control::AttitudeControlConfig& att_cfg,
                       const control::RateControlConfig& rate_cfg,
                       const control::MixerConfig& mixer_cfg, bus::FlightBus* bus);
  void Step(const bus::StepInfo& info) override;

  /// Checkpoint seam (DESIGN.md §16): serialize / overwrite the module's
  /// run-mutable state (math/state_io.h byte streams).
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  control::PositionController pos_ctrl_;
  control::AttitudeController att_ctrl_;
  control::RateController rate_ctrl_;
  control::Mixer mixer_;
  bus::FlightBus* bus_;
};

/// Airframe, wind, actuator faults and ground-truth crash detection.
/// Publishes the truth topic the sensors sample on the next step.
class PhysicsModule final : public bus::Module {
 public:
  PhysicsModule(const UavConfig& cfg, std::uint64_t seed, bus::FlightBus* bus,
                telemetry::FlightLog* log);

  /// Place the vehicle at its initial pose and publish the initial truth.
  void Reset(const math::Vec3& home, double yaw_rad, double t);

  void Step(const bus::StepInfo& info) override;

  const sim::Quadrotor& quad() const { return *quad_; }
  const nav::CrashDetector& crash_detector() const { return crash_; }
  bool airborne_seen() const { return airborne_seen_; }

  /// Checkpoint seam (DESIGN.md §16): serialize / overwrite the module's
  /// run-mutable state (math/state_io.h byte streams).
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  void PublishTruth(double t);

  sim::Environment env_;
  std::unique_ptr<sim::Quadrotor> quad_;
  nav::CrashDetector crash_;
  int motor_fault_index_;
  double motor_fault_time_s_;
  bus::FlightBus* bus_;
  telemetry::FlightLog* log_;
  math::Vec3 home_;
  bool airborne_seen_{false};
};

/// Energy store: drains per the flight mode and published induced power,
/// then publishes the post-drain state commander/control read next step.
class BatteryModule final : public bus::Module {
 public:
  BatteryModule(const sim::BatteryParams& params, bus::FlightBus* bus);

  /// Publish the current (pre-flight) state; the constructor's step-0 seed.
  void PublishState(double t);

  void Step(const bus::StepInfo& info) override;

  const sim::Battery& battery() const { return battery_; }

  /// Checkpoint seam (DESIGN.md §16): serialize / overwrite the module's
  /// run-mutable state (math/state_io.h byte streams).
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  sim::Battery battery_;
  bus::FlightBus* bus_;
};

/// Bus-boundary fault injection: wraps the campaign's injectors as topic
/// interceptors. The IMU chain applies the primary fault first, then every
/// extra window, in registration order — matching the monolith's loop — and
/// each injector logs its own window opening exactly once.
class FaultInterceptorStage {
 public:
  FaultInterceptorStage(const UavConfig& cfg, const std::optional<core::FaultSpec>& fault,
                        std::uint64_t seed, bus::FlightBus* bus, telemetry::FlightLog* log);

  /// True while any IMU fault window is open (the façade's fault_active()).
  bool AnyImuActiveAt(double t) const;

  /// Checkpoint seam: injector RNG streams, frozen samples and the per-window
  /// logged flags — never the fault specs themselves, so a fork restored into
  /// a vehicle built with a *modified* spec (bisection probes) keeps the
  /// donor's streams. Restore fails on a structural mismatch (different
  /// window count or optional-injector wiring).
  void SaveState(math::StateWriter& w);
  bool RestoreState(math::StateReader& r);

 private:
  struct ImuSlot {
    core::FaultInjector injector;
    telemetry::FlightLog* log;
    bool logged{false};
  };

  static void ApplyImu(void* ctx, bus::ImuSignal& sig, double t);
  static void ApplyGps(void* ctx, sensors::GpsSample& sample, double t);
  static void ApplyBaro(void* ctx, sensors::BaroSample& sample, double t);
  static void ApplyMag(void* ctx, sensors::MagSample& sample, double t);

  std::vector<ImuSlot> imu_slots_;
  std::optional<core::GpsFaultInjector> gps_injector_;
  std::optional<core::BaroFaultInjector> baro_injector_;
  std::optional<core::MagFaultInjector> mag_injector_;
};

/// Online IMU-fault detection at the bus boundary (DESIGN.md §15): wraps an
/// estimation::ImuFaultDetector as two publish-time interceptors. The imu
/// interceptor — registered after the fault injectors, so it observes what
/// the estimator observes — feeds the selected unit's rate-domain checks;
/// the estimator-status interceptor feeds the innovation CUSUM, advances the
/// decision state machine (once per step, at end of estimator step) and
/// publishes the verdict to the `detector` topic from inside the status
/// publish (re-entrant publish on a *different* topic, which the bus
/// permits). When the config is disabled nothing registers and the detector
/// topic stays at generation 0: a detector-off vehicle is byte-identical to
/// a pre-detector build.
class DetectorStage {
 public:
  DetectorStage(const estimation::DetectorConfig& cfg, double control_rate_hz,
                bus::FlightBus* bus, telemetry::FlightLog* log);

  bool enabled() const { return enabled_; }
  const estimation::ImuFaultDetector& detector() const { return detector_; }

  /// Checkpoint seam: detector state machine + the confirm-log latch.
  void SaveState(math::StateWriter& w);
  void RestoreState(math::StateReader& r);

 private:
  static void ObserveImu(void* ctx, bus::ImuSignal& sig, double t);
  static void ObserveStatus(void* ctx, estimation::EkfStatus& status, double t);

  estimation::ImuFaultDetector detector_;
  bus::FlightBus* bus_;
  telemetry::FlightLog* log_;
  double dt_;
  bool enabled_;
  bool confirm_logged_{false};
};

/// Rounded rate divider between the control loop and a sensor rate.
int RateDivider(double control_rate_hz, double sensor_rate_hz);

/// Position-control config with the airframe's actual hover thrust fraction
/// filled in (the collective mapping must know it).
control::PositionControlConfig PositionControlWithHoverThrust(const UavConfig& cfg);

/// Initial heading: along the first mission leg when one exists (shared by
/// the vehicle assembly and the offline estimator replay, which must
/// initialize exactly alike).
double InitialMissionYaw(const nav::MissionPlan& plan);

}  // namespace uavres::uav
