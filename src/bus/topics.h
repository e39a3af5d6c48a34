// The FlightBus: fixed topic table of the modular flight stack.
//
// Every signal that crosses a module boundary is a topic here; modules
// (src/uav/modules.h) own the domain objects and talk to each other only
// through these topics. The table is fixed at compile time — adding a signal
// means adding a member and a TopicId — which keeps the hot path free of any
// lookup: a module reads `bus.gps.Latest()` as a direct member access.
//
// Payload types reuse the domain structs where one exists (sensor samples,
// the EKF's NavState/EkfStatus, the position setpoint); bus-local structs
// cover signals that had no first-class type inside the old monolithic
// `Uav::Step()`. Every payload type carries its codec field list
// (telemetry/binary_io.h), which both the .uvbs frames and the snapshot's bus
// section use. The bus layer sits above sensors/estimation/control and below
// nav/core/uav — see tools/check_layering.py for the enforced DAG.
#pragma once

#include <array>
#include <cstdint>

#include "bus/topic.h"
#include "control/position_controller.h"
#include "estimation/ekf.h"
#include "sensors/samples.h"
#include "sim/rigid_body.h"
#include "telemetry/binary_io.h"

namespace uavres::bus {

/// Ground-truth vehicle state, published by the physics module at the end of
/// each step. Sensor modules sample from it at the *start* of the next step,
/// which reproduces the classic sense -> act -> integrate loop ordering.
struct TruthSignal {
  sim::RigidBodyState state;
  bool on_ground{true};
  double induced_power_w{0.0};  ///< rotor aerodynamic power (battery model)
};

template <class V>
void Fields(V& v, TruthSignal& s) {
  v(s.state, s.on_ground, s.induced_power_w);
}

/// The redundant IMU set, one sample per physical unit. Fault interceptors
/// corrupt all units at once (the paper's fault model).
struct ImuSignal {
  static constexpr int kUnits = 3;
  std::array<sensors::ImuSample, kUnits> units{};
};

template <class V>
void Fields(V& v, ImuSignal& s) {
  v(s.units);
}

/// Which redundant IMU unit downstream consumers should trust; published by
/// the health monitor (isolation cycling), consumed by the estimator on the
/// *next* step — matching the one-step selection latency of the monolith.
struct ImuSelectSignal {
  int unit{0};
};

/// The unit indexes ImuSignal::units, so the reader refuses any other value.
template <class V>
void Fields(V& v, ImuSelectSignal& s) {
  v(telemetry::InRange{s.unit, 0, ImuSignal::kUnits - 1});
}

/// Health monitor verdict.
struct HealthSignal {
  bool failsafe{false};
  std::uint8_t reason{0};  ///< nav::FailsafeReason (raw: bus sits below nav)
};

template <class V>
void Fields(V& v, HealthSignal& s) {
  v(s.failsafe, s.reason);
}

/// Battery state of charge, published post-drain each step.
struct BatterySignal {
  bool critical{false};
  bool empty{false};
  double soc{1.0};
};

template <class V>
void Fields(V& v, BatterySignal& s) {
  v(s.critical, s.empty, s.soc);
}

/// Commander output: the outer-loop setpoint plus the flight mode the
/// control cascade and battery model need.
struct SetpointSignal {
  control::PositionSetpoint sp;
  std::uint8_t flight_mode{0};  ///< nav::FlightMode (raw: bus sits below nav)
  bool landed{false};
};

template <class V>
void Fields(V& v, SetpointSignal& s) {
  v(s.sp, s.flight_mode, s.landed);
}

/// Mixed rotor commands plus the collective thrust that produced them.
struct ActuatorSignal {
  std::array<double, 4> cmds{};
  double collective{0.0};
};

template <class V>
void Fields(V& v, ActuatorSignal& s) {
  v(s.cmds, s.collective);
}

/// IMU-fault detector verdict (estimation/detectors.h), published by the
/// detector stage from inside the estimator-status publish. Only published
/// when the detector is enabled: a disabled detector leaves this topic at
/// generation 0, which is what keeps detector-off runs byte-identical.
struct DetectorSignal {
  std::uint8_t state{0};  ///< estimation::DetectorState (raw for serialization)
  bool failover{false};   ///< attitude estimation is on the fallback filter
  double cusum{0.0};
  double plausibility{0.0};
  double first_confirm_time_s{-1.0};
};

template <class V>
void Fields(V& v, DetectorSignal& s) {
  v(s.state, s.failover, s.cusum, s.plausibility, s.first_confirm_time_s);
}

/// Stable topic identifiers for the record/replay stream (record.h). The
/// order is also the canonical intra-step serialization order and mirrors
/// the module schedule: sensors, estimator, health, commander, control,
/// physics, battery.
enum class TopicId : std::uint8_t {
  kImu = 0,
  kGps = 1,
  kBaro = 2,
  kMag = 3,
  kEstimate = 4,
  kEstimatorStatus = 5,
  kImuSelect = 6,
  kHealth = 7,
  kSetpoint = 8,
  kActuator = 9,
  kTruth = 10,
  kBattery = 11,
  kDetector = 12,
};
inline constexpr int kNumTopics = 13;

/// The complete topic table of one vehicle. One instance per Uav; modules
/// hold a pointer to it and publish/read directly.
struct FlightBus {
  Topic<ImuSignal> imu;
  Topic<sensors::GpsSample> gps;
  Topic<sensors::BaroSample> baro;
  Topic<sensors::MagSample> mag;
  Topic<estimation::NavState> estimate;
  Topic<estimation::EkfStatus> estimator_status;
  Topic<ImuSelectSignal> imu_select;
  Topic<HealthSignal> health;
  Topic<SetpointSignal> setpoint;
  Topic<ActuatorSignal> actuator;
  Topic<TruthSignal> truth;
  Topic<BatterySignal> battery;
  Topic<DetectorSignal> detector;

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): every
  /// topic's latest value, stamp and generation, in TopicId order.
  /// Interceptor registrations are wiring, not state — a restored vehicle
  /// re-registers its own.
  template <class V>
  friend void Fields(V& v, FlightBus& x) {
    v(x.imu, x.gps, x.baro, x.mag, x.estimate, x.estimator_status, x.imu_select, x.health,
      x.setpoint, x.actuator, x.truth, x.battery, x.detector);
  }
};

}  // namespace uavres::bus
