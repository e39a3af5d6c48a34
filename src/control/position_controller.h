// Outer-loop controller: position -> velocity -> acceleration -> attitude
// setpoint + collective thrust. Mirrors PX4's multicopter position control.
#pragma once

#include "control/pid.h"
#include "math/quat.h"
#include "math/vec3.h"

namespace uavres::control {

/// Position/velocity loop tuning (PX4-like defaults for a small quad).
struct PositionControlConfig {
  double pos_p_xy{0.95};
  double pos_p_z{1.0};
  // Velocity-loop authority mirrors PX4: horizontal acceleration is bounded
  // by the tilt limit (~g*tan(35deg) ~ 7 m/s^2); vertical acceleration is
  // bounded only by the thrust range (min thrust = near free-fall), which is
  // what lets severe accelerometer faults produce hard vertical excursions.
  PidConfig vel_xy{1.8, 0.4, 0.2, 2.0, 8.0, 0.02};  ///< out: accel [m/s^2]
  PidConfig vel_z{4.0, 2.0, 0.0, 4.0, 0.0, 0.02};   ///< no clamp: thrust range rules
  double max_vel_xy{12.0};       ///< hard ceiling [m/s]
  double max_vel_z_up{3.0};      ///< [m/s]
  double max_vel_z_down{1.5};    ///< [m/s]
  double max_tilt_rad{0.61};     ///< ~35 deg
  double hover_thrust{0.5};      ///< normalized thrust that balances gravity
  double thrust_min{0.08};
  double thrust_max{0.95};
};

/// Setpoint for the outer loop. Velocity feed-forward is optional.
struct PositionSetpoint {
  math::Vec3 pos;
  math::Vec3 vel_ff;
  double yaw{0.0};
  double cruise_speed{5.0};  ///< speed limit for this mission leg [m/s]
};

/// Codec field list (telemetry/binary_io.h), inside the .uvbs setpoint payload.
template <class V>
void Fields(V& v, PositionSetpoint& s) {
  v(s.pos, s.vel_ff, s.yaw, s.cruise_speed);
}

/// Output of the outer loop, consumed by the attitude controller.
struct AttitudeSetpoint {
  math::Quat att;
  double thrust{0.0};  ///< normalized collective [0,1]
};

/// Cascaded position + velocity controller.
class PositionController {
 public:
  explicit PositionController(const PositionControlConfig& cfg = {});

  const PositionControlConfig& config() const { return cfg_; }

  void Reset();

  /// Compute the attitude/thrust setpoint from the estimated state.
  AttitudeSetpoint Update(const PositionSetpoint& sp, const math::Vec3& pos_est,
                          const math::Vec3& vel_est, double dt);

  /// Last velocity setpoint (for telemetry/tests).
  const math::Vec3& velocity_setpoint() const { return vel_sp_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, PositionController& x) {
    v(x.vel_pid_, x.vel_sp_);
  }

 private:
  PositionControlConfig cfg_;
  PidVec3 vel_pid_;
  math::Vec3 vel_sp_;
};

/// Convert a desired world-frame specific-thrust vector (acceleration the
/// rotors must produce, NED) plus a yaw into an attitude + collective pair.
/// Exposed for unit testing.
AttitudeSetpoint ThrustVectorToAttitude(const math::Vec3& accel_sp_ned, double yaw,
                                        const PositionControlConfig& cfg);

}  // namespace uavres::control
