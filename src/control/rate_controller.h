// Inner-loop body-rate PID controller.
//
// IMPORTANT for the fault study: like PX4, this loop consumes the gyro
// measurement directly (via the estimator's bias-corrected pass-through),
// so gyro faults destabilize the vehicle within a few control periods —
// the mechanism behind the paper's "Gyrometer criticality" finding.
#pragma once

#include "control/pid.h"
#include "math/vec3.h"

namespace uavres::control {

/// Rate loop tuning. Outputs are desired angular accelerations [rad/s^2].
struct RateControlConfig {
  PidConfig roll{22.0, 8.0, 0.6, 20.0, 120.0, 0.008};
  PidConfig pitch{22.0, 8.0, 0.6, 20.0, 120.0, 0.008};
  PidConfig yaw{10.0, 4.0, 0.0, 10.0, 40.0, 0.008};
};

/// PID on body rates -> desired angular acceleration.
class RateController {
 public:
  explicit RateController(const RateControlConfig& cfg = {})
      : cfg_(cfg), roll_(cfg.roll), pitch_(cfg.pitch), yaw_(cfg.yaw) {}

  const RateControlConfig& config() const { return cfg_; }

  void Reset() {
    roll_.Reset();
    pitch_.Reset();
    yaw_.Reset();
  }

  /// Angular acceleration demand from rate setpoint and measured rate.
  math::Vec3 Update(const math::Vec3& rate_sp, const math::Vec3& rate_meas, double dt) {
    return {roll_.Update(rate_sp.x - rate_meas.x, dt),
            pitch_.Update(rate_sp.y - rate_meas.y, dt),
            yaw_.Update(rate_sp.z - rate_meas.z, dt)};
  }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, RateController& x) {
    v(x.roll_, x.pitch_, x.yaw_);
  }

 private:
  RateControlConfig cfg_;
  Pid roll_, pitch_, yaw_;
};

}  // namespace uavres::control
