// Rotor (motor + propeller) model.
#pragma once

#include "math/num.h"

namespace uavres::sim {

/// Parameters of one rotor.
struct RotorParams {
  double max_thrust_n{7.0};        ///< thrust at full command [N]
  double torque_coefficient{0.016};  ///< reaction torque = coeff * thrust [N m / N]
  double time_constant_s{0.05};    ///< first-order spin-up/down time constant
  int spin_direction{+1};          ///< +1 CCW, -1 CW (seen from above)
};

/// First-order rotor: the normalized command u in [0,1] drives an internal
/// state `level` with time constant tau; thrust is proportional to `level`.
///
/// The quadratic thrust-vs-speed curve is folded into the normalized command
/// (as PX4's SITL motor model does), which keeps the mixer linear.
class Rotor {
 public:
  explicit Rotor(const RotorParams& params) : params_(params) {}

  const RotorParams& params() const { return params_; }

  /// Current normalized output level in [0,1].
  double level() const { return level_; }

  /// Set the internal level directly (used to start simulations at rest
  /// or at hover trim without a spin-up transient).
  void set_level(double level) { level_ = math::Clamp(level, 0.0, 1.0); }

  /// Advance the first-order response toward the commanded level.
  void Step(double command, double dt) {
    command = math::Clamp(command, 0.0, 1.0);
    const double alpha = dt / (params_.time_constant_s + dt);
    level_ += alpha * (command - level_);
  }

  /// Thrust along -z body [N].
  double Thrust() const { return params_.max_thrust_n * level_; }

  /// Reaction torque about +z body [N m]; sign follows spin direction.
  double ReactionTorque() const {
    return -params_.spin_direction * params_.torque_coefficient * Thrust();
  }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Rotor& x) {
    v(x.level_);
  }

 private:
  RotorParams params_;
  double level_{0.0};
};

}  // namespace uavres::sim
