// Scalar and triaxial PID primitives used by the control cascade.
#pragma once

#include <cmath>

#include "math/num.h"
#include "math/vec3.h"

namespace uavres::control {

/// PID gains and limits. A zero `output_limit` means unlimited.
struct PidConfig {
  double kp{0.0};
  double ki{0.0};
  double kd{0.0};
  double integral_limit{0.0};   ///< |integral * ki| clamp; 0 disables
  double output_limit{0.0};     ///< |output| clamp; 0 disables
  double d_filter_tau{0.01};    ///< derivative low-pass time constant [s]
};

/// Scalar PID with derivative-on-error through a first-order filter and
/// conditional anti-windup (integration stops while output saturates).
class Pid {
 public:
  explicit Pid(const PidConfig& cfg = {}) : cfg_(cfg) {}

  const PidConfig& config() const { return cfg_; }

  void Reset() {
    integral_ = 0.0;
    last_error_ = 0.0;
    d_state_ = 0.0;
    initialized_ = false;
  }

  double Update(double error, double dt) {
    if (dt <= 0.0) return 0.0;

    double derivative = 0.0;
    if (initialized_) {
      const double raw_d = (error - last_error_) / dt;
      const double alpha = dt / (cfg_.d_filter_tau + dt);
      d_state_ += alpha * (raw_d - d_state_);
      derivative = d_state_;
    }
    last_error_ = error;
    initialized_ = true;

    double output = cfg_.kp * error + integral_ + cfg_.kd * derivative;
    const bool saturated =
        cfg_.output_limit > 0.0 && std::abs(output) >= cfg_.output_limit;

    // Anti-windup: only integrate while unsaturated or unwinding.
    if (cfg_.ki > 0.0 && (!saturated || error * output < 0.0)) {
      integral_ += cfg_.ki * error * dt;
      if (cfg_.integral_limit > 0.0) {
        integral_ = math::Clamp(integral_, -cfg_.integral_limit, cfg_.integral_limit);
      }
    }

    output = cfg_.kp * error + integral_ + cfg_.kd * derivative;
    if (cfg_.output_limit > 0.0) {
      output = math::Clamp(output, -cfg_.output_limit, cfg_.output_limit);
    }
    return output;
  }

  double integral() const { return integral_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Pid& x) {
    v(x.integral_, x.last_error_, x.d_state_, x.initialized_);
  }

 private:
  PidConfig cfg_;
  double integral_{0.0};
  double last_error_{0.0};
  double d_state_{0.0};
  bool initialized_{false};
};

/// Three independent scalar PIDs, one per axis.
class PidVec3 {
 public:
  explicit PidVec3(const PidConfig& cfg = {}) : x_(cfg), y_(cfg), z_(cfg) {}
  PidVec3(const PidConfig& xy, const PidConfig& z) : x_(xy), y_(xy), z_(z) {}

  void Reset() {
    x_.Reset();
    y_.Reset();
    z_.Reset();
  }

  math::Vec3 Update(const math::Vec3& error, double dt) {
    return {x_.Update(error.x, dt), y_.Update(error.y, dt), z_.Update(error.z, dt)};
  }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, PidVec3& x) {
    v(x.x_, x.y_, x.z_);
  }

 private:
  Pid x_, y_, z_;
};

}  // namespace uavres::control
