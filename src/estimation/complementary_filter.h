// Mahony-style complementary attitude filter.
//
// Serves as the baseline orientation estimator for the ablation benches: the
// paper motivates studying how the *EKF* withstands IMU faults; comparing it
// with this simpler filter quantifies how much the EKF's fusion structure
// matters for the measured resilience.
#pragma once

#include "math/quat.h"
#include "math/vec3.h"
#include "sensors/samples.h"

namespace uavres::estimation {

/// Filter gains.
struct ComplementaryConfig {
  double accel_gain{0.2};  ///< tilt correction gain [1/s]
  double mag_gain{0.1};    ///< yaw correction gain [1/s]
  double bias_gain{0.01};  ///< gyro bias adaptation gain
};

/// Attitude-only estimator: gyro integration with gravity/mag vector
/// corrections. No position or velocity states.
class ComplementaryFilter {
 public:
  explicit ComplementaryFilter(const ComplementaryConfig& cfg = {}) : cfg_(cfg) {}

  void InitAtRest(double yaw_rad) {
    att_ = math::Quat::FromEuler(0.0, 0.0, yaw_rad);
    gyro_bias_ = math::Vec3::Zero();
  }

  /// Advance with one IMU sample (accel used as gravity reference).
  void Update(const sensors::ImuSample& imu, double dt);

  /// Optional yaw aiding from the magnetometer.
  void UpdateMag(const sensors::MagSample& mag, double dt);

  const math::Quat& attitude() const { return att_; }
  const math::Vec3& gyro_bias() const { return gyro_bias_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, ComplementaryFilter& x) {
    v(x.att_, x.gyro_bias_);
  }

 private:
  ComplementaryConfig cfg_;
  math::Quat att_{};
  math::Vec3 gyro_bias_;
};

}  // namespace uavres::estimation
