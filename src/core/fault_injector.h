// Fault injector: corrupts the IMU sensor stream per a FaultSpec.
//
// The injector sits at the sensor-output boundary, exactly where the paper's
// tool intercepts PX4's sensor pipeline: every consumer downstream — the EKF
// *and* the rate controller — sees the corrupted data. Per the paper's
// assumption, a fault affects all redundant IMU units simultaneously, so the
// injector is applied to each unit's sample.
#pragma once

#include <array>
#include <optional>

#include "core/fault_model.h"
#include "math/rng.h"
#include "sensors/imu.h"
#include "sensors/samples.h"

namespace uavres::core {

/// Magnitudes for the kNoise fault ("a not so drastic random value
/// added/subtracted to the current value") — strong enough to disturb the
/// loops, far below the range limits.
struct FaultNoiseConfig {
  double accel_sigma_mps2{35.0};
  double gyro_sigma_rads{1.2};
};

/// Parameters of the extended fault model (kScale/kStuckAxis/kIntermittent/
/// kDrift; see fault_model.h).
struct ExtendedFaultConfig {
  double scale_factor{1.8};            ///< multiplicative gain error
  int stuck_axis{0};                   ///< which axis freezes (0=x, 1=y, 2=z)
  double intermittent_period_s{0.5};   ///< burst cycle length
  double intermittent_duty{0.5};       ///< fraction of the cycle that bursts
  double drift_rate_accel{3.0};        ///< [m/s^2 per second in-fault]
  double drift_rate_gyro{0.12};        ///< [rad/s per second in-fault]
};

/// Applies one FaultSpec to the redundant IMU stream.
///
/// Randomized faults (kFixed's constant, kRandom, kNoise, kIntermittent
/// bursts) draw from one RNG stream per sensor axis — six streams forked
/// deterministically from the seed. Axis draws are therefore independent:
/// corrupting the accelerometer never perturbs the gyro's draw sequence and
/// vice versa, which is what the fuzzer's axis-permutation metamorphic
/// oracle asserts (a gyro-targeted fault produces the same gyro corruption
/// whether or not the accelerometer is faulted too).
class FaultInjector {
 public:
  static constexpr int kMaxUnits = sensors::RedundantImu::kNumUnits;

  FaultInjector(const FaultSpec& spec, const sensors::ImuRanges& ranges, math::Rng rng,
                const FaultNoiseConfig& noise = {}, const ExtendedFaultConfig& ext = {});

  const FaultSpec& spec() const { return spec_; }

  bool ActiveAt(double t) const { return spec_.ActiveAt(t); }

  /// Corrupt one unit's sample (identity outside the fault window).
  sensors::ImuSample Apply(const sensors::ImuSample& truth, int unit, double t);

  /// Convenience: corrupt the whole redundant set.
  std::array<sensors::ImuSample, kMaxUnits> ApplyAll(
      const std::array<sensors::ImuSample, kMaxUnits>& truth, double t);

  /// The constant vector used by kFixed (drawn once per experiment), for
  /// logging and tests.
  const math::Vec3& fixed_accel() const { return fixed_accel_; }
  const math::Vec3& fixed_gyro() const { return fixed_gyro_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, FaultInjector& x) {
    v(x.axis_rng_, x.fixed_accel_, x.fixed_gyro_, x.frozen_);
  }

 private:
  /// The full-strength (magnitude-1.0) corrupted sample; Apply blends it
  /// toward truth when the spec carries a partial magnitude.
  sensors::ImuSample ApplyFull(const sensors::ImuSample& truth, int unit, double t);

  math::Vec3 CorruptAxis(const math::Vec3& truth, bool is_accel, int unit, double t);

  /// Per-axis stream: sensor 0 = accelerometer, 1 = gyrometer.
  math::Rng& AxisRng(bool is_accel, int axis) {
    return axis_rng_[is_accel ? 0 : 1][axis];
  }
  math::Vec3 UniformPerAxis(bool is_accel, double lo, double hi);
  math::Vec3 GaussianPerAxis(bool is_accel, double sigma);

  FaultSpec spec_;
  sensors::ImuRanges ranges_;
  math::Rng axis_rng_[2][3];  ///< [sensor][axis] independent streams
  FaultNoiseConfig noise_;
  ExtendedFaultConfig ext_;

  math::Vec3 fixed_accel_;
  math::Vec3 fixed_gyro_;

  // Freeze state: the first in-window sample of each unit is held.
  std::array<std::optional<sensors::ImuSample>, kMaxUnits> frozen_{};
};

}  // namespace uavres::core
