// IMU model: accelerometer + gyroscope, with PX4-style triple redundancy.
#pragma once

#include <array>

#include "math/num.h"
#include "math/rng.h"
#include "sensors/noise_model.h"
#include "sensors/samples.h"
#include "sim/rigid_body.h"

namespace uavres::sensors {

/// Measurement limits of a typical MEMS flight IMU. These are the values the
/// paper's Min/Max faults inject (+-16 g accelerometer, +-2000 deg/s gyro).
struct ImuRanges {
  SensorRange accel{16.0 * math::kGravity};          // +-156.9 m/s^2
  SensorRange gyro{math::DegToRad(2000.0)};          // +-34.9 rad/s
};

/// Noise configuration of one IMU unit.
struct ImuNoiseConfig {
  NoiseParams accel{0.12, 0.05, 0.002};  ///< [m/s^2]
  NoiseParams gyro{0.004, 0.002, 5e-5};  ///< [rad/s]
};

/// One physical IMU unit.
///
/// The accelerometer measures specific force in the body frame:
///   f_b = R^T * (a_world - g_ned)
/// so a vehicle at rest reads (0, 0, -9.81) when level. The gyroscope
/// measures the body angular rate.
class ImuUnit {
 public:
  ImuUnit(const ImuNoiseConfig& cfg, const ImuRanges& ranges, math::Rng rng);

  /// Sample the unit from ground truth. dt is the sampling interval.
  ImuSample Sample(const sim::RigidBodyState& s, double t, double dt);

  const ImuRanges& ranges() const { return ranges_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, ImuUnit& x) {
    v(x.accel_noise_, x.gyro_noise_);
  }

 private:
  TriaxialNoise accel_noise_;
  TriaxialNoise gyro_noise_;
  ImuRanges ranges_;
};

/// Triple-redundant IMU, matching PX4's default sensor set. The paper's fault
/// model assumes a fault affects *all* redundant units, so the health
/// monitor's unit-switching cannot mask it — this class still exposes the
/// individual units so that assumption is made explicit in code.
class RedundantImu {
 public:
  static constexpr int kNumUnits = 3;

  RedundantImu(const ImuNoiseConfig& cfg, const ImuRanges& ranges, math::Rng rng);

  /// Sample every unit.
  std::array<ImuSample, kNumUnits> SampleAll(const sim::RigidBodyState& s, double t, double dt);

  const ImuRanges& ranges() const { return ranges_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, RedundantImu& x) {
    v(x.units_);
  }

 private:
  std::array<ImuUnit, kNumUnits> units_;
  ImuRanges ranges_;
};

}  // namespace uavres::sensors
