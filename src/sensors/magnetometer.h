// Magnetometer model.
//
// The paper's fault model deliberately excludes the magnetometer; the flight
// stack still carries one (as PX4 does) because the EKF needs a yaw
// reference. Faults are never injected into this sensor.
#pragma once

#include "math/rng.h"
#include "sensors/samples.h"
#include "sim/rigid_body.h"

namespace uavres::sensors {

/// Magnetometer error configuration.
struct MagConfig {
  double rate_hz{50.0};
  double white_stddev{0.01};  ///< per-axis noise on the unit field vector
};

/// Measures the Earth field direction (declination-free north) in the body
/// frame.
class Magnetometer {
 public:
  Magnetometer() : Magnetometer(MagConfig{}, math::Rng{13}) {}
  Magnetometer(const MagConfig& cfg, math::Rng rng) : cfg_(cfg), rng_(rng) {}

  const MagConfig& config() const { return cfg_; }

  MagSample Sample(const sim::RigidBodyState& s, double t) {
    // Earth field: unit north with a 60 deg downward inclination, typical for
    // mid-latitudes (Valencia ~ 54 deg; exact value does not matter for yaw).
    const math::Vec3 field_ned{0.5, 0.0, 0.866};
    MagSample out;
    out.t = t;
    out.field_body = s.att.RotateInverse(field_ned) + rng_.GaussianVec3(cfg_.white_stddev);
    return out;
  }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Magnetometer& x) {
    v(x.rng_);
  }

 private:
  MagConfig cfg_;
  math::Rng rng_;
};

}  // namespace uavres::sensors
