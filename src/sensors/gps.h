// GNSS receiver model (position + velocity in local NED).
#pragma once

#include "math/rng.h"
#include "sensors/samples.h"
#include "sim/rigid_body.h"

namespace uavres::sensors {

/// GNSS error configuration. Defaults approximate an RTK-less u-blox M8N.
struct GpsConfig {
  double rate_hz{10.0};
  double pos_horiz_stddev{0.35};  ///< [m]
  double pos_vert_stddev{0.70};   ///< [m]
  double vel_stddev{0.15};        ///< [m/s]
};

/// GNSS model producing noisy NED position/velocity fixes.
class Gps {
 public:
  Gps() : Gps(GpsConfig{}, math::Rng{7}) {}
  Gps(const GpsConfig& cfg, math::Rng rng) : cfg_(cfg), rng_(rng) {}

  const GpsConfig& config() const { return cfg_; }

  GpsSample Sample(const sim::RigidBodyState& s, double t) {
    GpsSample out;
    out.t = t;
    out.pos_ned_m = {s.pos.x + rng_.Gaussian(0.0, cfg_.pos_horiz_stddev),
                     s.pos.y + rng_.Gaussian(0.0, cfg_.pos_horiz_stddev),
                     s.pos.z + rng_.Gaussian(0.0, cfg_.pos_vert_stddev)};
    out.vel_ned_mps = s.vel + rng_.GaussianVec3(cfg_.vel_stddev);
    return out;
  }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Gps& x) {
    v(x.rng_);
  }

 private:
  GpsConfig cfg_;
  math::Rng rng_;
};

}  // namespace uavres::sensors
