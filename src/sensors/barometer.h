// Barometric altimeter model.
#pragma once

#include "math/rng.h"
#include "sensors/noise_model.h"
#include "sensors/samples.h"
#include "sim/rigid_body.h"

namespace uavres::sensors {

/// Barometer error configuration.
struct BaroConfig {
  double rate_hz{50.0};
  double white_stddev{0.20};   ///< [m]
  double drift_stddev{0.01};   ///< slow pressure drift [m/sqrt(s)]
};

/// Barometric altitude (positive up, relative to the NED origin).
class Barometer {
 public:
  Barometer() : Barometer(BaroConfig{}, math::Rng{11}) {}
  Barometer(const BaroConfig& cfg, math::Rng rng) : cfg_(cfg), rng_(rng) {}

  const BaroConfig& config() const { return cfg_; }

  BaroSample Sample(const sim::RigidBodyState& s, double t, double dt) {
    drift_ += rng_.Gaussian(0.0, cfg_.drift_stddev * std::sqrt(dt));
    BaroSample out;
    out.t = t;
    out.alt_m = -s.pos.z + drift_ + rng_.Gaussian(0.0, cfg_.white_stddev);
    return out;
  }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Barometer& x) {
    v(x.rng_, x.drift_);
  }

 private:
  BaroConfig cfg_;
  math::Rng rng_;
  double drift_{0.0};
};

}  // namespace uavres::sensors
