// Environmental model: constant wind plus smooth stochastic gusts.
#pragma once

#include "math/rng.h"
#include "math/vec3.h"

namespace uavres::sim {

/// Wind configuration.
struct WindParams {
  math::Vec3 mean_wind_ned;        ///< steady wind [m/s]
  double gust_stddev{0.0};         ///< per-axis gust magnitude [m/s]
  double gust_correlation_s{2.0};  ///< gust time constant (Ornstein-Uhlenbeck)
};

/// Environment shared by the simulator: wind field and air density.
/// Gusts follow a first-order Gauss-Markov process so they are smooth
/// in time but statistically stationary.
class Environment {
 public:
  Environment() : Environment(WindParams{}, math::Rng{42}) {}
  Environment(const WindParams& params, math::Rng rng) : params_(params), rng_(rng) {}

  const WindParams& params() const { return params_; }
  double air_density() const { return air_density_; }

  /// Advance the gust process by dt.
  void Step(double dt) {
    if (params_.gust_stddev <= 0.0) return;
    const double tau = params_.gust_correlation_s;
    const double alpha = dt / (tau + dt);
    // Discrete OU: decay toward zero, inject noise scaled for stationarity.
    const double noise_scale = params_.gust_stddev * std::sqrt(2.0 * alpha);
    gust_ = gust_ * (1.0 - alpha) + rng_.GaussianVec3(noise_scale);
  }

  /// Wind velocity at the current instant [m/s, NED].
  math::Vec3 Wind() const { return params_.mean_wind_ned + gust_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Environment& x) {
    v(x.rng_, x.gust_);
  }

 private:
  WindParams params_;
  math::Rng rng_;
  math::Vec3 gust_;
  double air_density_{1.225};
};

}  // namespace uavres::sim
