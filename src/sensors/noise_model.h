// Per-axis sensor error model: turn-on bias + white noise + bias random walk.
#pragma once

#include "math/rng.h"
#include "math/vec3.h"

namespace uavres::sensors {

/// Configuration of a triaxial error model.
struct NoiseParams {
  double white_stddev{0.0};       ///< white noise sigma per sample
  double turn_on_bias_stddev{0.0};  ///< constant bias drawn at construction
  double bias_walk_stddev{0.0};   ///< random-walk increment sigma per sqrt(s)
};

/// Triaxial additive error process. Deterministic given the seed RNG.
class TriaxialNoise {
 public:
  TriaxialNoise() : TriaxialNoise(NoiseParams{}, math::Rng{1}) {}

  TriaxialNoise(const NoiseParams& params, math::Rng rng) : params_(params), rng_(rng) {
    bias_ = rng_.GaussianVec3(params_.turn_on_bias_stddev);
  }

  const NoiseParams& params() const { return params_; }
  const math::Vec3& bias() const { return bias_; }

  /// Corrupt a true value; dt is the sample interval (drives the bias walk).
  math::Vec3 Corrupt(const math::Vec3& truth, double dt) {
    if (params_.bias_walk_stddev > 0.0) {
      bias_ += rng_.GaussianVec3(params_.bias_walk_stddev * std::sqrt(dt));
    }
    return truth + bias_ + rng_.GaussianVec3(params_.white_stddev);
  }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, TriaxialNoise& x) {
    v(x.rng_, x.bias_);
  }

 private:
  NoiseParams params_;
  math::Rng rng_;
  math::Vec3 bias_;
};

/// Symmetric measurement range; values outside are clamped, mimicking sensor
/// saturation. The fault model's Min/Max faults inject exactly these bounds.
struct SensorRange {
  double limit{0.0};  ///< measurements clamp to [-limit, +limit]

  math::Vec3 Clamp(const math::Vec3& v) const {
    return v.CwiseClamp(-limit, limit);
  }
};

}  // namespace uavres::sensors
