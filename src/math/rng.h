// Deterministic random number generation.
//
// Every experiment in the campaign derives its own Rng from a stable
// 64-bit seed, so the whole 850-run study is bit-reproducible across
// machines and runs (a requirement the paper's ESXi testbed cannot meet).
#pragma once

#include <cstdint>

#include "math/vec3.h"

namespace uavres::math {

/// xoshiro256** PRNG with SplitMix64 seeding. Not cryptographic; fast and
/// statistically solid for simulation noise.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seed the generator; identical seeds yield identical streams.
  void Seed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform01();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller (cached second deviate).
  double Gaussian();

  /// Normal with given mean and standard deviation.
  double Gaussian(double mean, double stddev) { return mean + stddev * Gaussian(); }

  /// Vector with each component uniform in [lo, hi).
  Vec3 UniformVec3(double lo, double hi) {
    return {Uniform(lo, hi), Uniform(lo, hi), Uniform(lo, hi)};
  }

  /// Vector with each component ~ N(0, stddev).
  Vec3 GaussianVec3(double stddev) {
    return {Gaussian(0.0, stddev), Gaussian(0.0, stddev), Gaussian(0.0, stddev)};
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t UniformInt(std::uint64_t n) { return NextU64() % n; }

  /// Derive an independent child generator; used to give each subsystem its
  /// own stream so adding noise to one sensor does not perturb another.
  Rng Fork();

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Rng& x) {
    v(x.s_, x.cached_gauss_, x.has_cached_gauss_);
  }

 private:
  std::uint64_t s_[4]{};
  double cached_gauss_{0.0};
  bool has_cached_gauss_{false};
};

/// Stable 64-bit hash combiner for building experiment seeds from ids.
std::uint64_t HashCombine(std::uint64_t a, std::uint64_t b);

}  // namespace uavres::math
