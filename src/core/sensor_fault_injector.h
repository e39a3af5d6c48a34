// Barometer / magnetometer fault injectors.
//
// The paper's fault model covers the IMU only; the bus-boundary interceptor
// architecture makes the same seven fault behaviours (fault_model.h, Table I)
// injectable into any sensor topic for free. These injectors apply a
// FaultSpec to the barometer's scalar altitude and the magnetometer's body
// field vector. They are OFF by default — the 850-run paper campaign never
// instantiates them — and exist for the extended experiments (a baro fault
// propagating through EKF rejection into failsafe is covered by a dedicated
// mutation test).
//
// The FaultSpec's `target` field is meaningless for a single-signal sensor
// and is ignored; each injector forks its own RNG streams so enabling one
// never perturbs another sensor's draw sequence.
#pragma once

#include <optional>

#include "core/fault_model.h"
#include "math/rng.h"
#include "sensors/samples.h"

namespace uavres::core {

/// Output range and kNoise magnitude for barometer faults.
struct BaroFaultConfig {
  double min_alt_m{-1000.0};  ///< sensor output minimum (kMin)
  double max_alt_m{9000.0};   ///< sensor output maximum (kMax)
  double noise_sigma_m{25.0}; ///< kNoise additive sigma — far above baro_noise
};

/// Output range and kNoise magnitude for magnetometer faults. The healthy
/// field is a unit-ish vector, so range limits are O(1).
struct MagFaultConfig {
  double limit{2.0};        ///< per-axis output range (kMin/kMax/kRandom)
  double noise_sigma{0.6};  ///< kNoise additive sigma per axis
};

/// Applies one FaultSpec to the barometer stream (scalar altitude).
class BaroFaultInjector {
 public:
  BaroFaultInjector(const FaultSpec& spec, math::Rng rng, const BaroFaultConfig& cfg = {});

  const FaultSpec& spec() const { return spec_; }
  bool ActiveAt(double t) const { return spec_.ActiveAt(t); }

  /// Corrupt one sample (identity outside the fault window).
  sensors::BaroSample Apply(const sensors::BaroSample& truth, double t);

  /// kFixed's constant (drawn once per experiment), for logging and tests.
  double fixed_alt_m() const { return fixed_alt_m_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, BaroFaultInjector& x) {
    v(x.rng_, x.fixed_alt_m_, x.frozen_alt_m_);
  }

 private:
  FaultSpec spec_;
  BaroFaultConfig cfg_;
  math::Rng rng_;
  double fixed_alt_m_;
  std::optional<double> frozen_alt_m_;
};

/// Applies one FaultSpec to the magnetometer stream (body field vector).
class MagFaultInjector {
 public:
  MagFaultInjector(const FaultSpec& spec, math::Rng rng, const MagFaultConfig& cfg = {});

  const FaultSpec& spec() const { return spec_; }
  bool ActiveAt(double t) const { return spec_.ActiveAt(t); }

  /// Corrupt one sample (identity outside the fault window).
  sensors::MagSample Apply(const sensors::MagSample& truth, double t);

  /// kFixed's constant (drawn once per experiment), for logging and tests.
  const math::Vec3& fixed_field() const { return fixed_field_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, MagFaultInjector& x) {
    v(x.rng_, x.fixed_field_, x.frozen_field_);
  }

 private:
  FaultSpec spec_;
  MagFaultConfig cfg_;
  math::Rng rng_;
  math::Vec3 fixed_field_;
  std::optional<math::Vec3> frozen_field_;
};

}  // namespace uavres::core
