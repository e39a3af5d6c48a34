// GNSS fault injector.
//
// The paper's discussion (§IV-D) calls for flight controllers "capable of
// withstanding abnormal conditions in IMUs or other critical components
// like GPS", and the authors' earlier work (SAFECOMP'22, PRDC'22) injected
// exactly such GNSS faults. This injector extends the study to the GNSS
// receiver with five fault classes:
//
//   kDropout : no fixes at all (jamming, antenna failure)
//   kFreeze  : the last fix is repeated (receiver hang)
//   kJump    : a constant position offset (spoofing step / multipath)
//   kDrift   : a position offset ramping with time in-fault (slow-drag
//              spoofing — the canonical stealthy GNSS attack)
//   kNoise   : strongly degraded accuracy (interference)
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "math/rng.h"
#include "sensors/samples.h"

namespace uavres::core {

/// GNSS fault behaviour.
enum class GpsFaultType : std::uint8_t {
  kDropout,
  kFreeze,
  kJump,
  kDrift,
  kNoise,
};

inline constexpr std::array<GpsFaultType, 5> kAllGpsFaultTypes{
    GpsFaultType::kDropout, GpsFaultType::kFreeze, GpsFaultType::kJump,
    GpsFaultType::kDrift,   GpsFaultType::kNoise,
};

const char* ToString(GpsFaultType t);

/// A concrete GNSS fault.
struct GpsFaultSpec {
  GpsFaultType type{GpsFaultType::kDropout};
  double start_time_s{90.0};
  double duration_s{10.0};

  double jump_magnitude_m{60.0};   ///< kJump offset norm
  double drift_rate_ms{2.0};       ///< kDrift offset growth [m/s]
  double noise_sigma_m{15.0};      ///< kNoise added position sigma

  bool ActiveAt(double t) const {
    return t >= start_time_s && t < start_time_s + duration_s;
  }
};

/// Corrupts the GNSS sample stream per a GpsFaultSpec.
class GpsFaultInjector {
 public:
  GpsFaultInjector(const GpsFaultSpec& spec, math::Rng rng);

  const GpsFaultSpec& spec() const { return spec_; }
  bool ActiveAt(double t) const { return spec_.ActiveAt(t); }

  /// Corrupt one fix (identity outside the fault window).
  sensors::GpsSample Apply(const sensors::GpsSample& truth, double t);

  /// The jump direction drawn for this experiment (unit vector, horizontal).
  const math::Vec3& offset_direction() const { return direction_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, GpsFaultInjector& x) {
    v(x.rng_, x.direction_, x.frozen_);
  }

 private:
  GpsFaultSpec spec_;
  math::Rng rng_;
  math::Vec3 direction_;  ///< horizontal unit vector for jump/drift
  std::optional<sensors::GpsSample> frozen_;
};

}  // namespace uavres::core
