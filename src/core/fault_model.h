// The paper's IMU fault model (Table I).
//
// Seven injectable behaviours represent the surveyed fault universe —
// hardware degradation (bias, drift, damage), environmental effects
// (instability, constant output) and attacks (acoustic, false data
// injection, hardware trojans, OS attacks):
//
//   kFixed  : random constant value        (false data injection, trojan)
//   kZeros  : no updates / zero output     (damaged IMU, sensor failure)
//   kFreeze : last pre-fault value held    (constant output)
//   kRandom : uniform in sensor range      (instability, acoustic attack)
//   kMin    : sensor minimum (negative)    (OS/system attack)
//   kMax    : sensor maximum               (OS/system attack)
//   kNoise  : strong additive noise        (bias error, gyro/acc drift)
//
// Each applies to one of three targets: the accelerometer, the gyrometer,
// or the whole IMU (both at once), yielding the paper's 21 experiments.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace uavres::core {

/// Injectable fault behaviour. The first seven are the paper's §III-A fault
/// model; the remainder are this repository's extended model covering
/// scenarios the paper lists as unexplored (§V threats to validity):
///
///   kScale        : multiplicative gain error (mis-calibration, analog
///                   front-end damage)
///   kStuckAxis    : one axis frozen, the others healthy (single-channel
///                   damage — defeats whole-sensor plausibility checks)
///   kIntermittent : bursts of random values with healthy gaps (loose
///                   connector, EMI bursts)
///   kDrift        : additive ramp growing with time in-fault (thermal
///                   runaway; the classic slow-drift attack profile)
enum class FaultType : std::uint8_t {
  kFixed,
  kZeros,
  kFreeze,
  kRandom,
  kMin,
  kMax,
  kNoise,
  // Extended model (not part of the paper's 21-experiment grid).
  kScale,
  kStuckAxis,
  kIntermittent,
  kDrift,
};

/// The paper's fault model (drives the 850-run campaign grid).
inline constexpr std::array<FaultType, 7> kAllFaultTypes{
    FaultType::kFixed,  FaultType::kZeros, FaultType::kFreeze, FaultType::kRandom,
    FaultType::kMin,    FaultType::kMax,   FaultType::kNoise,
};

/// The extended fault model (bench_extended_faults).
inline constexpr std::array<FaultType, 4> kExtendedFaultTypes{
    FaultType::kScale,
    FaultType::kStuckAxis,
    FaultType::kIntermittent,
    FaultType::kDrift,
};

/// Component the fault corrupts (paper's 3 test cases per fault type).
enum class FaultTarget : std::uint8_t {
  kAccelerometer,
  kGyrometer,
  kImu,  ///< both accelerometer and gyrometer
};

inline constexpr std::array<FaultTarget, 3> kAllFaultTargets{
    FaultTarget::kAccelerometer,
    FaultTarget::kGyrometer,
    FaultTarget::kImu,
};

/// The paper's four injection durations [s].
inline constexpr std::array<double, 4> kInjectionDurations{2.0, 5.0, 10.0, 30.0};

/// The paper's injection start: 90 s after take-off.
inline constexpr double kInjectionStartS = 90.0;

/// A concrete fault to inject into one flight.
struct FaultSpec {
  FaultType type{FaultType::kZeros};
  FaultTarget target{FaultTarget::kImu};
  double start_time_s{kInjectionStartS};
  double duration_s{10.0};
  /// Fault intensity in [0, 1]: the injected sample is
  /// `truth + magnitude * (faulted - truth)` per axis, so 1.0 is the paper's
  /// full-strength fault and 0.0 degenerates to no corruption. The boundary
  /// bisection driver (`uavres bisect`) sweeps this axis. At exactly 1.0 the
  /// blend is skipped entirely, which keeps every pre-magnitude run — and its
  /// store key — bit-identical; the injector's RNG draws never depend on it,
  /// which is what makes magnitude forks of a snapshot exact (DESIGN.md §16).
  double magnitude{1.0};

  bool ActiveAt(double t) const {
    return t >= start_time_s && t < start_time_s + duration_s;
  }

  bool AffectsAccel() const { return target != FaultTarget::kGyrometer; }
  bool AffectsGyro() const { return target != FaultTarget::kAccelerometer; }
};

const char* ToString(FaultType t);
const char* ToString(FaultTarget t);

/// Short label like "Gyro Freeze" matching the paper's Table III rows.
std::string FaultLabel(FaultTarget target, FaultType type);

/// Command-line and `.repro` spelling of a fault type ("fixed", "zeros",
/// "stuck-axis", ...) or target ("acc", "gyro", "imu"). One table in
/// fault_model.cpp backs these and the parsers below.
const char* Token(FaultType t);
const char* Token(FaultTarget t);

/// The value spelled exactly `token` (case-sensitive), or nullopt for any
/// other string.
std::optional<FaultType> ParseFaultType(std::string_view token);
std::optional<FaultTarget> ParseFaultTarget(std::string_view token);

}  // namespace uavres::core
