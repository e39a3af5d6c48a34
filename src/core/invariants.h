// Runtime invariant checker: in-situ physical/numerical sanity checks.
//
// Avis-style in-situ checking for the simulator itself: every flight —
// scenario test, campaign run, or fuzz case — can be checked against a
// fixed taxonomy of invariants that must hold regardless of which fault is
// injected (see DESIGN.md §11):
//
//   kStateFinite     truth and EKF state contain no NaN/Inf
//   kCommandBounds   collective thrust command finite and within actuator range
//   kQuatNorm        truth/estimated attitude quaternions stay unit-norm
//   kCovSymmetry     EKF covariance stays symmetric
//   kCovPsd          EKF covariance diagonal stays non-negative and every
//                    off-diagonal entry satisfies the Cauchy-Schwarz bound
//   kCovTrace        EKF covariance trace stays under a plausibility bound
//   kEnergyRate      truth mechanical energy cannot rise faster than the
//                    powertrain can add it
//   kBubbleOrder     outer bubble radius >= inner radius > 0 at every
//                    tracking instant (Eq. 3 containment ordering)
//   kFailsafeLatency sensor-fault failsafes respect the 2.6 s detection
//                    pipeline floor (confirm + isolation + persistence) and
//                    never fire before fault onset
//
// Violations are structured records (id, time, measured value, bound,
// detail), surfaced as telemetry counters and trace instant events. Two
// active modes: kRecord collects violations for the caller to assert on or
// triage (campaign/fuzzer), kFatal additionally aborts the process at the
// first violation (belt-and-braces for tests).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "estimation/ekf.h"
#include "math/matrix.h"
#include "math/quat.h"
#include "math/vec3.h"
#include "telemetry/binary_io.h"

namespace uavres::core {

/// Identity of one invariant in the taxonomy (DESIGN.md §11).
enum class InvariantId : std::uint8_t {
  kStateFinite,
  kCommandBounds,
  kQuatNorm,
  kCovSymmetry,
  kCovPsd,
  kCovTrace,
  kEnergyRate,
  kBubbleOrder,
  kFailsafeLatency,
};

inline constexpr std::size_t kNumInvariants = 9;

const char* ToString(InvariantId id);

/// One recorded violation. `value` is the measured quantity, `bound` the
/// limit it broke; `detail` is a human-readable one-liner for triage.
struct InvariantViolation {
  InvariantId id{InvariantId::kStateFinite};
  double t{0.0};
  double value{0.0};
  double bound{0.0};
  std::string detail;

};

/// Codec field list, for snapshots (DESIGN.md §16).
template <class V>
void Fields(V& v, InvariantViolation& x) {
  v(telemetry::InRange{x.id, InvariantId::kStateFinite, InvariantId::kFailsafeLatency}, x.t,
    x.value, x.bound, telemetry::Capped{x.detail, telemetry::kMaxMessageLen});
}

/// Checker behaviour.
enum class InvariantMode : std::uint8_t {
  kOff,     ///< no checks, zero cost
  kRecord,  ///< collect violations (campaign / fuzzing)
  kFatal,   ///< collect, print and abort on the first violation (tests)
};

/// Tolerances and bounds. Defaults are deliberately loose: they flag
/// impossible physics and numerical corruption, not tuning regressions.
struct InvariantConfig {
  InvariantMode mode{InvariantMode::kOff};

  double quat_norm_tol{1e-6};        ///< | |q| - 1 | limit
  double cov_symmetry_tol{1e-9};     ///< |P_ij - P_ji| limit (absolute + relative)
  double cov_psd_tol{1e-9};          ///< negative-diagonal / Cauchy-Schwarz slack
  double cov_trace_max{1.0e6};       ///< trace(P) plausibility bound
  double thrust_cmd_min{-0.01};      ///< normalized collective lower bound
  double thrust_cmd_max{1.5};        ///< normalized collective upper bound
  /// Mechanical power margin [W/kg]: dE/dt <= margin * mass. A 2:1
  /// thrust-to-weight powertrain in a 40 m/s flyaway adds < 800 W/kg, so
  /// 2000 W/kg flags impossible physics, not aggressive flight.
  double energy_rate_margin_w_per_kg{2000.0};
  /// Minimum sensor-fault failsafe latency [s]: the health monitor's
  /// confirm (1.0) + isolation (2 x 0.3) + persistence (1.0) pipeline.
  double failsafe_min_latency_s{2.6};
  double failsafe_latency_tol_s{0.05};
  /// Recording cap; further violations only bump the counter.
  std::size_t max_recorded{64};
};

/// Everything one checked instant exposes to the checker. The simulation
/// runner fills one of these per tracking interval; tests and the fuzzer's
/// mutation checks can tap and corrupt it before evaluation, emulating a
/// defect without patching the simulator.
struct InvariantSample {
  double t{0.0};
  double dt{0.0};  ///< time since the previous checked instant (0 on first)

  math::Vec3 pos_true, vel_true;
  math::Quat att_true;
  math::Vec3 pos_est, vel_est;
  math::Quat att_est;
  double thrust_cmd{0.0};

  double mass_kg{1.0};
  /// Truth mechanical energy [J]: 0.5 m |v|^2 + m g h (h = -z in NED).
  double energy_j{0.0};

  double bubble_inner_m{0.0};
  double bubble_outer_m{0.0};
  bool bubble_tracked{false};  ///< radii valid at this instant

  /// EKF covariance (null when unavailable); not owned.
  const math::Matrix<estimation::Ekf::kN, estimation::Ekf::kN>* cov{nullptr};
  /// EKF strict-check accounting (null when unavailable); not owned.
  const estimation::EkfStatus* ekf_status{nullptr};
};

/// End-of-flight facts for the whole-run invariants.
struct InvariantEndSample {
  bool fault_injected{false};
  double fault_start_s{0.0};
  double fault_duration_s{0.0};
  bool failsafe_sensor_fault{false};  ///< failsafe declared via the gyro path
  double failsafe_time_s{0.0};
  /// Health-monitor anomaly accumulation [s-equivalent] at the last sampled
  /// instant before fault onset. The latency floor only binds when the
  /// detection pipeline starts uncharged: aggressive-but-healthy flight
  /// (e.g. a >60 deg/s yaw at a turning point) legitimately pre-charges the
  /// confirm integrator and shortens the apparent fault-to-failsafe time.
  double anomaly_at_onset{0.0};
};

/// Stateful per-flight checker. Not thread-safe; one instance per run.
class InvariantChecker {
 public:
  explicit InvariantChecker(const InvariantConfig& cfg = {});

  bool enabled() const { return cfg_.mode != InvariantMode::kOff; }

  /// Check one instant. No-op in kOff mode.
  void CheckStep(const InvariantSample& s);

  /// Whole-run checks; call once after the flight terminates.
  void CheckEnd(const InvariantEndSample& s);

  /// Recorded violations (capped at cfg.max_recorded).
  const std::vector<InvariantViolation>& violations() const { return violations_; }
  /// Total violations observed, including those beyond the recording cap.
  std::size_t total_violations() const { return total_; }
  bool ok() const { return total_ == 0; }

  /// Per-id tally over the flight.
  std::size_t CountFor(InvariantId id) const;

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, InvariantChecker& x) {
    v(telemetry::Capped{x.violations_, x.cfg_.max_recorded}, x.total_, x.per_id_,
      x.prev_energy_j_, x.have_prev_energy_, x.last_cov_asym_events_,
      x.last_cov_neg_var_events_);
  }

 private:
  void Report(InvariantId id, double t, double value, double bound, std::string detail);
  void CheckCovariance(const InvariantSample& s);

  InvariantConfig cfg_;
  std::vector<InvariantViolation> violations_;
  std::size_t total_{0};
  std::size_t per_id_[kNumInvariants]{};
  double prev_energy_j_{0.0};
  bool have_prev_energy_{false};
  int last_cov_asym_events_{0};
  int last_cov_neg_var_events_{0};
};

}  // namespace uavres::core
