// Online IMU fault detection (DESIGN.md §15).
//
// Two independent evidence streams feed one decision state machine:
//
//  * Rate-domain plausibility on the selected IMU unit: out-of-range or
//    step-discontinuous gyro/accel samples and exactly-repeating streams
//    (frozen/zeroed sensors) charge a leaky accumulator, exactly the shape
//    of the health monitor's gyro pipeline but tuned for detection speed
//    rather than failsafe conservatism.
//  * An innovation-gate CUSUM over the EKF's normalized test ratios: the
//    classic change detector g <- max(0, g + (x - drift)·dt) over the worst
//    GPS/baro/mag ratio, which catches faults that stay inside the sensor's
//    physical range (noise, scale) through their fused consequences.
//
// The state machine is deliberately conservative on both edges: either
// stream must accumulate past its threshold to reach kConfirmed (failover
// engaged), and both must stay quiet for a hysteresis window before the
// detector stands down to kRecovered. All state is fixed-size — observing a
// sample performs no heap allocation — and every transition is a pure
// function of the observed topic values, which is what lets the `.uvbs`
// replay harness reproduce each decision bit-for-bit offline.
//
// This layer knows nothing about the bus: src/uav/modules.h wires the
// observers as publish-time topic interceptors.
#pragma once

#include <cstdint>

#include "estimation/complementary_filter.h"
#include "estimation/ekf.h"
#include "math/vec3.h"
#include "sensors/samples.h"

namespace uavres::estimation {

/// Detector tuning. Defaults are sized against the paper's fault magnitudes
/// (fault_injector.h): range checks sit just inside the sensor's physical
/// range, jump checks far above the noise floor, and the CUSUM drift above
/// any test ratio a healthy flight sustains.
struct DetectorConfig {
  /// Master switch. Off by default: a disabled detector registers no bus
  /// interceptors and publishes nothing, so every byte of a run is
  /// identical to a build without the detector compiled in.
  bool enabled{false};

  // --- Rate-domain plausibility (selected IMU unit) ---
  double gyro_range_rads{30.0};     ///< just inside the ±34.9 rad/s sensor range
  double accel_range_mps2{150.0};   ///< just inside the ±156.9 m/s² sensor range
  double gyro_jump_rads{6.0};       ///< per-sample step no airframe can produce
  double accel_jump_mps2{80.0};     ///< per-sample step (≈8 g in 4 ms)
  double stuck_window_s{0.08};      ///< exactly-repeating samples flagged frozen
  double plaus_confirm_s{0.12};     ///< leaky accumulation before the stream counts
  double plaus_leak_ratio{4.0};     ///< healthy samples drain at this rate

  // --- Innovation-gate CUSUM over EKF test ratios ---
  double cusum_drift{1.25};         ///< sustained worst ratio above this charges
  double cusum_threshold{6.0};      ///< charge [ratio·s] that confirms
  double cusum_cap{12.0};           ///< accumulator ceiling (bounds stand-down lag)
  double cusum_ratio_cap{50.0};     ///< per-step ratio clamp (hard faults saturate)

  // --- Hysteresis ---
  /// Both streams must stay fully drained this long before a confirmed
  /// detector stands down (failover disengages, state -> kRecovered).
  double clear_s{1.5};
};

/// Decision state. kSuspect is diagnostic only (some evidence accumulated);
/// failover follows kConfirmed exclusively.
enum class DetectorState : std::uint8_t {
  kNominal = 0,
  kSuspect = 1,
  kConfirmed = 2,
  kRecovered = 3,  ///< was confirmed, evidence cleared; re-arms like kNominal
};

const char* ToString(DetectorState s);

/// The online detector. Feed it the selected IMU unit every control period
/// (ObserveRates) and the EKF status once per step (ObserveInnovations —
/// which also advances the state machine, so decisions change exactly once
/// per step, at status-publish time).
class ImuFaultDetector {
 public:
  explicit ImuFaultDetector(const DetectorConfig& cfg = {});

  /// Rate-domain observation of the (post-fault-injection) selected unit.
  void ObserveRates(const sensors::ImuSample& imu, double dt);

  /// Innovation observation + the once-per-step state machine advance.
  void ObserveInnovations(const EkfStatus& status, double t, double dt);

  DetectorState state() const { return state_; }
  /// True while attitude estimation should run on the fallback filter.
  bool failover_active() const { return state_ == DetectorState::kConfirmed; }

  /// Time of the first kConfirmed entry; -1 when never confirmed.
  double first_confirm_time_s() const { return first_confirm_time_s_; }
  /// Time of the most recent kConfirmed entry; -1 when never confirmed.
  double last_confirm_time_s() const { return last_confirm_time_s_; }
  /// Number of distinct confirmations (re-detections after stand-down count).
  int confirm_events() const { return confirm_events_; }

  double cusum() const { return cusum_; }
  double plausibility_level() const { return plaus_level_; }
  const DetectorConfig& config() const { return cfg_; }

  /// Snapshot seam (math/state_io.h, DESIGN.md §16): visits the run-mutable
  /// state; configuration is reconstructed, not serialized.
  template <class Visitor>
  void VisitState(Visitor&& v) {
    v(state_, plaus_level_, last_gyro_, last_accel_, have_last_, stuck_s_, cusum_, quiet_s_, first_confirm_time_s_, last_confirm_time_s_, confirm_events_);
  }

 private:
  bool RateSampleImplausible(const sensors::ImuSample& imu, double dt);

  DetectorConfig cfg_;
  DetectorState state_{DetectorState::kNominal};

  // Rate-domain pipeline.
  double plaus_level_{0.0};
  math::Vec3 last_gyro_{};
  math::Vec3 last_accel_{};
  bool have_last_{false};
  double stuck_s_{0.0};

  // CUSUM pipeline.
  double cusum_{0.0};

  // Decision bookkeeping.
  double quiet_s_{0.0};
  double first_confirm_time_s_{-1.0};
  double last_confirm_time_s_{-1.0};
  int confirm_events_{0};
};

/// Estimator-failover mix: the published NavState while the detector holds
/// kConfirmed. Attitude, gyro bias and body rate come from the complementary
/// filter (whose gravity-referenced tilt survives faults the EKF's
/// IMU-driven prediction cannot); position, velocity and accel bias stay on
/// the EKF, whose GPS resets keep them anchored. Shared by the estimator
/// module and the offline replay, which must mix bit-identically.
NavState ApplyAttitudeFallback(const NavState& ekf_state, const ComplementaryFilter& comp,
                               const sensors::ImuSample& imu);

}  // namespace uavres::estimation
