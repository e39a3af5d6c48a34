// Error-state extended Kalman filter for UAV navigation.
//
// This is the flight stack's analogue of PX4's EKF2: the IMU drives the
// prediction step and GNSS / barometer / magnetometer provide corrections.
// Because prediction trusts the IMU, injected IMU faults corrupt the state
// estimate exactly as they do in the real stack — the central mechanism the
// paper studies.
//
// Nominal state: attitude quaternion q (body->world), velocity v [NED],
// position p [NED], gyro bias b_g, accelerometer bias b_a.
// Error state (15): [dp(0:2) dv(3:5) dtheta(6:8) db_g(9:11) db_a(12:14)],
// with dtheta a body-frame small-angle attitude error.
#pragma once

#include <optional>

#include "math/matrix.h"
#include "math/quat.h"
#include "math/vec3.h"
#include "sensors/samples.h"

namespace uavres::estimation {

/// Filter tuning. Defaults are PX4-like for a small multirotor.
struct EkfConfig {
  // Process noise densities.
  double accel_noise{0.35};        ///< [m/s^2 / sqrt(Hz)] velocity prediction noise
  double gyro_noise{0.015};        ///< [rad/s / sqrt(Hz)] attitude prediction noise
  double accel_bias_walk{0.01};    ///< [m/s^3]
  double gyro_bias_walk{1e-4};     ///< [rad/s^2]

  // Measurement noise (standard deviations).
  double gps_pos_noise{0.5};   ///< [m]
  double gps_vel_noise{0.3};   ///< [m/s]
  double baro_noise{0.6};      ///< [m]
  double mag_yaw_noise{0.05};  ///< [rad]

  // Innovation gates (sigmas). A measurement whose normalized innovation
  // exceeds the gate is rejected, as in EKF2.
  double gps_pos_gate{5.0};
  double gps_vel_gate{5.0};
  double baro_gate{5.0};
  double mag_yaw_gate{3.0};

  /// After this long with a GPS fusion group (position or velocity) fully
  /// rejected, hard-reset that group to the GPS fix (PX4's "reset to GPS"
  /// behaviour). This is what lets the vehicle recover once a transient IMU
  /// fault clears.
  double gps_reset_timeout_s{0.3};

  /// Reset-innovation magnitudes beyond these mark the reset as "large"
  /// (hard estimator failure) for the health monitor.
  double large_reset_vel_ms{10.0};
  double large_reset_pos_m{20.0};

  /// Covariance prediction runs every Nth IMU sample (state prediction runs
  /// every sample). N=2 at 250 Hz matches EKF2's decimated covariance rate.
  int cov_decimation{2};

  /// In-situ invariant checking (core/invariants.h): after each covariance
  /// update, scan P for asymmetry and negative variances and account the
  /// events in EkfStatus, catching transients between the runner's coarser
  /// sampling instants. Off by default (~200 extra compares per update).
  bool strict_invariant_checks{false};

  // --- Optional mitigation (paper §IV-D, "software-based mitigation") ---
  /// When the accelerometer's gravity direction disagrees with the predicted
  /// attitude by more than `att_reset_err_rad` for `att_reset_window_s`
  /// (while |f| is near 1 g), re-align roll/pitch from gravity and re-open
  /// the attitude covariance — EKF2-style attitude reset. Off by default to
  /// preserve the paper-baseline behaviour; `bench_mitigation` flips it on.
  bool enable_attitude_reset{false};
  double att_reset_err_rad{0.44};   ///< ~25 deg
  double att_reset_window_s{0.5};
};

/// Health/diagnostic view of the filter, consumed by the failsafe monitor.
struct EkfStatus {
  double gps_pos_test_ratio{0.0};  ///< last normalized GPS position innovation
  double gps_vel_test_ratio{0.0};
  double baro_test_ratio{0.0};
  double mag_test_ratio{0.0};
  double time_since_gps_accept_s{0.0};
  int gps_reset_count{0};
  /// Resets whose innovation was large (vel > 10 m/s or pos > 20 m): the
  /// signature of a hard estimator failure rather than routine re-anchoring.
  int gps_large_reset_count{0};
  /// Gravity re-alignments performed (only with enable_attitude_reset).
  int attitude_reset_count{0};
  bool numerically_healthy{true};  ///< false once any state/covariance is non-finite

  // In-situ invariant accounting (only with strict_invariant_checks).
  int cov_asymmetry_events{0};         ///< covariance asymmetry beyond 1e-9
  int cov_negative_variance_events{0};  ///< negative diagonal entries seen
  double cov_trace_peak{0.0};          ///< largest trace(P) observed
};

/// Codec field list (telemetry/binary_io.h): the .uvbs payload and its
/// snapshot form.
template <class V>
void Fields(V& v, EkfStatus& s) {
  v(s.gps_pos_test_ratio, s.gps_vel_test_ratio, s.baro_test_ratio, s.mag_test_ratio,
    s.time_since_gps_accept_s, s.gps_reset_count, s.gps_large_reset_count,
    s.attitude_reset_count, s.numerically_healthy, s.cov_asymmetry_events,
    s.cov_negative_variance_events, s.cov_trace_peak);
}

/// Estimated vehicle state exposed to the controllers.
struct NavState {
  math::Quat att;
  math::Vec3 vel;
  math::Vec3 pos;
  math::Vec3 gyro_bias;
  math::Vec3 accel_bias;
  /// Bias-corrected body angular rate from the latest IMU sample; the rate
  /// controller consumes this (PX4 feeds the rate loop from the gyro).
  math::Vec3 body_rate;
};

template <class V>
void Fields(V& v, NavState& s) {
  v(s.att, s.vel, s.pos, s.gyro_bias, s.accel_bias, s.body_rate);
}

/// 15-state error-state EKF.
class Ekf {
 public:
  static constexpr int kN = 15;

  explicit Ekf(const EkfConfig& cfg = {});

  /// Initialize at a known pose at rest (vehicle armed on the pad).
  void InitAtRest(const math::Vec3& pos, double yaw_rad);

  /// IMU-driven prediction. Must be called at a fixed rate with interval dt.
  void PredictImu(const sensors::ImuSample& imu, double dt);

  /// Measurement updates. Each applies sequential scalar fusion with gating.
  void FuseGps(const sensors::GpsSample& gps);
  void FuseBaro(const sensors::BaroSample& baro);
  void FuseMag(const sensors::MagSample& mag);

  const NavState& state() const { return nav_; }
  const EkfStatus& status() const { return status_; }
  const EkfConfig& config() const { return cfg_; }

  /// Covariance access (tests, ablation benches).
  const math::Matrix<kN, kN>& covariance() const { return P_; }

  /// 1-sigma horizontal position uncertainty [m].
  double HorizontalPosStd() const;

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Ekf& x) {
    v(x.nav_, x.P_, x.status_, x.last_accel_corrected_, x.cov_step_counter_, x.time_,
      x.last_gps_accept_time_, x.last_pos_axis_accept_, x.last_vel_axis_accept_,
      x.gravity_disagreement_s_);
  }

 private:
  /// Inputs of one covariance-propagation step, produced by the nominal
  /// prediction when the (decimated) covariance step is due.
  struct CovInputs {
    double cdt{0.0};      ///< accumulated dt since the last covariance step
    math::Mat3 B_vth;     ///< d(dv)/d(dtheta) block of F
    math::Mat3 B_vba;     ///< d(dv)/d(db_a) block of F
    math::Mat3 B_thth;    ///< d(dtheta)/d(dtheta) block of F
  };

  // PredictImu is PredictNominal followed, when the covariance step is due,
  // by PropagateCovariance and FinishCovariance.

  /// Nominal-state propagation, attitude-reset monitoring and the covariance
  /// decimation decision. Returns the covariance inputs when this step must
  /// propagate P (and resets the decimation counter); nullopt otherwise.
  std::optional<CovInputs> PredictNominal(const sensors::ImuSample& imu, double dt);

  /// P <- F P Fᵀ over the fixed sparsity pattern (the campaign's single
  /// hottest loop).
  void PropagateCovariance(const CovInputs& in);

  /// Additive process noise, symmetrization and the numerics check that
  /// close a covariance-propagation step.
  void FinishCovariance(const CovInputs& in);

  /// Fuse scalar measurement z = h + v with Jacobian row H and variance r.
  /// Returns the normalized innovation ratio; applies the update when the
  /// ratio passes `gate`.
  double FuseScalar(const math::VecN<kN>& H, double innovation, double r, double gate);

  /// Fold the accumulated error state into the nominal state and zero it.
  void InjectErrorState(const math::VecN<kN>& dx);

  /// Mitigation: gravity-disagreement monitoring and attitude re-alignment.
  void MaybeResetAttitude(const math::Vec3& accel_meas, double dt);

  /// `covariance_changed` lets callers on P-untouched paths (decimated
  /// prediction steps) skip the 225-entry finiteness scan.
  void CheckNumerics(bool covariance_changed = true);

  EkfConfig cfg_;
  NavState nav_;
  math::Matrix<kN, kN> P_;
  EkfStatus status_;
  math::Vec3 last_accel_corrected_;  ///< bias-corrected accel of last predict
  int cov_step_counter_{0};
  double time_{0.0};
  double last_gps_accept_time_{0.0};
  double last_pos_axis_accept_[3]{};
  double last_vel_axis_accept_[3]{};
  double gravity_disagreement_s_{0.0};
};

}  // namespace uavres::estimation
