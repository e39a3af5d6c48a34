// Ground-truth crash detection.
//
// The simulation harness (not the flight stack) decides whether the vehicle
// physically crashed: hard impact, tipping over on the ground, or a flyaway
// beyond the operating area. The flight controller never sees this signal —
// it matches the role of the external observer in the paper's testbed.
#pragma once

#include <string>

#include "math/num.h"
#include "sim/quadrotor.h"
#include "telemetry/binary_io.h"

namespace uavres::nav {

/// Crash criteria.
struct CrashDetectorConfig {
  double impact_speed_limit_ms{3.0};           ///< vertical speed at touchdown
  double tilt_on_ground_limit_rad{math::DegToRad(60.0)};
  double geofence_horizontal_m{4000.0};        ///< distance from home
  double geofence_altitude_m{150.0};           ///< well above the 60 ft ceiling
};

/// Watches the true vehicle state for crash conditions.
class CrashDetector {
 public:
  explicit CrashDetector(const CrashDetectorConfig& cfg = {}) : cfg_(cfg) {}

  /// Evaluate the current true state. `airborne_since_takeoff` suppresses
  /// checks while the vehicle still sits on the pad.
  void Update(const sim::Quadrotor& quad, const math::Vec3& home, double t,
              bool airborne_since_takeoff);

  bool crashed() const { return crashed_; }
  double crash_time() const { return crash_time_; }
  const std::string& reason() const { return reason_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, CrashDetector& x) {
    v(x.crashed_, x.crash_time_, telemetry::Capped{x.reason_, telemetry::kMaxNameLen},
      x.seen_touchdowns_);
  }

 private:
  void Declare(double t, std::string reason) {
    if (crashed_) return;
    crashed_ = true;
    crash_time_ = t;
    reason_ = std::move(reason);
  }

  CrashDetectorConfig cfg_;
  bool crashed_{false};
  double crash_time_{0.0};
  std::string reason_;
  int seen_touchdowns_{0};
};

}  // namespace uavres::nav
