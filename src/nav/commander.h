// Flight-mode state machine (PX4 "commander" analogue).
//
// Drives the flight through Takeoff -> Mission -> Land and handles the
// failsafe transition requested by the HealthMonitor: hold position and
// descend, which is PX4's default land-on-failsafe action.
#pragma once

#include <optional>

#include "control/position_controller.h"
#include "estimation/ekf.h"
#include "nav/mission.h"
#include "nav/trajectory_gen.h"
#include "telemetry/binary_io.h"
#include "telemetry/flight_log.h"

namespace uavres::nav {

/// Flight modes.
enum class FlightMode {
  kStandby,
  kTakeoff,
  kMission,
  kLand,
  kFailsafeReturn,  ///< flying home after a failsafe (RTL action)
  kFailsafeLand,
  kLanded,
};

/// What the commander does when the health monitor declares failsafe.
/// PX4's default is Return-To-Launch; the paper's flights end where the
/// failsafe triggers, so this study's default is an in-place descent.
enum class FailsafeAction {
  kLand,            ///< hold position, descend (study default)
  kReturnToLaunch,  ///< fly back to the home point, then descend
};

const char* ToString(FlightMode m);

/// Commander tuning.
struct CommanderConfig {
  double takeoff_speed_ms{2.0};
  double land_speed_ms{1.0};
  double failsafe_descent_ms{1.2};
  FailsafeAction failsafe_action{FailsafeAction::kLand};
  double rtl_speed_ms{4.0};         ///< cruise speed while returning home
  double rtl_accept_m{3.0};         ///< distance to home that starts descent
  double takeoff_accept_m{1.0};     ///< altitude error to finish takeoff
  double land_alt_accept_m{0.8};    ///< estimated altitude that counts as "down"
  double land_confirm_s{1.0};       ///< low-and-slow duration before Landed
};

/// Mission executive: produces the outer-loop setpoint for every mode.
class Commander {
 public:
  Commander(const MissionPlan& plan, const CommanderConfig& cfg = {},
            telemetry::FlightLog* log = nullptr);

  /// One control step. `failsafe` latches the failsafe descent.
  control::PositionSetpoint Update(const estimation::NavState& est, bool failsafe, double t,
                                   double dt);

  FlightMode mode() const { return mode_; }
  bool landed() const { return mode_ == FlightMode::kLanded; }
  bool failsafe_engaged() const { return failsafe_engaged_; }

  /// True when the vehicle finished the nominal sequence: completed the whole
  /// mission path and landed from Land mode without a failsafe.
  bool MissionCompleted() const { return landed_from_land_ && !failsafe_engaged_; }

  /// Time the vehicle entered Landed mode (if it has).
  std::optional<double> landed_time() const { return landed_time_; }

  const TrajectoryGenerator& trajectory() const { return traj_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Commander& x) {
    v(x.traj_, telemetry::InRange{x.mode_, FlightMode::kStandby, FlightMode::kLanded},
      x.failsafe_engaged_, x.landed_from_land_, x.landed_time_, x.hold_pos_, x.descent_z_,
      x.low_and_slow_s_, x.mission_yaw_);
  }

 private:
  void SwitchMode(FlightMode m, double t);

  MissionPlan plan_;
  CommanderConfig cfg_;
  telemetry::FlightLog* log_;  // optional, not owned
  TrajectoryGenerator traj_;
  FlightMode mode_{FlightMode::kStandby};

  bool failsafe_engaged_{false};
  bool landed_from_land_{false};
  std::optional<double> landed_time_;

  math::Vec3 hold_pos_;        ///< xy hold target for Land / FailsafeLand
  double descent_z_{0.0};      ///< ramped z setpoint while descending
  double low_and_slow_s_{0.0};
  double mission_yaw_{0.0};
};

}  // namespace uavres::nav
