// Trajectory setpoint generator ("carrot on a path").
//
// Moves a virtual target along the mission polyline at cruise speed. The
// carrot never runs more than a lookahead ahead of the vehicle's own
// progress, so a disturbed vehicle (e.g. under fault injection) resumes the
// path instead of chasing a distant target.
#pragma once

#include "control/position_controller.h"
#include "nav/mission.h"

namespace uavres::nav {

/// Generates position setpoints along a mission path.
class TrajectoryGenerator {
 public:
  /// `lookahead_m`: how far the carrot may lead the vehicle's path progress.
  explicit TrajectoryGenerator(const MissionPlan& plan, double lookahead_m = 6.0);

  /// Advance the carrot and produce the setpoint for this control step.
  control::PositionSetpoint Update(const math::Vec3& vehicle_pos, double dt);

  /// True once the carrot has consumed the whole path.
  bool PathDone() const { return s_ >= total_length_; }

  /// Final waypoint of the plan.
  math::Vec3 FinalWaypoint() const { return plan_.waypoints.back(); }

  /// Carrot's current arc-length progress [m].
  double Progress() const { return s_; }

  double TotalLength() const { return total_length_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, TrajectoryGenerator& x) {
    v(x.s_, x.last_yaw_);
  }

 private:
  /// Point on the polyline at arc length s.
  math::Vec3 PointAt(double s) const;

  /// Unit tangent of the polyline at arc length s.
  math::Vec3 TangentAt(double s) const;

  /// Arc length of the vehicle's closest point on the polyline.
  double ProjectOnPath(const math::Vec3& p) const;

  MissionPlan plan_;
  std::vector<double> cumulative_;  ///< arc length at each waypoint
  double total_length_{0.0};
  double lookahead_{6.0};
  double s_{0.0};
  double last_yaw_{0.0};
};

}  // namespace uavres::nav
