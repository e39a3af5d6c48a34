// Multi-UAV execution in a shared U-space frame (DESIGN.md §18).
//
// FleetRunner flies every drone of a fleet as its own uav::Uav and
// publishes each drone's *self-reported* (EKF-estimated) position through
// the broker at the tracking cadence — U-space only sees what drones
// report, so IMU faults corrupt the tracking picture too — into the tracker
// and conflict detector. This is the conflict-rate experiment surface of
// the paper's research line (their prior SAFECOMP'22 work measured drone
// conflict rates under faulty conditions).
//
// Drones couple only through the broker/tracker at the tracking cadence,
// never inside a control step, so every live flight advances one full
// tracking interval independently on the shared-cursor scheduler. A serial
// boundary phase then publishes tracking reports in flight-id order,
// delivers the broker queue, steps the conflict detector and (in
// continuous-traffic mode) relaunches ended slots in slot order.
//
// Determinism contract: a fleet run's output is byte-identical across
// every thread count — flights never share mutable state inside an
// interval, the boundary phase is serial and ordered, and results land in
// index-addressed slots. tests/uspace/fleet_runner_test.cpp and the fleet
// golden lock this down.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/fault_model.h"
#include "core/metrics.h"
#include "core/scenario.h"
#include "uav/uav_config.h"
#include "uspace/broker.h"
#include "uspace/conflict.h"
#include "uspace/tracking.h"

namespace uavres::uspace {

/// Configuration of one fleet run. The first block pins down the result;
/// the second is execution strategy and MUST NOT change results (enforced
/// by tests); the third is continuous-traffic mode.
struct FleetRunConfig {
  double tracking_interval_s{0.5};
  double extra_time_s{180.0};
  LinkQuality link;                       ///< drone -> tracker impairments
  std::optional<core::FaultSpec> fault;   ///< injected into one drone
  int faulted_drone{0};                   ///< index into the fleet
  bool recovery{false};                   ///< detector + failover on all drones
  /// Optional per-flight config hook (flight id, config). Applied after the
  /// defaults, before recovery; test-only knobs live here.
  std::function<void(std::size_t, uav::UavConfig&)> uav_config_mutator;

  // Execution strategy — result-neutral by contract.
  int num_threads{0};  ///< 0 = hardware concurrency

  /// > 0: relaunch a fresh flight in a drone's slot whenever its flight
  /// ends before this sim time (continuous traffic; the airspace-throughput
  /// mode). 0 (default): every drone flies once.
  double relaunch_horizon_s{0.0};
};

/// Per-flight outcome; relaunched flights carry their launch time.
struct FleetDroneResult {
  int drone_id{0};
  std::string name;
  core::MissionOutcome outcome{core::MissionOutcome::kCompleted};
  double flight_duration_s{0.0};
  double launch_time_s{0.0};
};

/// Full output of a fleet run: per-drone outcomes plus the systemic
/// airspace picture.
struct FleetRunOutput {
  std::vector<FleetDroneResult> drones;
  ConflictStats conflicts;
  std::vector<ConflictEvent> events;
  /// Per-tracking-instant closest evaluated pair (min-separation
  /// distribution source).
  std::vector<double> instant_min_separation;
  int reports_published{0};
  int reports_dropped{0};
  int reports_quarantined{0};
  double sim_time_s{0.0};
  int relaunches{0};
  int missions_completed{0};
  double throughput_missions_per_hour{0.0};
};

/// Runs a fleet, one uav::Uav per flight, in the scenario's shared frame.
class FleetRunner {
 public:
  explicit FleetRunner(const FleetRunConfig& cfg = {}) : cfg_(cfg) {}

  /// `fleet` uses each spec's `home_geo` to place it in the shared frame.
  /// Throws std::invalid_argument on a fleet mixing control clocks.
  FleetRunOutput Run(const std::vector<core::DroneSpec>& fleet,
                     std::uint64_t seed_base) const;

 private:
  FleetRunConfig cfg_;
};

/// Translate a spec's local mission plan into the shared scenario frame
/// (waypoints and home shifted by the spec's projected pad position).
nav::MissionPlan PlanInSharedFrame(const core::DroneSpec& spec,
                                   const math::Vec3& shared_home);

/// A scenario purpose-built for conflict studies: drones flying parallel
/// corridors `lane_spacing_m` apart at the same speed, staggered along
/// track. Gold runs keep separation; a faulted drone deviating laterally
/// enters its neighbours' bubbles.
std::vector<core::DroneSpec> BuildConvoyScenario(int num_drones = 3,
                                                 double lane_spacing_m = 30.0,
                                                 double speed_kmh = 12.0,
                                                 double leg_length_m = 1200.0);

}  // namespace uavres::uspace
