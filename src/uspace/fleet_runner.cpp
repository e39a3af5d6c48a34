#include "uspace/fleet_runner.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/scheduler.h"
#include "math/geo.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace uavres::uspace {

using core::DroneSpec;
using core::MissionOutcome;

namespace {

/// One flight. `id` doubles as the index into the flights vector;
/// relaunched flights get fresh ids past the initial fleet.
struct Flight {
  int id{0};
  int spec_index{0};  ///< template spec in the scenario fleet
  std::string name;
  std::unique_ptr<uav::Uav> uav;  ///< released once the flight ends
  double launch_t{0.0};
  double deadline{0.0};  ///< per-flight timeout (continuous-traffic mode only)
  bool ended{false};
  MissionOutcome outcome{MissionOutcome::kTimeout};
  double end_time{0.0};
  std::int64_t steps{0};
};

}  // namespace

nav::MissionPlan PlanInSharedFrame(const DroneSpec& spec, const math::Vec3& shared_home) {
  nav::MissionPlan plan = spec.plan;
  plan.home = shared_home;
  for (auto& wp : plan.waypoints) {
    wp.x += shared_home.x;
    wp.y += shared_home.y;
  }
  return plan;
}

FleetRunOutput FleetRunner::Run(const std::vector<DroneSpec>& fleet,
                                std::uint64_t seed_base) const {
  UAVRES_TRACE_SCOPE("uspace/fleet_run");
  const math::LocalProjection proj(core::ScenarioOrigin());
  const bool relaunch = cfg_.relaunch_horizon_s > 0.0;

  Tracker tracker;
  Broker broker(cfg_.link, math::Rng{math::HashCombine(seed_base, 0xB20CE2)});
  broker.Subscribe([&tracker](const TrackReport& r) { tracker.Ingest(r); });
  ConflictDetector detector(&tracker);

  std::vector<Flight> flights;
  std::vector<int> slot_flight;  ///< slot (initial drone index) -> current flight id
  std::int64_t fleet_steps = 0;  ///< control steps the fleet clock has executed
  double dt = 0.0;

  // Launches flight `flights.size()` flying template spec `spec_index` along
  // `plan` (its shared-frame mission): the vehicle joins the fleet clock at
  // the current step count, and its seed is keyed by flight id, so every
  // flight's streams are schedule-independent.
  auto launch = [&](int spec_index, const nav::MissionPlan& plan,
                    const std::optional<core::FaultSpec>& fault, std::string name,
                    double launch_t) -> Flight& {
    const DroneSpec& spec = fleet[static_cast<std::size_t>(spec_index)];
    const int id = static_cast<int>(flights.size());
    uav::UavConfig uav_cfg = uav::MakeUavConfig(spec);
    if (cfg_.uav_config_mutator) cfg_.uav_config_mutator(static_cast<std::size_t>(id), uav_cfg);
    if (cfg_.recovery) uav_cfg.detector.enabled = true;
    const double flight_dt = 1.0 / uav_cfg.control_rate_hz;
    if (id == 0) {
      dt = flight_dt;
    } else if (flight_dt != dt) {
      // One shared clock steps every flight; a second rate would silently
      // mis-step every drone after the first. Fail fast.
      throw std::invalid_argument(
          "FleetRunner: fleet mixes control clocks (drone 0 dt=" + std::to_string(dt) +
          "s, drone " + std::to_string(id) + " dt=" + std::to_string(flight_dt) + "s)");
    }
    const std::uint64_t seed = uav::ExperimentSeed(
        math::HashCombine(seed_base, static_cast<std::uint64_t>(id) + 0x517EULL), id);

    Flight f;
    f.id = id;
    f.spec_index = spec_index;
    f.name = std::move(name);
    f.uav = std::make_unique<uav::Uav>(uav_cfg, plan, fault, seed, fleet_steps);
    f.launch_t = launch_t;

    auto bubble = spec.MakeBubbleParams();
    bubble.tracking_interval_s = cfg_.tracking_interval_s;
    TrackedDrone reg;
    reg.drone_id = id;
    reg.name = f.name;
    reg.bubble = bubble;
    reg.max_speed_ms = bubble.top_speed_ms;
    tracker.Register(reg);
    return flights.emplace_back(std::move(f));
  };

  // --- Launch the initial fleet, one slot per drone. -----------------------
  auto shared_plan = [&](int spec_index) {
    const DroneSpec& spec = fleet[static_cast<std::size_t>(spec_index)];
    return PlanInSharedFrame(spec, proj.ToNed(spec.home_geo));
  };
  double max_expected = 0.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const int index = static_cast<int>(i);
    const nav::MissionPlan plan = shared_plan(index);
    max_expected = std::max(max_expected, plan.ExpectedDuration());
    std::optional<core::FaultSpec> fault;
    if (cfg_.fault && index == cfg_.faulted_drone) fault = *cfg_.fault;
    launch(index, plan, fault, fleet[i].name, 0.0);
    slot_flight.push_back(index);
  }
  if (dt == 0.0) dt = 0.004;

  const double max_time = relaunch
                              ? cfg_.relaunch_horizon_s + max_expected + cfg_.extra_time_s
                              : max_expected + cfg_.extra_time_s;
  for (auto& f : flights) {
    f.deadline = relaunch ? max_expected + cfg_.extra_time_s : max_time;
  }

  int active_flights = static_cast<int>(flights.size());
  int relaunches = 0;
  std::int64_t intervals = 0;
  std::vector<int> slot_end_iter(slot_flight.size(), -1);

  core::SchedulerOptions sched;
  sched.num_threads = cfg_.num_threads;

  // --- Main loop: parallel interval stepping + serial boundary phase. -----
  // `t` is one accumulated clock for the whole fleet: it advances by one
  // `t += dt` per executed control step, and the boundary phase runs at the
  // step that crosses `next_track`.
  double t = 0.0;
  double next_track = cfg_.tracking_interval_s;
  while (t < max_time && (active_flights > 0 || (relaunch && t < cfg_.relaunch_horizon_s))) {
    // Plan this interval: K steps, the K-th crossing the tracking boundary
    // unless max_time truncates the interval first.
    int K = 0;
    bool boundary = false;
    {
      double tp = t;
      while (tp < max_time) {
        tp += dt;
        ++K;
        if (tp >= next_track) {
          boundary = true;
          break;
        }
      }
    }
    if (K == 0) break;

    // Parallel part: each slot's live flight advances up to K control steps,
    // evaluating SimulationRunner's terminal rules against the pre-increment
    // clock. A flight touches only its own state, so any schedule yields
    // identical results.
    core::ParallelFor(
        slot_flight.size(),
        [&](std::size_t s) {
          slot_end_iter[s] = -1;
          Flight& f = flights[static_cast<std::size_t>(slot_flight[s])];
          if (f.ended) return;
          double lt = t;
          for (int k = 0; k < K; ++k) {
            f.uav->Step();
            ++f.steps;
            const uav::TerminalVerdict verdict = uav::EvaluateTerminal(*f.uav, lt);
            if (verdict.ended) {
              f.ended = true;
              f.outcome = verdict.outcome;
              f.end_time = verdict.end_time;
              f.uav.reset();
              slot_end_iter[s] = k;
              return;
            }
            lt += dt;
          }
        },
        sched);
    ++intervals;

    // Serial boundary phase. A fleet with no traffic left stops at the step
    // its last flight ended on; otherwise the whole interval executed.
    bool any_active = false;
    int last_end_iter = -1;
    for (std::size_t s = 0; s < slot_flight.size(); ++s) {
      any_active |= !flights[static_cast<std::size_t>(slot_flight[s])].ended;
      last_end_iter = std::max(last_end_iter, slot_end_iter[s]);
    }
    const int executed = !any_active && !relaunch ? last_end_iter + 1 : K;
    for (int i = 0; i < executed; ++i) t += dt;
    fleet_steps += executed;

    // Count newly-ended flights out (and deregister their tracks, in id
    // order) before any tracker consumer runs. Deregister is idempotent.
    int still_active = 0;
    for (const Flight& f : flights) {
      if (f.ended) {
        tracker.Deregister(f.id);
      } else {
        ++still_active;
      }
    }
    active_flights = still_active;

    if (boundary && executed == K) {
      next_track += cfg_.tracking_interval_s;

      // Per-flight timeout (continuous-traffic mode): a flight that blows
      // its own deadline stops publishing and frees its slot.
      if (relaunch) {
        for (Flight& f : flights) {
          if (f.ended || t < f.launch_t + f.deadline) continue;
          f.ended = true;
          f.outcome = MissionOutcome::kTimeout;
          f.end_time = t;
          f.uav.reset();
          tracker.Deregister(f.id);
          --active_flights;
        }
      }

      // Publish self-reported (estimated) states in flight-id order: the
      // broker's RNG stream consumption order is part of the contract.
      for (const Flight& f : flights) {
        if (f.ended) continue;
        TrackReport report;
        report.drone_id = f.id;
        report.t = t;
        report.pos = f.uav->ekf().state().pos;
        report.airspeed_ms = f.uav->ekf().state().vel.Norm();
        broker.Publish(report, t);
      }
      broker.Deliver(t);
      detector.Step(t);

      // Continuous traffic: relaunch ended slots with fresh flights while
      // the relaunch horizon is open. Serial and in slot order, so ids and
      // seeds are schedule-independent.
      if (relaunch && t < cfg_.relaunch_horizon_s) {
        for (int& current : slot_flight) {
          if (!flights[static_cast<std::size_t>(current)].ended) continue;
          const int spec_index = flights[static_cast<std::size_t>(current)].spec_index;
          const int id = static_cast<int>(flights.size());
          const nav::MissionPlan plan = shared_plan(spec_index);
          Flight& f = launch(spec_index, plan, std::nullopt,
                             fleet[static_cast<std::size_t>(spec_index)].name + "#" +
                                 std::to_string(id),
                             t);
          f.deadline = plan.ExpectedDuration() + cfg_.extra_time_s;
          current = id;
          ++active_flights;
          ++relaunches;
          UAVRES_COUNT("uspace.fleet.relaunches");
        }
      }
    }

    if (executed < K) break;  // every flight ended mid-interval
  }

  // --- Collect results. ----------------------------------------------------
  FleetRunOutput out;
  std::int64_t drone_steps = 0;
  for (const Flight& f : flights) drone_steps += f.steps;
  UAVRES_COUNT_N("uspace.fleet.drone_steps", drone_steps);
  UAVRES_COUNT_N("uspace.fleet.intervals", intervals);

  out.drones.reserve(flights.size());
  for (const Flight& f : flights) {
    FleetDroneResult r;
    r.drone_id = f.id;
    r.name = f.name;
    r.launch_time_s = f.launch_t;
    if (f.ended) {
      r.outcome = f.outcome;
      r.flight_duration_s = f.end_time - f.launch_t;
    } else {
      r.outcome = MissionOutcome::kTimeout;
      r.flight_duration_s = t - f.launch_t;
    }
    if (r.outcome == MissionOutcome::kCompleted) ++out.missions_completed;
    out.drones.push_back(std::move(r));
  }
  out.conflicts = detector.stats();
  out.events = detector.events();
  out.instant_min_separation = detector.instant_min_separation();
  out.reports_published = broker.published();
  out.reports_dropped = broker.dropped();
  out.reports_quarantined = tracker.total_quarantined();
  out.sim_time_s = t;
  out.relaunches = relaunches;
  out.throughput_missions_per_hour =
      t > 0.0 ? out.missions_completed / (t / 3600.0) : 0.0;
  return out;
}

std::vector<DroneSpec> BuildConvoyScenario(int num_drones, double lane_spacing_m,
                                           double speed_kmh, double leg_length_m) {
  std::vector<DroneSpec> fleet;
  fleet.reserve(static_cast<std::size_t>(num_drones));
  const math::LocalProjection proj(core::ScenarioOrigin());
  for (int i = 0; i < num_drones; ++i) {
    DroneSpec s;
    s.name = "CONVOY-" + std::to_string(i + 1);
    s.cruise_speed_kmh = speed_kmh;
    s.mass_kg = 1.5;
    s.wingspan_m = 0.55;
    s.safety_distance_m = 1.5;
    s.has_turning_points = false;
    // Lanes offset east, staggered 25 m along track so nobody flies abreast.
    // Place pads through the projection's own inverse so home positions
    // round-trip exactly: proj.ToNed(s.home_geo) == (north0, east, 0).
    const double east = i * lane_spacing_m;
    const double north0 = -i * 25.0;
    s.home_geo = proj.ToGeo({north0, east, 0.0});
    s.plan.name = s.name;
    s.plan.home = math::Vec3::Zero();
    s.plan.cruise_speed_ms = math::KmhToMs(speed_kmh);
    s.plan.takeoff_altitude_m = 15.0;
    s.plan.acceptance_radius_m = 2.0;
    s.plan.waypoints = {{0.0, 0.0, -15.0}, {leg_length_m, 0.0, -15.0}};
    fleet.push_back(std::move(s));
  }
  return fleet;
}

}  // namespace uavres::uspace
