#include "uspace/fleet_experiment.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <utility>

#include "core/scheduler.h"
#include "math/geo.h"
#include "telemetry/metrics_registry.h"

namespace uavres::uspace {

using core::DroneSpec;
using core::FleetExperimentSpec;
using core::FleetScenario;

std::vector<DroneSpec> BuildFleetScenario(const FleetExperimentSpec& spec) {
  if (spec.scenario == FleetScenario::kConvoy) {
    return BuildConvoyScenario(spec.num_drones, spec.lane_spacing_m,
                               spec.speed_kmh, spec.leg_length_m);
  }

  // Valencia: tile the paper's 10 missions east in replicas of 10 until the
  // fleet has num_drones pads. Replica r shifts every home east by
  // r * kValenciaTileOffsetM through the shared projection, so tiles keep
  // the scenario's exact per-mission geometry without ever interacting.
  const std::vector<DroneSpec>& base = core::SharedValenciaScenario();
  const math::LocalProjection proj(core::ScenarioOrigin());
  std::vector<DroneSpec> fleet;
  fleet.reserve(static_cast<std::size_t>(std::max(spec.num_drones, 0)));
  for (int i = 0; i < spec.num_drones; ++i) {
    const int replica = i / static_cast<int>(base.size());
    const int mission = i % static_cast<int>(base.size());
    DroneSpec s = base[static_cast<std::size_t>(mission)];
    if (replica > 0) {
      math::Vec3 home = proj.ToNed(s.home_geo);
      home.y += replica * kValenciaTileOffsetM;
      s.home_geo = proj.ToGeo(home);
      s.name += '#';
      s.name += std::to_string(replica);
      s.plan.name = s.name;
    }
    fleet.push_back(std::move(s));
  }
  return fleet;
}

FleetRunConfig MakeFleetRunConfig(const FleetExperimentSpec& spec,
                                  const FleetExecutionKnobs& knobs) {
  FleetRunConfig cfg;
  cfg.tracking_interval_s = spec.tracking_interval_s;
  cfg.extra_time_s = spec.extra_time_s;
  cfg.link.drop_probability = spec.drop_probability;
  cfg.link.delay_s = spec.link_delay_s;
  cfg.fault = spec.fault;
  cfg.faulted_drone = spec.faulted_drone;
  cfg.recovery = spec.recovery;
  cfg.relaunch_horizon_s = spec.relaunch_horizon_s;
  cfg.num_threads = knobs.num_threads;
  return cfg;
}

namespace {

/// Union-find over drone ids for the conflict-cascade component size.
struct UnionFind {
  std::vector<int> parent;

  explicit UnionFind(int n) : parent(static_cast<std::size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }

  int Find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }

  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent[static_cast<std::size_t>(b)] = a;
  }
};

}  // namespace

telemetry::FleetRecord ToFleetRecord(const FleetExperimentSpec& spec,
                                     const FleetRunOutput& out) {
  telemetry::FleetRecord r;
  r.num_drones = spec.num_drones;
  r.sim_time_s = out.sim_time_s;

  r.drones.reserve(out.drones.size());
  for (const FleetDroneResult& d : out.drones) {
    telemetry::FleetDroneRecord dr;
    dr.drone_id = d.drone_id;
    dr.name = d.name;
    dr.outcome = static_cast<std::int32_t>(d.outcome);
    dr.flight_duration_s = d.flight_duration_s;
    dr.launch_time_s = d.launch_time_s;
    r.drones.push_back(std::move(dr));
  }

  r.events.reserve(out.events.size());
  for (const ConflictEvent& e : out.events) {
    telemetry::FleetConflictRecord er;
    er.drone_a = e.drone_a;
    er.drone_b = e.drone_b;
    er.start_time = e.start_time;
    er.end_time = e.end_time;
    er.min_separation_m = e.min_separation_m;
    er.severity = static_cast<std::int32_t>(e.severity);
    r.events.push_back(er);
  }

  r.conflicts = out.conflicts.conflicts;
  r.alerts = out.conflicts.alerts;
  r.instants_in_conflict = out.conflicts.instants_in_conflict;
  r.min_separation_m = out.conflicts.min_separation_m;

  // Cascade: largest connected component of the conflict graph (alerts
  // included — an alert already means the inner safety volumes overlapped),
  // and the count of conflict-severity events not touching the faulted
  // drone — the "one bad flight degrades healthy traffic" signal.
  if (!out.events.empty()) {
    int max_id = 0;
    for (const ConflictEvent& e : out.events)
      max_id = std::max({max_id, e.drone_a, e.drone_b});
    UnionFind uf(max_id + 1);
    std::vector<bool> involved(static_cast<std::size_t>(max_id + 1), false);
    for (const ConflictEvent& e : out.events) {
      uf.Union(e.drone_a, e.drone_b);
      involved[static_cast<std::size_t>(e.drone_a)] = true;
      involved[static_cast<std::size_t>(e.drone_b)] = true;
    }
    std::vector<int> component_size(static_cast<std::size_t>(max_id + 1), 0);
    for (int id = 0; id <= max_id; ++id) {
      if (!involved[static_cast<std::size_t>(id)]) continue;
      const int root = uf.Find(id);
      r.cascade_size = std::max(r.cascade_size,
                                ++component_size[static_cast<std::size_t>(root)]);
    }
    if (spec.fault) {
      for (const ConflictEvent& e : out.events) {
        if (e.severity != ConflictSeverity::kConflict) continue;
        if (e.drone_a != spec.faulted_drone && e.drone_b != spec.faulted_drone)
          ++r.secondary_conflicts;
      }
    }
  }

  // Min-separation distribution over tracking instants.
  if (!out.instant_min_separation.empty()) {
    std::vector<double> sorted = out.instant_min_separation;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    r.separation_samples = static_cast<std::int32_t>(n);
    r.separation_p5_m = sorted[(n - 1) * 5 / 100];
    r.separation_p50_m = sorted[(n - 1) / 2];
  }

  r.reports_published = out.reports_published;
  r.reports_dropped = out.reports_dropped;
  r.reports_quarantined = out.reports_quarantined;
  r.missions_completed = out.missions_completed;
  r.relaunches = out.relaunches;
  r.throughput_missions_per_hour = out.throughput_missions_per_hour;
  return r;
}

telemetry::FleetRecord RunFleetExperiment(const FleetExperimentSpec& spec,
                                          const FleetExecutionKnobs& knobs) {
  const std::vector<DroneSpec> fleet = BuildFleetScenario(spec);
  FleetRunner runner(MakeFleetRunConfig(spec, knobs));
  return ToFleetRecord(spec, runner.Run(fleet, spec.seed_base));
}

FleetCampaign::FleetCampaign(const FleetCampaignConfig& cfg)
    : cfg_(cfg), store_(cfg.cache_dir) {}

std::vector<FleetCampaign::Result> FleetCampaign::Run(
    const std::vector<core::FleetExperimentSpec>& specs) {
  std::vector<Result> results(specs.size());
  if (specs.empty()) return results;

  // knobs.num_threads is spent once: on the fleet runner for one spec, or on
  // the spec grid for several, each fleet then single-threaded, matching the
  // campaign's outer-parallel shape (results are byte-identical either way —
  // the runner's contract).
  FleetExecutionKnobs inner = cfg_.knobs;
  core::SchedulerOptions opts;
  opts.num_threads = cfg_.knobs.num_threads;
  if (specs.size() > 1) inner.num_threads = 1;

  core::ParallelFor(
      specs.size(),
      [&](std::size_t i) {
        const std::uint64_t key = core::FleetCacheKey(specs[i]);
        if (store_.enabled()) {
          if (auto cached = store_.LoadFleet(key)) {
            results[i].record = std::move(*cached);
            results[i].from_cache = true;
            UAVRES_COUNT("uspace.fleet.cache_hits");
            return;
          }
        }
        results[i].record = RunFleetExperiment(specs[i], inner);
        if (store_.enabled()) store_.Store(key, results[i].record);
      },
      opts);
  return results;
}

}  // namespace uavres::uspace
