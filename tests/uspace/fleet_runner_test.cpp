// FleetRunner contract tests (fleet_runner.h):
//   1. fleet behaviour: conflicts emerge from a faulted drone, healthy
//      drones are unaffected, lossy links are counted, wild reports are
//      quarantined;
//   2. the output is byte-identical across thread counts;
//   3. continuous-traffic mode actually produces traffic, deterministically;
//   4. fleet experiments cache and dedupe through the ResultStore.
#include "uspace/fleet_runner.h"

#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "math/geo.h"
#include "uspace/fleet_experiment.h"

namespace uavres::uspace {
namespace {

core::FaultSpec ConvoyFault() {
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.start_time_s = 30.0;
  fault.duration_s = 30.0;
  return fault;
}

/// A short convoy that still exhibits the interesting dynamics: the faulted
/// drone deviates into its neighbours' lanes mid-flight.
std::vector<core::DroneSpec> ShortConvoy(int drones = 5) {
  return BuildConvoyScenario(drones, 30.0, 12.0, 600.0);
}

void ExpectIdenticalFleetOutputs(const FleetRunOutput& a, const FleetRunOutput& b,
                                 const std::string& what) {
  ASSERT_EQ(a.drones.size(), b.drones.size()) << what;
  for (std::size_t i = 0; i < a.drones.size(); ++i) {
    EXPECT_EQ(a.drones[i].drone_id, b.drones[i].drone_id) << what;
    EXPECT_EQ(a.drones[i].name, b.drones[i].name) << what;
    EXPECT_EQ(a.drones[i].outcome, b.drones[i].outcome) << what << " drone " << i;
    EXPECT_EQ(a.drones[i].flight_duration_s, b.drones[i].flight_duration_s)
        << what << " drone " << i;
    EXPECT_EQ(a.drones[i].launch_time_s, b.drones[i].launch_time_s)
        << what << " drone " << i;
  }
  EXPECT_EQ(a.conflicts.conflicts, b.conflicts.conflicts) << what;
  EXPECT_EQ(a.conflicts.alerts, b.conflicts.alerts) << what;
  EXPECT_EQ(a.conflicts.instants_in_conflict, b.conflicts.instants_in_conflict) << what;
  EXPECT_EQ(a.conflicts.min_separation_m, b.conflicts.min_separation_m) << what;
  ASSERT_EQ(a.events.size(), b.events.size()) << what;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].drone_a, b.events[i].drone_a) << what;
    EXPECT_EQ(a.events[i].drone_b, b.events[i].drone_b) << what;
    EXPECT_EQ(a.events[i].start_time, b.events[i].start_time) << what;
    EXPECT_EQ(a.events[i].end_time, b.events[i].end_time) << what;
    EXPECT_EQ(a.events[i].min_separation_m, b.events[i].min_separation_m) << what;
  }
  ASSERT_EQ(a.instant_min_separation.size(), b.instant_min_separation.size()) << what;
  for (std::size_t i = 0; i < a.instant_min_separation.size(); ++i) {
    EXPECT_EQ(a.instant_min_separation[i], b.instant_min_separation[i]) << what;
  }
  EXPECT_EQ(a.reports_published, b.reports_published) << what;
  EXPECT_EQ(a.reports_dropped, b.reports_dropped) << what;
  EXPECT_EQ(a.reports_quarantined, b.reports_quarantined) << what;
  EXPECT_EQ(a.sim_time_s, b.sim_time_s) << what;
  EXPECT_EQ(a.relaunches, b.relaunches) << what;
  EXPECT_EQ(a.missions_completed, b.missions_completed) << what;
  EXPECT_EQ(a.throughput_missions_per_hour, b.throughput_missions_per_hour) << what;
}

TEST(ConvoyScenario, GeometryAsSpecified) {
  const auto fleet = BuildConvoyScenario(3, 30.0, 12.0, 1200.0);
  ASSERT_EQ(fleet.size(), 3u);
  for (const auto& s : fleet) {
    EXPECT_TRUE(s.plan.Valid());
    EXPECT_DOUBLE_EQ(s.cruise_speed_kmh, 12.0);
    EXPECT_NEAR(s.plan.PathLength(), 1200.0, 1e-9);
  }
  // Lane spacing in the shared frame.
  const math::LocalProjection proj(core::ScenarioOrigin());
  const auto h0 = proj.ToNed(fleet[0].home_geo);
  const auto h1 = proj.ToNed(fleet[1].home_geo);
  EXPECT_NEAR(std::abs(h1.y - h0.y), 30.0, 0.5);
}

TEST(FleetRunner, FaultFreeConvoyCompletesWithoutConflicts) {
  const auto fleet = BuildConvoyScenario(2, 20.0, 12.0, 600.0);
  const FleetRunner runner;
  const auto out = runner.Run(fleet, 2024);
  ASSERT_EQ(out.drones.size(), 2u);
  for (const auto& d : out.drones) {
    EXPECT_EQ(d.outcome, core::MissionOutcome::kCompleted) << d.name;
  }
  EXPECT_EQ(out.conflicts.conflicts, 0);
  EXPECT_EQ(out.conflicts.alerts, 0);
  EXPECT_GT(out.reports_published, 100);
  EXPECT_EQ(out.reports_dropped, 0);
}

TEST(FleetRunner, FaultOnOneDroneLeavesOthersUnaffected) {
  const auto fleet = BuildConvoyScenario(2, 40.0, 12.0, 600.0);
  FleetRunConfig cfg;
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kGyrometer;
  fault.type = core::FaultType::kMax;
  fault.duration_s = 5.0;
  cfg.fault = fault;
  cfg.faulted_drone = 0;
  const auto out = FleetRunner(cfg).Run(fleet, 2024);
  EXPECT_NE(out.drones[0].outcome, core::MissionOutcome::kCompleted);
  EXPECT_LT(out.drones[0].flight_duration_s, 120.0);
  EXPECT_EQ(out.drones[1].outcome, core::MissionOutcome::kCompleted);
}

TEST(FleetRunner, LateralFaultCreatesConflict) {
  // Tight lanes: a hard accelerometer bias on the middle drone produces a
  // loss of separation with a neighbour (airspace-level fault impact).
  const auto fleet = BuildConvoyScenario(3, 15.0, 12.0, 1200.0);
  FleetRunConfig cfg;
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.duration_s = 30.0;
  cfg.fault = fault;
  cfg.faulted_drone = 1;
  const auto out = FleetRunner(cfg).Run(fleet, 2024);
  EXPECT_GE(out.conflicts.conflicts, 1);
  EXPECT_LT(out.conflicts.min_separation_m, 15.0);
}

TEST(FleetRunner, DroppedReportsAreCounted) {
  const auto fleet = BuildConvoyScenario(2, 40.0, 12.0, 400.0);
  FleetRunConfig cfg;
  cfg.link.drop_probability = 0.25;
  const auto out = FleetRunner(cfg).Run(fleet, 2024);
  EXPECT_GT(out.reports_dropped, 0);
  EXPECT_NEAR(static_cast<double>(out.reports_dropped) / out.reports_published, 0.25,
              0.08);
  // Lossy tracking does not affect flight outcomes (tracking is monitoring,
  // not control).
  for (const auto& d : out.drones) {
    EXPECT_EQ(d.outcome, core::MissionOutcome::kCompleted);
  }
}

TEST(FleetRunner, DeterministicAcrossRuns) {
  const auto fleet = BuildConvoyScenario(2, 20.0, 12.0, 400.0);
  FleetRunConfig cfg;
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kImu;
  fault.type = core::FaultType::kRandom;
  fault.duration_s = 5.0;
  cfg.fault = fault;
  const auto a = FleetRunner(cfg).Run(fleet, 7);
  const auto b = FleetRunner(cfg).Run(fleet, 7);
  ASSERT_EQ(a.drones.size(), b.drones.size());
  for (std::size_t i = 0; i < a.drones.size(); ++i) {
    EXPECT_EQ(a.drones[i].outcome, b.drones[i].outcome);
    EXPECT_DOUBLE_EQ(a.drones[i].flight_duration_s, b.drones[i].flight_duration_s);
  }
  EXPECT_EQ(a.conflicts.conflicts, b.conflicts.conflicts);
  EXPECT_DOUBLE_EQ(a.conflicts.min_separation_m, b.conflicts.min_separation_m);
}

TEST(FleetRunner, QuarantineEngagesUnderWildReports) {
  // An IMU-random fault makes the EKF (and hence the self-reports) jump;
  // the tracker's plausibility filter must quarantine some reports.
  const auto fleet = BuildConvoyScenario(2, 40.0, 12.0, 600.0);
  FleetRunConfig cfg;
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.duration_s = 30.0;
  cfg.fault = fault;
  cfg.faulted_drone = 0;
  const auto out = FleetRunner(cfg).Run(fleet, 2024);
  EXPECT_GT(out.reports_quarantined, 0);
}

TEST(FleetRunner, ByteIdenticalAcrossThreadsAndBatchSizes) {
  const auto fleet = ShortConvoy(6);
  FleetRunConfig base;
  base.fault = ConvoyFault();
  base.faulted_drone = 3;

  FleetRunConfig ref_cfg = base;
  ref_cfg.num_threads = 1;
  const auto reference = FleetRunner(ref_cfg).Run(fleet, 2024);

  for (int threads : {2, 8}) {
    FleetRunConfig cfg = base;
    cfg.num_threads = threads;
    const auto out = FleetRunner(cfg).Run(fleet, 2024);
    ExpectIdenticalFleetOutputs(reference, out, "threads=" + std::to_string(threads));
  }
}

TEST(FleetRunner, RejectsFleetMixingControlClocks) {
  FleetRunConfig cfg;
  cfg.uav_config_mutator = [](std::size_t i, uav::UavConfig& c) {
    if (i == 1) c.control_rate_hz = 2.0 * c.control_rate_hz;
  };
  EXPECT_THROW(FleetRunner(cfg).Run(ShortConvoy(3), 1), std::invalid_argument);
}

TEST(FleetRunner, RelaunchModeProducesContinuousTraffic) {
  const auto fleet = ShortConvoy(3);
  FleetRunConfig cfg;
  cfg.relaunch_horizon_s = 600.0;
  cfg.num_threads = 1;
  const auto out = FleetRunner(cfg).Run(fleet, 2024);

  EXPECT_GT(out.relaunches, 0);
  EXPECT_GT(out.missions_completed, static_cast<int>(fleet.size()));
  EXPECT_GT(out.throughput_missions_per_hour, 0.0);
  ASSERT_GT(out.drones.size(), fleet.size());
  for (std::size_t i = 0; i < out.drones.size(); ++i) {
    if (i < fleet.size()) {
      EXPECT_EQ(out.drones[i].launch_time_s, 0.0);
    } else {
      EXPECT_GT(out.drones[i].launch_time_s, 0.0);  // a relaunched flight
    }
  }

  // Continuous traffic stays deterministic across thread counts too.
  FleetRunConfig cfg2 = cfg;
  cfg2.num_threads = 4;
  ExpectIdenticalFleetOutputs(out, FleetRunner(cfg2).Run(fleet, 2024),
                              "relaunch threads=4");
}

TEST(FleetExperiment, ConvoyHomesRoundTripThroughProjection) {
  // Satellite regression: convoy pads are placed via LocalProjection::ToGeo,
  // so projecting them back yields the intended lane geometry exactly
  // (the old hand-rolled degree conversion was ~0.3% off).
  const auto fleet = BuildConvoyScenario(4, 30.0, 12.0, 600.0);
  const math::LocalProjection proj(core::ScenarioOrigin());
  for (int i = 0; i < 4; ++i) {
    const math::Vec3 ned = proj.ToNed(fleet[static_cast<std::size_t>(i)].home_geo);
    EXPECT_NEAR(ned.x, -i * 25.0, 1e-6);
    EXPECT_NEAR(ned.y, i * 30.0, 1e-6);
    EXPECT_NEAR(ned.z, 0.0, 1e-6);
  }
}

TEST(FleetExperiment, ValenciaScenarioTilesInReplicas) {
  core::FleetExperimentSpec spec;
  spec.scenario = core::FleetScenario::kValencia;
  spec.num_drones = 23;
  const auto fleet = BuildFleetScenario(spec);
  const auto& base = core::SharedValenciaScenario();
  ASSERT_EQ(fleet.size(), 23u);
  const math::LocalProjection proj(core::ScenarioOrigin());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::size_t mission = i % base.size();
    const int replica = static_cast<int>(i / base.size());
    if (replica == 0) {
      EXPECT_EQ(fleet[i].name, base[mission].name);
    } else {
      EXPECT_EQ(fleet[i].name,
                base[mission].name + "#" + std::to_string(replica));
    }
    const math::Vec3 home = proj.ToNed(fleet[i].home_geo);
    const math::Vec3 base_home = proj.ToNed(base[mission].home_geo);
    EXPECT_NEAR(home.x, base_home.x, 1e-3);
    EXPECT_NEAR(home.y, base_home.y + replica * kValenciaTileOffsetM, 1e-3);
    // The mission itself is the base mission, just relocated.
    EXPECT_EQ(fleet[i].plan.waypoints.size(), base[mission].plan.waypoints.size());
    EXPECT_EQ(fleet[i].cruise_speed_kmh, base[mission].cruise_speed_kmh);
  }
}

std::string Serialize(const telemetry::FleetRecord& r) {
  std::ostringstream os;
  telemetry::WriteFleetRecord(os, r);
  return os.str();
}

TEST(FleetExperiment, CampaignCachesAndDedupesThroughResultStore) {
  const std::string dir = ::testing::TempDir() + "uavres_fleet_cache";
  std::filesystem::remove_all(dir);

  core::FleetExperimentSpec spec;
  spec.num_drones = 3;
  spec.leg_length_m = 400.0;
  spec.fault = ConvoyFault();
  spec.faulted_drone = 1;

  FleetCampaignConfig cfg;
  cfg.cache_dir = dir;
  cfg.knobs.num_threads = 1;

  FleetCampaign first(cfg);
  const auto run1 = first.Run({spec});
  ASSERT_EQ(run1.size(), 1u);
  EXPECT_FALSE(run1[0].from_cache);
  EXPECT_EQ(first.cache_stats().stores, 1u);

  // A fresh campaign over the same directory dedupes the identical spec —
  // and the cached record is byte-identical to the computed one.
  FleetCampaign second(cfg);
  const auto run2 = second.Run({spec});
  ASSERT_EQ(run2.size(), 1u);
  EXPECT_TRUE(run2[0].from_cache);
  EXPECT_EQ(second.cache_stats().hits, 1u);
  EXPECT_EQ(Serialize(run1[0].record), Serialize(run2[0].record));

  // A different thread count still hits the same entry: the key excludes
  // it because the record is contractually identical across it, and the
  // served bytes are exactly what a fresh run under those knobs produces.
  FleetCampaignConfig cfg2 = cfg;
  cfg2.knobs.num_threads = 2;
  FleetCampaign third(cfg2);
  const auto run3 = third.Run({spec});
  EXPECT_TRUE(run3[0].from_cache);
  EXPECT_EQ(Serialize(run3[0].record), Serialize(RunFleetExperiment(spec, cfg2.knobs)));

  // A different spec misses.
  core::FleetExperimentSpec other = spec;
  other.seed_base = 4040;
  EXPECT_NE(core::FleetCacheKey(spec), core::FleetCacheKey(other));

  // With the fault removed, faulted_drone no longer influences the run, so
  // baselines share one entry across faulted-drone choices.
  core::FleetExperimentSpec base_a = spec;
  base_a.fault.reset();
  core::FleetExperimentSpec base_b = base_a;
  base_b.faulted_drone = 2;
  EXPECT_EQ(core::FleetCacheKey(base_a), core::FleetCacheKey(base_b));
  core::FleetExperimentSpec faulted_b = spec;
  faulted_b.faulted_drone = 2;
  EXPECT_NE(core::FleetCacheKey(spec), core::FleetCacheKey(faulted_b));

  std::filesystem::remove_all(dir);
}

TEST(FleetExperiment, RecordCarriesSystemicMetrics) {
  // The default convoy geometry with a full-strength accelerometer fault at
  // the default onset: the faulted drone deviates into neighbouring lanes
  // (this exact configuration is the `uavres fleet` smoke case).
  core::FleetExperimentSpec spec;
  spec.num_drones = 6;
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.duration_s = 30.0;
  spec.fault = fault;
  spec.faulted_drone = 3;

  const auto record = RunFleetExperiment(spec, {.num_threads = 1});
  EXPECT_EQ(record.num_drones, 6);
  EXPECT_EQ(record.drones.size(), 6u);
  EXPECT_GT(record.sim_time_s, 0.0);
  EXPECT_GT(record.separation_samples, 0);
  EXPECT_GT(record.reports_published, 0);
  EXPECT_GT(record.missions_completed, 0);
  // The faulted convoy produces conflict events, and the cascade metrics
  // must be consistent with them.
  EXPECT_GT(record.conflicts + record.alerts, 0);
  EXPECT_GE(record.cascade_size, 2);
  EXPECT_GE(record.secondary_conflicts, 0);
  ASSERT_FALSE(record.events.empty());
  for (const auto& e : record.events) {
    EXPECT_GE(e.end_time, e.start_time);
    EXPECT_GT(e.min_separation_m, 0.0);
    EXPECT_NE(e.drone_a, e.drone_b);
  }
}

}  // namespace
}  // namespace uavres::uspace
