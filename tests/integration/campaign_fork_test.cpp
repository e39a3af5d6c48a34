// Shared-prefix campaign (DESIGN.md §16.6): every faulty run of a mission
// resumes from its gold run's snapshot at the fault onset instead of flying
// the prefix the two share, and must still equal the run from t = 0.
//
//   * A one-mission campaign at durations {2, 30}, recovery off and on:
//     every faulty result's WriteMissionResult bytes equal a from-scratch
//     SimulationRunner::Run of the same spec against a from-scratch gold
//     trajectory, and every faulty run did fork (the steps it did not
//     simulate are exactly one 90 s prefix each).
//   * With invariants recorded, a fork of a gold donor taken while the
//     health monitor is charged reports the same violations as the run from
//     t = 0: the donor, having no fault, never noted the anomaly level at
//     onset, so the fork must take it from the restored monitor.
//   * A gold run loaded from the store flies nothing until a faulty miss
//     asks for its onset snapshot, then only the prefix; that snapshot and
//     the one taken in flight hold the same vehicle state and neither
//     carries the recorded trajectory.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/scheduler.h"
#include "telemetry/metrics_registry.h"

namespace uavres::core {
namespace {

std::string Bytes(const MissionResult& r) {
  std::ostringstream os;
  WriteMissionResult(os, r);
  return os.str();
}

std::uint64_t Counter(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).Value();
}

/// Control steps up to the grid's onset: the prefix a fork does not fly.
std::uint64_t OnsetSteps() {
  const double rate_hz = uav::UavConfig{}.control_rate_hz;
  return static_cast<std::uint64_t>(std::llround(kInjectionStartS * rate_hz));
}

class CampaignFork : public ::testing::TestWithParam<bool> {};

TEST_P(CampaignFork, EveryFaultyRunForksAndEqualsItsRunFromScratch) {
  const bool recovery = GetParam();
  const Campaign campaign(CampaignConfig::Builder()
                              .Missions(1)
                              .Durations({2.0, 30.0})
                              .Recovery(recovery)
                              .Threads(2)
                              .CacheDir("")
                              .Build());
  const std::uint64_t steps0 = Counter("sim.steps");
  const std::uint64_t stepped0 = Counter("sim.steps_stepped");
  const CampaignResults r = campaign.Run();
  const std::uint64_t steps = Counter("sim.steps") - steps0;
  const std::uint64_t stepped = Counter("sim.steps_stepped") - stepped0;
  const std::vector<FaultSpec> grid = campaign.GridFaults();
  ASSERT_EQ(r.faulty.size(), grid.size());
  EXPECT_EQ(steps - stepped, r.faulty.size() * OnsetSteps())
      << "a faulty run flew its prefix instead of forking";

  uav::RunConfig run;
  run.recovery = recovery;
  const DroneSpec& drone = campaign.fleet()[0];
  const uav::RunOutput gold =
      uav::SimulationRunner(run).Run({drone, 0, std::nullopt, 2024, nullptr});
  EXPECT_EQ(Bytes(gold.result), Bytes(r.gold[0]));
  run.record_trajectory = false;
  const uav::SimulationRunner runner(run);
  std::vector<std::string> scratch(grid.size());
  SchedulerOptions sched;
  sched.num_threads = 4;
  ParallelFor(
      grid.size(),
      [&](std::size_t j) {
        scratch[j] = Bytes(runner.Run({drone, 0, grid[j], 2024, &gold.trajectory}).result);
      },
      sched);
  for (std::size_t j = 0; j < grid.size(); ++j) {
    EXPECT_EQ(Bytes(r.faulty[j]), scratch[j])
        << ToString(grid[j].type) << '@' << ToString(grid[j].target) << " for "
        << grid[j].duration_s << " s, recovery " << recovery;
  }
}

INSTANTIATE_TEST_SUITE_P(RecoveryOffAndOn, CampaignFork, ::testing::Bool());

TEST(CampaignForkInvariants, ForkOfAChargedGoldDonorRecordsTheSameViolations) {
  // The health monitor is charged at t = 6 s of mission 0's take-off (its
  // anomaly level is above the 1e-3 the failsafe-latency invariant reads),
  // and a minimum latency no failsafe can meet makes that invariant fire for
  // any sensor-fault failsafe whose run saw an uncharged monitor at onset.
  constexpr double kOnsetS = 6.0;
  uav::RunConfig run;
  run.invariants.mode = InvariantMode::kRecord;
  run.invariants.failsafe_min_latency_s = 1e3;
  const DroneSpec& drone = SharedValenciaScenario()[0];
  sim::Snapshot donor;
  uav::RunOutput gold;
  ASSERT_TRUE(uav::SimulationRunner(run).RunWithCheckpoint({drone, 0, std::nullopt, 2024, nullptr},
                                                           kOnsetS, donor, gold));

  run.record_trajectory = false;
  const uav::SimulationRunner runner(run);
  int sensor_failsafes = 0;
  for (FaultType type : kAllFaultTypes) {
    const FaultSpec fault{type, FaultTarget::kImu, kOnsetS, 30.0, 1.0};
    const uav::ExperimentSpec spec{drone, 0, fault, 2024, &gold.trajectory};
    uav::RunOutput forked;
    ASSERT_TRUE(runner.RunFromSnapshot(spec, donor, forked)) << ToString(type);
    const uav::RunOutput full = runner.Run(spec);
    EXPECT_EQ(Bytes(forked.result), Bytes(full.result)) << ToString(type);
    EXPECT_EQ(forked.total_violations, full.total_violations) << ToString(type);
    ASSERT_EQ(forked.violations.size(), full.violations.size()) << ToString(type);
    for (std::size_t i = 0; i < full.violations.size(); ++i) {
      EXPECT_EQ(forked.violations[i].id, full.violations[i].id) << ToString(type);
      EXPECT_EQ(forked.violations[i].t, full.violations[i].t) << ToString(type);
      EXPECT_EQ(forked.violations[i].detail, full.violations[i].detail) << ToString(type);
    }
    sensor_failsafes += full.result.failsafe_reason == nav::FailsafeReason::kSensorFault;
  }
  EXPECT_GT(sensor_failsafes, 0) << "no run reached the failsafe-latency invariant";
}

TEST(GoldReference, AStoredGoldRunRecapturesItsOnsetOnlyWhenAsked) {
  const std::string dir = ::testing::TempDir() + "uavres_gold_reference";
  std::filesystem::remove_all(dir);
  ResultStore store(dir);
  const uav::RunConfig run;
  const uav::ExperimentSpec spec{SharedValenciaScenario()[0], 0, std::nullopt, 2024, nullptr};
  const GoldRun flown = RunGold(store, run, spec, kInjectionStartS);
  ASSERT_FALSE(flown.hit);

  const std::uint64_t stepped0 = Counter("sim.steps_stepped");
  const GoldRun loaded = RunGold(store, run, spec, kInjectionStartS);
  ASSERT_TRUE(loaded.hit);
  EXPECT_EQ(Bytes(loaded.result), Bytes(flown.result));
  EXPECT_EQ(loaded.reference->path().Points(), flown.reference->path().Points());
  const sim::Snapshot* in_flight = flown.reference->Onset();
  EXPECT_EQ(Counter("sim.steps_stepped"), stepped0) << "a stored gold run flew before a fork";
  const sim::Snapshot* recaptured = loaded.reference->Onset();
  EXPECT_EQ(Counter("sim.steps_stepped") - stepped0, OnsetSteps())
      << "the recapture flew more than the prefix";
  EXPECT_EQ(loaded.reference->Onset(), recaptured) << "the onset was recaptured twice";

  ASSERT_NE(in_flight, nullptr);
  ASSERT_NE(recaptured, nullptr);
  EXPECT_EQ(recaptured->step_count, in_flight->step_count);
  ASSERT_EQ(recaptured->sections.size(), in_flight->sections.size());
  for (std::size_t i = 0; i < in_flight->sections.size(); ++i) {
    const sim::SnapshotSection& a = in_flight->sections[i];
    const sim::SnapshotSection& b = recaptured->sections[i];
    EXPECT_NE(a.id, static_cast<std::uint32_t>(uav::SnapshotSectionId::kTrajectory))
        << "no fork reads the recorded trajectory";
    ASSERT_EQ(a.id, b.id);
    // The harness sections differ in the recording cursor alone: the
    // recapture records nothing.
    if (a.id != static_cast<std::uint32_t>(uav::SnapshotSectionId::kHarness)) {
      EXPECT_EQ(a.bytes, b.bytes) << "section " << a.id;
    }
  }
}

}  // namespace
}  // namespace uavres::core
