// End-to-end fault-free flight tests: the whole stack (physics, sensors,
// EKF, controllers, commander) flying missions from the Valencia scenario.
#include <gtest/gtest.h>

#include <set>

#include "core/scenario.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace uavres {
namespace {

constexpr std::uint64_t kSeed = 2024;

TEST(GoldFlight, Mission0CompletesOnTime) {
  const auto fleet = core::BuildValenciaScenario();
  const uav::SimulationRunner runner;
  const auto out = runner.Run({fleet[0], 0, std::nullopt, kSeed});
  EXPECT_EQ(out.result.outcome, core::MissionOutcome::kCompleted);
  // Nominal duration ~ 470 s for the slow N-S mission.
  EXPECT_NEAR(out.result.flight_duration_s, fleet[0].plan.ExpectedDuration(), 60.0);
  // EKF distance close to the planned path length + climb/descent.
  EXPECT_NEAR(out.result.distance_km * 1000.0, fleet[0].plan.PathLength(), 120.0);
  EXPECT_EQ(out.result.inner_violations, 0);
  EXPECT_EQ(out.result.outer_violations, 0);
}

TEST(GoldFlight, FastestMissionCompletes) {
  const auto fleet = core::BuildValenciaScenario();
  const uav::SimulationRunner runner;
  const auto out = runner.Run({fleet[9], 9, std::nullopt, kSeed});
  EXPECT_EQ(out.result.outcome, core::MissionOutcome::kCompleted);
  EXPECT_GT(out.result.distance_km, 2.5);  // 3.1 km path
}

TEST(GoldFlight, TurningMissionCompletes) {
  const auto fleet = core::BuildValenciaScenario();
  ASSERT_TRUE(fleet[5].has_turning_points);
  const uav::SimulationRunner runner;
  const auto out = runner.Run({fleet[5], 5, std::nullopt, kSeed});
  EXPECT_EQ(out.result.outcome, core::MissionOutcome::kCompleted);
}

TEST(GoldFlight, TrajectoryRecordedAndSane) {
  const auto fleet = core::BuildValenciaScenario();
  const uav::SimulationRunner runner;
  const auto out = runner.Run({fleet[0], 0, std::nullopt, kSeed});
  ASSERT_GT(out.trajectory.Size(), 100u);
  // Monotonic time, bounded altitude, no fault flags on a gold run.
  double last_t = -1.0;
  for (const auto& s : out.trajectory.Samples()) {
    EXPECT_GT(s.t, last_t);
    last_t = s.t;
    EXPECT_FALSE(s.fault_active);
    EXPECT_LT(-s.pos_true.z, 20.0);   // below the VLL ceiling + margin
    EXPECT_GT(-s.pos_true.z, -0.2);   // never below ground
  }
}

TEST(GoldFlight, EkfTracksTruthInCruise) {
  const auto fleet = core::BuildValenciaScenario();
  const uav::SimulationRunner runner;
  const auto out = runner.Run({fleet[0], 0, std::nullopt, kSeed});
  double worst = 0.0;
  for (const auto& s : out.trajectory.Samples()) {
    if (s.t < 20.0) continue;  // skip takeoff transients
    worst = std::max(worst, (s.pos_true - s.pos_est).Norm());
  }
  EXPECT_LT(worst, 2.0);  // GPS-grade estimation accuracy
}

TEST(GoldFlight, DeterministicAcrossRuns) {
  const auto fleet = core::BuildValenciaScenario();
  const uav::SimulationRunner runner;
  const auto a = runner.Run({fleet[2], 2, std::nullopt, kSeed});
  const auto b = runner.Run({fleet[2], 2, std::nullopt, kSeed});
  EXPECT_EQ(a.result.outcome, b.result.outcome);
  EXPECT_DOUBLE_EQ(a.result.flight_duration_s, b.result.flight_duration_s);
  EXPECT_DOUBLE_EQ(a.result.distance_km, b.result.distance_km);
  ASSERT_EQ(a.trajectory.Size(), b.trajectory.Size());
  EXPECT_TRUE(math::ApproxEq(a.trajectory[100].pos_true, b.trajectory[100].pos_true, 0.0));
}

TEST(GoldFlight, DifferentSeedsDifferentNoiseSameOutcome) {
  const auto fleet = core::BuildValenciaScenario();
  const uav::SimulationRunner runner;
  const auto a = runner.Run({fleet[0], 0, std::nullopt, 111});
  const auto b = runner.Run({fleet[0], 0, std::nullopt, 222});
  EXPECT_EQ(a.result.outcome, core::MissionOutcome::kCompleted);
  EXPECT_EQ(b.result.outcome, core::MissionOutcome::kCompleted);
  EXPECT_FALSE(
      math::ApproxEq(a.trajectory[100].pos_true, b.trajectory[100].pos_true, 1e-12));
}

TEST(Uav, StepAdvancesTime) {
  const auto fleet = core::BuildValenciaScenario();
  uav::Uav vehicle(uav::MakeUavConfig(fleet[0]), fleet[0].plan, std::nullopt, 1);
  EXPECT_DOUBLE_EQ(vehicle.time(), 0.0);
  for (int i = 0; i < 250; ++i) vehicle.Step();
  EXPECT_NEAR(vehicle.time(), 1.0, 0.01);
  EXPECT_FALSE(vehicle.fault_active());
}

TEST(Uav, TakesOffWithinTenSeconds) {
  const auto fleet = core::BuildValenciaScenario();
  uav::Uav vehicle(uav::MakeUavConfig(fleet[0]), fleet[0].plan, std::nullopt, 1);
  for (int i = 0; i < 2500; ++i) vehicle.Step();
  EXPECT_TRUE(vehicle.airborne_seen());
  EXPECT_GT(-vehicle.quad().state().pos.z, 5.0);
}

TEST(ExperimentSeed, GridCellsShareTheVehicleSeedAndSplitTheInjectorStreams) {
  // Every cell of a mission flies the gold run's vehicle, sensor and physics
  // streams, so its pre-onset prefix is the gold run's bit for bit; the
  // fault's (type, target, duration) picks its injector streams alone.
  const std::uint64_t vehicle = uav::ExperimentSeed(kSeed, 0);
  EXPECT_NE(vehicle, uav::ExperimentSeed(kSeed, 1));
  EXPECT_NE(vehicle, uav::ExperimentSeed(kSeed + 1, 0));

  const auto& drone = core::SharedValenciaScenario()[0];
  EXPECT_EQ(uav::ExperimentSpec({drone, 0, std::nullopt, kSeed, nullptr}).Seed(), vehicle);
  std::set<std::uint64_t> streams;
  std::size_t cells = 0;
  for (double duration : core::kInjectionDurations) {
    for (core::FaultTarget target : core::kAllFaultTargets) {
      for (core::FaultType type : core::kAllFaultTypes) {
        const core::FaultSpec fault{type, target, core::kInjectionStartS, duration, 1.0};
        EXPECT_EQ(uav::ExperimentSpec({drone, 0, fault, kSeed, nullptr}).Seed(), vehicle);
        const std::uint64_t stream = uav::FaultStreamSeed(vehicle, fault);
        EXPECT_NE(stream, vehicle);
        streams.insert(stream);
        ++cells;
        // Start time and magnitude are fork axes, not stream inputs.
        core::FaultSpec moved = fault;
        moved.start_time_s += 7.0;
        moved.magnitude = 0.5;
        EXPECT_EQ(uav::FaultStreamSeed(vehicle, moved), stream);
      }
    }
  }
  EXPECT_EQ(cells, 84u);
  EXPECT_EQ(streams.size(), cells);  // one injector stream per (type, target, duration)
}

}  // namespace
}  // namespace uavres
