#include "core/scenario.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "math/num.h"

namespace uavres::core {
namespace {

TEST(Scenario, TenMissions) {
  EXPECT_EQ(BuildValenciaScenario().size(), 10u);
}

TEST(Scenario, PaperFleetSpeedMix) {
  // 2 at 5 km/h, 1 at 10, 3 at 12, 3 at 14, 1 at 25 (paper §III-B).
  std::map<double, int> counts;
  for (const auto& s : BuildValenciaScenario()) counts[s.cruise_speed_kmh]++;
  EXPECT_EQ(counts[5.0], 2);
  EXPECT_EQ(counts[10.0], 1);
  EXPECT_EQ(counts[12.0], 3);
  EXPECT_EQ(counts[14.0], 3);
  EXPECT_EQ(counts[25.0], 1);
}

TEST(Scenario, FourMissionsWithTurningPoints) {
  int turning = 0;
  for (const auto& s : BuildValenciaScenario()) turning += s.has_turning_points;
  EXPECT_EQ(turning, 4);
}

TEST(Scenario, TurningFlagConsistentWithWaypointCount) {
  for (const auto& s : BuildValenciaScenario()) {
    // Straight missions: climb point + 1 target. Turning: >= 3 waypoints.
    if (s.has_turning_points) {
      EXPECT_GE(s.plan.waypoints.size(), 3u) << s.name;
    } else {
      EXPECT_EQ(s.plan.waypoints.size(), 2u) << s.name;
    }
  }
}

TEST(Scenario, AllPlansValid) {
  for (const auto& s : BuildValenciaScenario()) {
    EXPECT_TRUE(s.plan.Valid()) << s.name;
    EXPECT_EQ(s.plan.cruise_speed_ms, math::KmhToMs(s.cruise_speed_kmh)) << s.name;
  }
}

TEST(Scenario, CruiseBelowCeiling) {
  const double ceiling = ScenarioCeilingM();
  EXPECT_NEAR(ceiling, 18.288, 0.001);  // 60 ft
  for (const auto& s : BuildValenciaScenario()) {
    EXPECT_LT(s.plan.takeoff_altitude_m, ceiling) << s.name;
    for (const auto& wp : s.plan.waypoints) {
      EXPECT_LT(-wp.z, ceiling) << s.name;
    }
  }
}

TEST(Scenario, NominalDurationsNearPaperGold) {
  // The paper's gold average is 491 s; every mission is sized to fly for
  // roughly that long at its own cruise speed.
  for (const auto& s : BuildValenciaScenario()) {
    const double expected = s.plan.ExpectedDuration();
    EXPECT_GT(expected, 380.0) << s.name;
    EXPECT_LT(expected, 560.0) << s.name;
  }
}

TEST(Scenario, MissionsFitOperationsArea) {
  // 25 km^2 area: all waypoints within ~2.6 km of each home.
  for (const auto& s : BuildValenciaScenario()) {
    for (const auto& wp : s.plan.waypoints) {
      EXPECT_LT(wp.NormXY(), 2600.0) << s.name;
    }
  }
}

TEST(Scenario, HomesSpreadAcrossArea) {
  const math::LocalProjection proj(ScenarioOrigin());
  const auto fleet = BuildValenciaScenario();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (std::size_t j = i + 1; j < fleet.size(); ++j) {
      const double d = math::PlanarDistance(fleet[i].home_geo, fleet[j].home_geo);
      EXPECT_GT(d, 100.0) << fleet[i].name << " vs " << fleet[j].name;
    }
    const math::Vec3 ned = proj.ToNed(fleet[i].home_geo);
    EXPECT_LT(ned.NormXY(), 3600.0) << fleet[i].name;  // inside 25 km^2-ish box
  }
}

TEST(Scenario, BubbleParamsDeriveFromSpec) {
  const auto fleet = BuildValenciaScenario();
  const auto& fast = fleet.back();  // 25 km/h courier
  ASSERT_DOUBLE_EQ(fast.cruise_speed_kmh, 25.0);
  const BubbleParams p = fast.MakeBubbleParams();
  EXPECT_DOUBLE_EQ(p.drone_dimension_m, fast.wingspan_m);
  EXPECT_NEAR(p.top_speed_ms, math::KmhToMs(25.0) * fast.top_speed_factor, 1e-9);
  EXPECT_DOUBLE_EQ(p.risk_factor, 1.0);
  // Faster drones get bigger inner bubbles.
  const double fast_inner = InnerBubbleRadius(p);
  const double slow_inner = InnerBubbleRadius(fleet.front().MakeBubbleParams());
  EXPECT_GT(fast_inner, slow_inner);
}

TEST(Scenario, AirframesScaleWithMass) {
  const auto fleet = BuildValenciaScenario();
  const auto light = fleet.front().MakeAirframe();   // 1.2 kg
  const auto heavy = fleet.back().MakeAirframe();    // 2.2 kg
  EXPECT_GT(heavy.mass_kg, light.mass_kg);
  EXPECT_GT(heavy.rotor.max_thrust_n, light.rotor.max_thrust_n);
  EXPECT_GT(heavy.arm_length_m, light.arm_length_m);
}

TEST(Scenario, Deterministic) {
  const auto a = BuildValenciaScenario();
  const auto b = BuildValenciaScenario();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].plan.waypoints.size(), b[i].plan.waypoints.size());
    EXPECT_TRUE(math::ApproxEq(a[i].plan.waypoints.back(), b[i].plan.waypoints.back()));
  }
}

TEST(Scenario, OriginIsValencia) {
  const auto origin = ScenarioOrigin();
  EXPECT_NEAR(origin.lat_deg, 39.47, 0.01);
  EXPECT_NEAR(origin.lon_deg, -0.376, 0.01);
}

// SharedValenciaScenario backs every campaign worker through const
// references held across whole runs. The function-local static must therefore hand every thread
// the SAME object (stable addresses, no per-thread or racing copies), even
// when the very first call happens concurrently from many threads.
TEST(Scenario, SharedScenarioIsOneStableObjectAcrossConcurrentReaders) {
  constexpr int kThreads = 8;
  std::vector<const std::vector<DroneSpec>*> seen(kThreads, nullptr);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&seen, i] {
        const auto& fleet = SharedValenciaScenario();
        // Touch the data like a run does (plan + airframe reads).
        ASSERT_EQ(fleet.size(), 10u);
        for (const auto& spec : fleet) {
          ASSERT_FALSE(spec.plan.waypoints.empty());
        }
        seen[static_cast<std::size_t>(i)] = &fleet;
      });
    }
    for (auto& t : threads) t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[0])
        << "thread " << i << " observed a different scenario object";
  }
}

}  // namespace
}  // namespace uavres::core
