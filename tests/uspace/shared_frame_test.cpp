// Shared-frame geometry checks: the Valencia fleet placed in one U-space
// frame must be mutually deconflicted by construction (the paper's scenario
// is designed for conflict-free nominal traffic), and the convoy builder
// must produce the geometry its parameters promise.
#include <gtest/gtest.h>

#include "math/geo.h"
#include "uspace/fleet_runner.h"

namespace uavres::uspace {
namespace {

using math::Vec3;

/// Minimum distance between two static polylines (sampled).
double MinPathDistance(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double best = 1e18;
  auto sample = [](const std::vector<Vec3>& path, double s) {
    // s in [0,1] along the polyline by segment index (coarse but adequate).
    const double scaled = s * static_cast<double>(path.size() - 1);
    const std::size_t i = std::min(path.size() - 2, static_cast<std::size_t>(scaled));
    const double t = scaled - static_cast<double>(i);
    return path[i] + (path[i + 1] - path[i]) * t;
  };
  for (int i = 0; i <= 50; ++i) {
    for (int j = 0; j <= 50; ++j) {
      best = std::min(best, (sample(a, i / 50.0) - sample(b, j / 50.0)).Norm());
    }
  }
  return best;
}

std::vector<Vec3> SharedFramePath(const core::DroneSpec& spec) {
  const math::LocalProjection proj(core::ScenarioOrigin());
  const Vec3 home = proj.ToNed(spec.home_geo);
  std::vector<Vec3> path;
  for (auto wp : spec.plan.waypoints) {
    path.push_back({wp.x + home.x, wp.y + home.y, wp.z});
  }
  return path;
}

TEST(SharedFrame, ValenciaPathsAreMutuallySeparated) {
  const auto fleet = core::BuildValenciaScenario();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (std::size_t j = i + 1; j < fleet.size(); ++j) {
      const double d =
          MinPathDistance(SharedFramePath(fleet[i]), SharedFramePath(fleet[j]));
      // Larger than any pair's combined cruise bubbles (<= ~2*14 m).
      EXPECT_GT(d, 40.0) << fleet[i].name << " vs " << fleet[j].name;
    }
  }
}

TEST(SharedFrame, ValenciaFleetFitsOperationsArea) {
  // 25 km^2 ~ 5 km x 5 km: every shared-frame waypoint within 3.6 km of the
  // origin (the area is centred on it).
  const auto fleet = core::BuildValenciaScenario();
  for (const auto& spec : fleet) {
    for (const auto& p : SharedFramePath(spec)) {
      EXPECT_LT(p.NormXY(), 3600.0) << spec.name;
    }
  }
}

TEST(ConvoyScenario, LaneSpacingAndStaggerAsConfigured) {
  const double spacing = 22.0;
  const auto fleet = BuildConvoyScenario(3, spacing);
  const math::LocalProjection proj(core::ScenarioOrigin());
  std::vector<Vec3> homes;
  for (const auto& s : fleet) homes.push_back(proj.ToNed(s.home_geo));
  for (std::size_t i = 1; i < homes.size(); ++i) {
    EXPECT_NEAR(homes[i].y - homes[i - 1].y, spacing, 0.5);
    EXPECT_NEAR(homes[i].x - homes[i - 1].x, -25.0, 0.5);  // along-track stagger
  }
}

TEST(ConvoyScenario, ScalesToManyDrones) {
  const auto fleet = BuildConvoyScenario(8, 20.0);
  EXPECT_EQ(fleet.size(), 8u);
  for (const auto& s : fleet) EXPECT_TRUE(s.plan.Valid());
}

}  // namespace
}  // namespace uavres::uspace
