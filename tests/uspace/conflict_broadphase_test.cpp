// Broadphase-vs-brute property tests: the uniform-grid candidate generator
// must reproduce the exhaustive detector's events and violation statistics
// exactly on randomized fleets — report gaps, deregistrations and clustered
// geometry included — with min separation agreeing whenever the true
// closest pair fell inside the grid horizon (conflict.h documents the
// censoring tier outside it).
#include "uspace/conflict.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.h"
#include "uspace/tracking.h"

namespace uavres::uspace {
namespace {

using math::Vec3;

/// Two identical tracker+detector stacks fed the same report stream, one
/// exhaustive and one grid-culled.
struct DualRig {
  Tracker brute_tracker;
  Tracker grid_tracker;
  ConflictDetector brute;
  ConflictDetector grid;

  DualRig()
      : brute(&brute_tracker, {.broadphase = BroadphaseMode::kBruteForce}),
        grid(&grid_tracker, {.broadphase = BroadphaseMode::kUniformGrid}) {}

  void Register(const TrackedDrone& d) {
    brute_tracker.Register(d);
    grid_tracker.Register(d);
  }

  void Deregister(int id) {
    brute_tracker.Deregister(id);
    grid_tracker.Deregister(id);
  }

  void Ingest(const TrackReport& r) {
    brute_tracker.Ingest(r);
    grid_tracker.Ingest(r);
  }

  void Step(double t) {
    brute.Step(t);
    grid.Step(t);
  }
};

TrackedDrone MakeDrone(int id, double dimension_m = 0.5, double safety_m = 1.5,
                       double top_speed_ms = 8.0) {
  TrackedDrone d;
  d.drone_id = id;
  d.name.push_back('D');
  d.name += std::to_string(id);
  d.bubble.drone_dimension_m = dimension_m;
  d.bubble.safety_distance_m = safety_m;
  d.bubble.top_speed_ms = top_speed_ms;
  d.bubble.tracking_interval_s = 0.5;
  d.max_speed_ms = 1000.0;  // plausibility filter out of the way
  return d;
}

void ExpectSameResults(const DualRig& rig) {
  const ConflictStats bs = rig.brute.stats();
  const ConflictStats gs = rig.grid.stats();
  EXPECT_EQ(bs.conflicts, gs.conflicts);
  EXPECT_EQ(bs.alerts, gs.alerts);
  EXPECT_EQ(bs.instants_in_conflict, gs.instants_in_conflict);
  // Exactness tier: whenever the exhaustive minimum fell inside the grid's
  // guaranteed-evaluation horizon, the grid saw that pair too.
  if (bs.min_separation_m < gs.broadphase_horizon_m) {
    EXPECT_DOUBLE_EQ(bs.min_separation_m, gs.min_separation_m);
  } else {
    EXPECT_LE(bs.min_separation_m, gs.min_separation_m);
  }
  // The grid must cull, never add, pair evaluations.
  EXPECT_LE(gs.pairs_evaluated, bs.pairs_evaluated);

  const auto& be = rig.brute.events();
  const auto& ge = rig.grid.events();
  ASSERT_EQ(be.size(), ge.size());
  for (std::size_t i = 0; i < be.size(); ++i) {
    EXPECT_EQ(be[i].drone_a, ge[i].drone_a) << "event " << i;
    EXPECT_EQ(be[i].drone_b, ge[i].drone_b) << "event " << i;
    EXPECT_EQ(be[i].severity, ge[i].severity) << "event " << i;
    EXPECT_DOUBLE_EQ(be[i].start_time, ge[i].start_time) << "event " << i;
    EXPECT_DOUBLE_EQ(be[i].end_time, ge[i].end_time) << "event " << i;
    EXPECT_DOUBLE_EQ(be[i].min_separation_m, ge[i].min_separation_m) << "event " << i;
  }
}

/// Randomized airspace: N drones random-walking in a box sized so that
/// close approaches, crossings and long separations all occur, with iid
/// report gaps (a drone missing an instant) and mid-run deregistrations.
void RunRandomizedProperty(std::uint64_t seed, int num_drones, double box_m,
                           bool with_gaps, bool with_deregistration) {
  math::Rng rng(seed);
  DualRig rig;

  std::vector<Vec3> pos;
  std::vector<Vec3> vel;
  for (int id = 0; id < num_drones; ++id) {
    rig.Register(MakeDrone(id, rng.Uniform(0.3, 1.0), rng.Uniform(1.0, 3.0),
                           rng.Uniform(4.0, 14.0)));
    pos.push_back({rng.Uniform(0.0, box_m), rng.Uniform(0.0, box_m),
                   rng.Uniform(-30.0, -10.0)});
    vel.push_back({rng.Uniform(-6.0, 6.0), rng.Uniform(-6.0, 6.0), 0.0});
  }

  std::vector<bool> gone(static_cast<std::size_t>(num_drones), false);
  const double interval = 0.5;
  for (int k = 1; k <= 120; ++k) {
    const double t = k * interval;
    for (int id = 0; id < num_drones; ++id) {
      const auto idx = static_cast<std::size_t>(id);
      if (gone[idx]) continue;
      // Occasionally retarget so trajectories cross instead of diverging.
      if (rng.Uniform01() < 0.05) {
        vel[idx] = {rng.Uniform(-6.0, 6.0), rng.Uniform(-6.0, 6.0), 0.0};
      }
      pos[idx] = pos[idx] + vel[idx] * interval;
      if (with_deregistration && rng.Uniform01() < 0.002) {
        rig.Deregister(id);
        gone[idx] = true;
        continue;
      }
      if (with_gaps && rng.Uniform01() < 0.15) continue;  // dropped report
      rig.Ingest({id, t, pos[idx], vel[idx].Norm()});
    }
    rig.Step(t);
  }
  ExpectSameResults(rig);
}

TEST(ConflictBroadphase, RandomizedDenseFleetMatchesBruteForce) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    RunRandomizedProperty(seed, 24, 300.0, false, false);
  }
}

TEST(ConflictBroadphase, RandomizedSparseFleetMatchesBruteForce) {
  for (std::uint64_t seed : {3ULL, 99ULL}) {
    RunRandomizedProperty(seed, 16, 4000.0, false, false);
  }
}

TEST(ConflictBroadphase, ReportGapsAndDeregistrationsMatchBruteForce) {
  for (std::uint64_t seed : {5ULL, 17ULL, 2024ULL}) {
    RunRandomizedProperty(seed, 20, 400.0, true, true);
  }
}

TEST(ConflictBroadphase, ClusterAtCellCornerMatchesBruteForce) {
  // Drones packed around a grid-cell corner exercise the neighbor scan:
  // every pair straddles cell boundaries.
  DualRig rig;
  for (int id = 0; id < 8; ++id) rig.Register(MakeDrone(id));
  for (int k = 1; k <= 20; ++k) {
    const double t = k * 0.5;
    for (int id = 0; id < 8; ++id) {
      const double angle = id * 0.785398 + k * 0.1;
      // Orbit the corner of cells at (50, 50) with radius shrinking to 2 m.
      const double r = 30.0 - k * 1.4;
      rig.Ingest({id, t,
                  {50.0 + r * std::cos(angle), 50.0 + r * std::sin(angle), -15.0},
                  2.0});
    }
    rig.Step(t);
  }
  const auto stats = rig.brute.stats();
  ASSERT_GT(stats.conflicts, 0);  // the geometry must actually produce events
  ExpectSameResults(rig);
}

TEST(ConflictBroadphase, OpenEventsCloseAcrossCells) {
  // A pair opens a conflict, then separates far beyond the grid horizon in
  // one instant: the open event must still record its falling edge (the
  // detector re-evaluates open pairs even when the grid culls them).
  DualRig rig;
  rig.Register(MakeDrone(1));
  rig.Register(MakeDrone(2));
  auto instant = [&](double t, const Vec3& p1, const Vec3& p2) {
    rig.Ingest({1, t, p1, 0.0});
    rig.Ingest({2, t, p2, 0.0});
    rig.Step(t);
  };
  instant(0.5, {0, 0, -15}, {500, 0, -15});
  instant(1.0, {0, 0, -15}, {2, 0, -15});    // conflict opens
  instant(1.5, {0, 0, -15}, {800, 0, -15});  // teleport far: must close
  instant(2.0, {0, 0, -15}, {2, 0, -15});    // second episode
  ExpectSameResults(rig);
  int conflicts = 0;
  for (const auto& e : rig.grid.events()) {
    conflicts += (e.severity == ConflictSeverity::kConflict);
  }
  EXPECT_EQ(conflicts, 2);
}

TEST(ConflictBroadphase, NoPairsEvaluatedReportsZeroMinSeparation) {
  // Regression: with nothing ever evaluated the stats must report 0.0, not
  // the internal +inf-like sentinel.
  Tracker tracker;
  ConflictDetector detector(&tracker);
  detector.Step(0.5);
  EXPECT_DOUBLE_EQ(detector.stats().min_separation_m, 0.0);

  // One active drone: still no pair.
  Tracker tracker1;
  ConflictDetector detector1(&tracker1);
  tracker1.Register(MakeDrone(7));
  tracker1.Ingest({7, 0.5, {0, 0, -15}, 0.0});
  detector1.Step(0.5);
  EXPECT_DOUBLE_EQ(detector1.stats().min_separation_m, 0.0);
}

TEST(ConflictBroadphase, GridCullsPairsInSparseAirspace) {
  // The efficiency claim behind the refactor: far-apart drones never reach
  // narrow-phase under the grid.
  DualRig rig;
  const int n = 30;
  for (int id = 0; id < n; ++id) rig.Register(MakeDrone(id));
  for (int k = 1; k <= 10; ++k) {
    const double t = k * 0.5;
    for (int id = 0; id < n; ++id) {
      rig.Ingest({id, t, {id * 1000.0, 0.0, -15.0}, 2.0});
    }
    rig.Step(t);
  }
  const auto bs = rig.brute.stats();
  const auto gs = rig.grid.stats();
  EXPECT_EQ(bs.pairs_evaluated, 10LL * n * (n - 1) / 2);
  EXPECT_EQ(gs.pairs_evaluated, 0);
  EXPECT_EQ(gs.pairs_culled, bs.pairs_evaluated);
}

TEST(ConflictBroadphase, ModeNames) {
  EXPECT_STREQ(ToString(BroadphaseMode::kBruteForce), "brute-force");
  EXPECT_STREQ(ToString(BroadphaseMode::kUniformGrid), "uniform-grid");
}

}  // namespace
}  // namespace uavres::uspace
