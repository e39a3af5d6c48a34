#include "uspace/conflict.h"

#include <gtest/gtest.h>

namespace uavres::uspace {
namespace {

using math::Vec3;

TrackedDrone MakeDrone(int id) {
  TrackedDrone d;
  d.drone_id = id;
  d.name = std::string("D").append(std::to_string(id));
  d.bubble.drone_dimension_m = 0.5;
  d.bubble.safety_distance_m = 1.5;
  d.bubble.top_speed_ms = 8.0;
  d.bubble.tracking_interval_s = 0.5;
  d.max_speed_ms = 1000.0;  // plausibility filter out of the way
  return d;
}

/// Tracker pre-loaded with two drones whose bubbles are easy to reason
/// about: inner radius = 0.5 + max(1.5, 2*0.5) = 2.0 m each.
struct Rig {
  Tracker tracker;
  ConflictDetector detector{&tracker};

  Rig() {
    for (int id : {1, 2}) {
      TrackedDrone d;
      d.drone_id = id;
      d.name = std::string("D").append(std::to_string(id));
      d.bubble.drone_dimension_m = 0.5;
      d.bubble.safety_distance_m = 1.5;
      d.bubble.top_speed_ms = 2.0;
      d.bubble.tracking_interval_s = 0.5;
      d.max_speed_ms = 100.0;  // plausibility filter out of the way
      tracker.Register(d);
    }
  }

  void Instant(double t, const Vec3& p1, const Vec3& p2, double speed = 0.0) {
    tracker.Ingest({1, t, p1, speed});
    tracker.Ingest({2, t, p2, speed});
    detector.Step(t);
  }
};

TEST(ConflictDetector, NoEventsWhenFarApart) {
  Rig rig;
  for (int i = 0; i < 20; ++i) {
    rig.Instant(i * 0.5, {0, 0, -15}, {200, 0, -15});
  }
  EXPECT_TRUE(rig.detector.events().empty());
  EXPECT_EQ(rig.detector.stats().conflicts, 0);
  EXPECT_NEAR(rig.detector.stats().min_separation_m, 200.0, 1e-9);
}

TEST(ConflictDetector, AlertWhenInnerBubblesTouch) {
  Rig rig;
  // inner sum = 4.0 m: separation 3 m violates both layers (outer >= inner).
  rig.Instant(0.5, {0, 0, -15}, {100, 0, -15});
  rig.Instant(1.0, {0, 0, -15}, {3, 0, -15});
  const auto stats = rig.detector.stats();
  EXPECT_EQ(stats.alerts, 1);
  EXPECT_EQ(stats.conflicts, 1);
}

TEST(ConflictDetector, ConflictWithoutAlertInTheGap) {
  Rig rig;
  // At hover the outer radius floors at inner (2 m each): conflict needs
  // separation < 4 m, same as the alert threshold. Climb the airspeed so
  // Eq. 2 predicts 1.5 m covered per instant: outer = 2 * 1.5 = 3 m each
  // (sum 6) while the inner sum stays 4: separation 5 m is conflict-only.
  // The outer bubble needs one instant of history before Eq. 2 engages.
  rig.Instant(0.5, {0, 0, -15}, {100, 0, -15}, 3.0);
  rig.Instant(1.0, {1.5, 0, -15}, {98.5, 0, -15}, 3.0);
  rig.tracker.Ingest({1, 1.5, {3.0, 0, -15}, 3.0});
  rig.tracker.Ingest({2, 1.5, {8.0, 0, -15}, 3.0});  // separation 5 m
  rig.detector.Step(1.5);
  const auto stats = rig.detector.stats();
  EXPECT_EQ(stats.conflicts, 1);
  EXPECT_EQ(stats.alerts, 0);
}

TEST(ConflictDetector, PersistentConflictIsOneEvent) {
  Rig rig;
  rig.Instant(0.5, {0, 0, -15}, {100, 0, -15});
  for (int i = 0; i < 10; ++i) {
    rig.Instant(1.0 + i * 0.5, {0, 0, -15}, {2.0, 0, -15});
  }
  const auto& events = rig.detector.events();
  int conflicts = 0;
  for (const auto& e : events) conflicts += (e.severity == ConflictSeverity::kConflict);
  EXPECT_EQ(conflicts, 1);
  // The single event spans the whole violation window.
  for (const auto& e : events) {
    if (e.severity != ConflictSeverity::kConflict) continue;
    EXPECT_NEAR(e.start_time, 1.0, 1e-9);
    EXPECT_NEAR(e.end_time, 5.5, 1e-9);
    EXPECT_NEAR(e.min_separation_m, 2.0, 1e-9);
  }
}

TEST(ConflictDetector, SeparateEpisodesAreSeparateEvents) {
  Rig rig;
  rig.Instant(0.5, {0, 0, -15}, {100, 0, -15});
  rig.Instant(1.0, {0, 0, -15}, {2, 0, -15});   // episode 1
  rig.Instant(1.5, {0, 0, -15}, {50, 0, -15});  // resolved
  rig.Instant(2.0, {0, 0, -15}, {2, 0, -15});   // episode 2
  int conflicts = 0;
  for (const auto& e : rig.detector.events()) {
    conflicts += (e.severity == ConflictSeverity::kConflict);
  }
  EXPECT_EQ(conflicts, 2);
}

TEST(ConflictDetector, DeregisteredDroneStopsParticipating) {
  Rig rig;
  rig.Instant(0.5, {0, 0, -15}, {100, 0, -15});
  rig.tracker.Deregister(2);
  rig.tracker.Ingest({1, 1.0, {0, 0, -15}, 0.0});
  rig.detector.Step(1.0);  // only one active drone: nothing to evaluate
  EXPECT_TRUE(rig.detector.events().empty());
}

TEST(ConflictDetector, MinSeparationTracked) {
  Rig rig;
  rig.Instant(0.5, {0, 0, -15}, {40, 0, -15});
  rig.Instant(1.0, {0, 0, -15}, {10, 0, -15});
  rig.Instant(1.5, {0, 0, -15}, {25, 0, -15});
  EXPECT_NEAR(rig.detector.stats().min_separation_m, 10.0, 1e-9);
}

TEST(ConflictDetector, ThreeDronesPairwiseIndependent) {
  Tracker tracker;
  ConflictDetector detector(&tracker);
  for (int id : {1, 2, 3}) {
    TrackedDrone d;
    d.drone_id = id;
    d.bubble.drone_dimension_m = 0.5;
    d.bubble.safety_distance_m = 1.5;
    d.bubble.top_speed_ms = 2.0;
    d.max_speed_ms = 100.0;
    tracker.Register(d);
  }
  auto instant = [&](double t, const Vec3& p1, const Vec3& p2, const Vec3& p3) {
    tracker.Ingest({1, t, p1, 0.0});
    tracker.Ingest({2, t, p2, 0.0});
    tracker.Ingest({3, t, p3, 0.0});
    detector.Step(t);
  };
  instant(0.5, {0, 0, -15}, {100, 0, -15}, {200, 0, -15});
  // Drones 1 and 2 close; drone 3 far from both.
  instant(1.0, {0, 0, -15}, {2, 0, -15}, {200, 0, -15});
  int conflicts = 0;
  for (const auto& e : detector.events()) {
    if (e.severity == ConflictSeverity::kConflict) {
      ++conflicts;
      EXPECT_EQ(e.drone_a, 1);
      EXPECT_EQ(e.drone_b, 2);
    }
  }
  EXPECT_EQ(conflicts, 1);
}

TEST(ConflictDetector, NoPairsEvaluatedReportsZeroMinSeparation) {
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

TEST(ConflictDetector, SeverityNames) {
  EXPECT_STREQ(ToString(ConflictSeverity::kConflict), "conflict");
  EXPECT_STREQ(ToString(ConflictSeverity::kAlert), "alert");
}

}  // namespace
}  // namespace uavres::uspace
