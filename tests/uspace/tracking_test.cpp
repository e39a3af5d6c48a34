#include "uspace/tracking.h"

#include <gtest/gtest.h>

namespace uavres::uspace {
namespace {

using math::Vec3;

TrackedDrone Drone(int id, double max_speed = 5.0) {
  TrackedDrone d;
  d.drone_id = id;
  d.name = std::string("D").append(std::to_string(id));
  d.max_speed_ms = max_speed;
  return d;
}

TrackReport Report(int id, double t, const Vec3& pos, double airspeed = 3.0) {
  return TrackReport{id, t, pos, airspeed};
}

TEST(Tracker, RegisterRejectsDuplicates) {
  Tracker tracker;
  EXPECT_TRUE(tracker.Register(Drone(1)));
  EXPECT_FALSE(tracker.Register(Drone(1)));
  EXPECT_TRUE(tracker.Register(Drone(2)));
}

TEST(Tracker, UnknownDroneReportsDropped) {
  Tracker tracker;
  EXPECT_FALSE(tracker.Ingest(Report(9, 1.0, {0, 0, -15})));
  EXPECT_FALSE(tracker.StateOf(9).has_value());
}

TEST(Tracker, AcceptsPlausibleSequence) {
  Tracker tracker;
  tracker.Register(Drone(1));
  EXPECT_TRUE(tracker.Ingest(Report(1, 1.0, {0, 0, -15})));
  EXPECT_TRUE(tracker.Ingest(Report(1, 2.0, {3, 0, -15})));
  const auto s = tracker.StateOf(1);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->reports_accepted, 2);
  EXPECT_EQ(s->reports_quarantined, 0);
  EXPECT_NEAR(s->distance_last_interval_m, 3.0, 1e-9);
}

TEST(Tracker, QuarantinesImpossibleJump) {
  Tracker tracker;
  tracker.Register(Drone(1, /*max_speed=*/5.0));
  EXPECT_TRUE(tracker.Ingest(Report(1, 1.0, {0, 0, -15})));
  // 100 m in 1 s against a 5 m/s drone (2x limit = 10 m/s): impossible.
  EXPECT_FALSE(tracker.Ingest(Report(1, 2.0, {100, 0, -15})));
  const auto s = tracker.StateOf(1);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->reports_quarantined, 1);
  // The validated state still points at the last good position.
  EXPECT_NEAR(s->last_report.pos.x, 0.0, 1e-9);
  EXPECT_EQ(tracker.total_quarantined(), 1);
}

TEST(Tracker, QuarantinesStaleTimestamps) {
  Tracker tracker;
  tracker.Register(Drone(1));
  EXPECT_TRUE(tracker.Ingest(Report(1, 2.0, {0, 0, -15})));
  EXPECT_FALSE(tracker.Ingest(Report(1, 2.0, {0.1, 0, -15})));  // same t
  EXPECT_FALSE(tracker.Ingest(Report(1, 1.0, {0.1, 0, -15})));  // older
}

TEST(Tracker, ClampsReportedAirspeed) {
  Tracker tracker;
  tracker.Register(Drone(1, 5.0));
  tracker.Ingest(Report(1, 1.0, {0, 0, -15}, /*airspeed=*/500.0));
  const auto s = tracker.StateOf(1);
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->last_report.airspeed_ms, 10.0);  // 2x max speed
}

TEST(Tracker, ActiveDronesTracksRegistrationLifecycle) {
  Tracker tracker;
  tracker.Register(Drone(1));
  tracker.Register(Drone(2));
  tracker.Ingest(Report(1, 1.0, {0, 0, -15}));
  tracker.Ingest(Report(2, 1.0, {50, 0, -15}));
  EXPECT_EQ(tracker.ActiveDrones().size(), 2u);
  tracker.Deregister(1);
  EXPECT_EQ(tracker.ActiveDrones().size(), 1u);
  EXPECT_EQ(tracker.ActiveDrones()[0], 2);
  // The last state is retained for post-flight analysis.
  EXPECT_TRUE(tracker.StateOf(1).has_value());
}

TEST(Tracker, InfoOfReturnsRegistration) {
  Tracker tracker;
  auto d = Drone(7);
  d.bubble.drone_dimension_m = 0.9;
  tracker.Register(d);
  const auto* info = tracker.InfoOf(7);
  ASSERT_NE(info, nullptr);
  EXPECT_DOUBLE_EQ(info->bubble.drone_dimension_m, 0.9);
  EXPECT_EQ(tracker.InfoOf(8), nullptr);
}

}  // namespace
}  // namespace uavres::uspace
