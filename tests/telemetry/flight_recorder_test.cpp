#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

namespace uavres::telemetry {
namespace {

FlightRecord SampleRecord() {
  FlightRecord r;
  for (int i = 0; i < 50; ++i) {
    TrajectorySample s;
    s.t = i * 0.5;
    s.pos_true = {i * 1.0, -i * 0.5, -15.0};
    s.pos_est = s.pos_true + math::Vec3{0.1, -0.1, 0.02};
    s.vel_true = {2.0, -1.0, 0.0};
    s.vel_est = {2.05, -0.95, 0.01};
    s.att_true = math::Quat::FromEuler(0.01 * i, -0.005 * i, 0.3);
    s.att_est = s.att_true;
    s.airspeed_est = 2.2;
    s.fault_active = (i >= 20 && i < 30);
    r.trajectory.Add(s);
  }
  r.log.Info(0.0, "mode -> takeoff");
  r.log.Warn(10.0, "fault injection window opened: Gyro Noise");
  r.log.Critical(12.5, "FAILSAFE engaged");
  return r;
}

TEST(FlightRecorder, RoundTripPreservesEverything) {
  const FlightRecord original = SampleRecord();
  std::stringstream buffer;
  ASSERT_TRUE(WriteFlightRecord(buffer, original));

  const auto loaded = ReadFlightRecord(buffer.str());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->trajectory.Size(), original.trajectory.Size());
  for (std::size_t i = 0; i < original.trajectory.Size(); ++i) {
    const auto& a = original.trajectory[i];
    const auto& b = loaded->trajectory[i];
    EXPECT_DOUBLE_EQ(a.t, b.t);
    EXPECT_TRUE(math::ApproxEq(a.pos_true, b.pos_true, 0.0));
    EXPECT_TRUE(math::ApproxEq(a.pos_est, b.pos_est, 0.0));
    EXPECT_TRUE(math::ApproxEq(a.vel_true, b.vel_true, 0.0));
    EXPECT_EQ(a.att_true, b.att_true);
    EXPECT_DOUBLE_EQ(a.airspeed_est, b.airspeed_est);
    EXPECT_EQ(a.fault_active, b.fault_active);
  }
  ASSERT_EQ(loaded->log.Events().size(), original.log.Events().size());
  for (std::size_t i = 0; i < original.log.Events().size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->log.Events()[i].t, original.log.Events()[i].t);
    EXPECT_EQ(loaded->log.Events()[i].level, original.log.Events()[i].level);
    EXPECT_EQ(loaded->log.Events()[i].message, original.log.Events()[i].message);
  }
}

TEST(FlightRecorder, EmptyRecordRoundTrips) {
  std::stringstream buffer;
  ASSERT_TRUE(WriteFlightRecord(buffer, FlightRecord{}));
  const auto loaded = ReadFlightRecord(buffer.str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->trajectory.Empty());
  EXPECT_TRUE(loaded->log.Events().empty());
}

TEST(FlightRecorder, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOPE" << std::string(100, '\0');
  EXPECT_FALSE(ReadFlightRecord(buffer.str()).has_value());
}

TEST(FlightRecorder, RejectsTruncatedSamples) {
  const FlightRecord original = SampleRecord();
  std::stringstream buffer;
  ASSERT_TRUE(WriteFlightRecord(buffer, original));
  const std::string full = buffer.str();
  // Cut the stream mid-sample.
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(ReadFlightRecord(truncated.str()).has_value());
}

TEST(FlightRecorder, RejectsAbsurdCounts) {
  std::stringstream buffer;
  buffer << "UVRL";
  auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buffer.put(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  put_u32(kFlightRecordVersion);
  put_u32(0xFFFFFFFFu);  // sample count far beyond the sanity bound
  put_u32(0);
  EXPECT_FALSE(ReadFlightRecord(buffer.str()).has_value());
}

TEST(FlightRecorder, RejectsWrongVersion) {
  std::stringstream buffer;
  buffer << "UVRL";
  auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buffer.put(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  put_u32(kFlightRecordVersion + 7);
  put_u32(0);
  put_u32(0);
  EXPECT_FALSE(ReadFlightRecord(buffer.str()).has_value());
}

TEST(FlightRecorder, FileRoundTrip) {
  const std::string path = "/tmp/uavres_flight_record_test.uvrl";
  const FlightRecord original = SampleRecord();
  ASSERT_TRUE(SaveFlightRecord(path, original));
  const auto loaded = LoadFlightRecord(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->trajectory.Size(), original.trajectory.Size());
  EXPECT_TRUE(loaded->log.Contains("FAILSAFE"));
  std::remove(path.c_str());
}

TEST(FlightRecorder, LoadMissingFileFails) {
  EXPECT_FALSE(LoadFlightRecord("/tmp/definitely_missing_uavres_file.uvrl").has_value());
}

}  // namespace
}  // namespace uavres::telemetry
