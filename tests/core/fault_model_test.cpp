#include "core/fault_model.h"

#include <gtest/gtest.h>

namespace uavres::core {
namespace {

TEST(FaultModel, SevenTypesThreeTargetsFourDurations) {
  EXPECT_EQ(kAllFaultTypes.size(), 7u);
  EXPECT_EQ(kAllFaultTargets.size(), 3u);
  EXPECT_EQ(kInjectionDurations.size(), 4u);
  EXPECT_DOUBLE_EQ(kInjectionDurations[0], 2.0);
  EXPECT_DOUBLE_EQ(kInjectionDurations[3], 30.0);
  EXPECT_DOUBLE_EQ(kInjectionStartS, 90.0);
}

TEST(FaultSpec, ActiveWindowHalfOpen) {
  FaultSpec f;
  f.start_time_s = 90.0;
  f.duration_s = 10.0;
  EXPECT_FALSE(f.ActiveAt(89.999));
  EXPECT_TRUE(f.ActiveAt(90.0));
  EXPECT_TRUE(f.ActiveAt(99.999));
  EXPECT_FALSE(f.ActiveAt(100.0));
}

TEST(FaultSpec, TargetsSelectComponents) {
  FaultSpec acc;
  acc.target = FaultTarget::kAccelerometer;
  EXPECT_TRUE(acc.AffectsAccel());
  EXPECT_FALSE(acc.AffectsGyro());

  FaultSpec gyro;
  gyro.target = FaultTarget::kGyrometer;
  EXPECT_FALSE(gyro.AffectsAccel());
  EXPECT_TRUE(gyro.AffectsGyro());

  FaultSpec imu;
  imu.target = FaultTarget::kImu;
  EXPECT_TRUE(imu.AffectsAccel());
  EXPECT_TRUE(imu.AffectsGyro());
}

TEST(FaultModel, NamesMatchPaperVocabulary) {
  EXPECT_STREQ(ToString(FaultType::kFixed), "Fixed Value");
  EXPECT_STREQ(ToString(FaultType::kZeros), "Zeros");
  EXPECT_STREQ(ToString(FaultType::kFreeze), "Freeze");
  EXPECT_STREQ(ToString(FaultType::kRandom), "Random");
  EXPECT_STREQ(ToString(FaultType::kMin), "Min");
  EXPECT_STREQ(ToString(FaultType::kMax), "Max");
  EXPECT_STREQ(ToString(FaultType::kNoise), "Noise");
  EXPECT_STREQ(ToString(FaultTarget::kAccelerometer), "Acc");
  EXPECT_STREQ(ToString(FaultTarget::kGyrometer), "Gyro");
  EXPECT_STREQ(ToString(FaultTarget::kImu), "IMU");
}

// One token table serves the CLI, the `.repro` files and fault_demo: every
// value must parse back from its own token, and near misses must not parse.
TEST(FaultModel, TokensRoundTripAndRejectUnknown) {
  for (const FaultType t : kAllFaultTypes) EXPECT_EQ(ParseFaultType(Token(t)), t);
  for (const FaultType t : kExtendedFaultTypes) EXPECT_EQ(ParseFaultType(Token(t)), t);
  for (const FaultTarget t : kAllFaultTargets) EXPECT_EQ(ParseFaultTarget(Token(t)), t);
  EXPECT_STREQ(Token(FaultType::kStuckAxis), "stuck-axis");
  EXPECT_STREQ(Token(FaultTarget::kGyrometer), "gyro");

  for (const char* bad : {"zerso", "IMU", ""}) {
    EXPECT_EQ(ParseFaultType(bad), std::nullopt) << bad;
    EXPECT_EQ(ParseFaultTarget(bad), std::nullopt) << bad;
  }
}

TEST(FaultModel, LabelsMatchTable3Rows) {
  EXPECT_EQ(FaultLabel(FaultTarget::kAccelerometer, FaultType::kFreeze), "Acc Freeze");
  EXPECT_EQ(FaultLabel(FaultTarget::kGyrometer, FaultType::kMin), "Gyro Min");
  EXPECT_EQ(FaultLabel(FaultTarget::kImu, FaultType::kFixed), "IMU Fixed Value");
}

// ---- Edge parameters (fuzzer-generated extremes) ----

// A zero-duration window is never active — not even at its own start
// instant (the window is half-open: [start, start + duration)).
TEST(FaultSpec, ZeroDurationNeverActive) {
  FaultSpec f;
  f.start_time_s = 90.0;
  f.duration_s = 0.0;
  EXPECT_FALSE(f.ActiveAt(90.0));
  EXPECT_FALSE(f.ActiveAt(90.0 - 1e-9));
  EXPECT_FALSE(f.ActiveAt(90.0 + 1e-9));
}

// Onset at t = 0 is valid: the fault is live from the very first sample
// (pre-takeoff), and still closes after its duration.
TEST(FaultSpec, OnsetAtTimeZero) {
  FaultSpec f;
  f.start_time_s = 0.0;
  f.duration_s = 5.0;
  EXPECT_TRUE(f.ActiveAt(0.0));
  EXPECT_TRUE(f.ActiveAt(4.999));
  EXPECT_FALSE(f.ActiveAt(5.0));
  EXPECT_FALSE(f.ActiveAt(-0.001));
}

// A window entirely past the mission's end never activates during flight;
// a window opening in-flight but outlasting the mission stays active for
// every remaining instant.
TEST(FaultSpec, WindowBeyondMissionEnd) {
  FaultSpec late;
  late.start_time_s = 1.0e4;  // far beyond any flight
  late.duration_s = 30.0;
  for (double t = 0.0; t < 600.0; t += 7.3) EXPECT_FALSE(late.ActiveAt(t));

  FaultSpec outlasting;
  outlasting.start_time_s = 90.0;
  outlasting.duration_s = 1.0e6;
  EXPECT_TRUE(outlasting.ActiveAt(90.0));
  EXPECT_TRUE(outlasting.ActiveAt(599.0));  // still on at mission timeout
}

}  // namespace
}  // namespace uavres::core
