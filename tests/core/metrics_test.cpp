#include "core/metrics.h"

#include <gtest/gtest.h>

namespace uavres::core {
namespace {

TEST(MissionResult, DefaultIsCompleted) {
  const MissionResult r;
  EXPECT_TRUE(r.Completed());
  EXPECT_FALSE(r.Failed());
  EXPECT_FALSE(r.CountsAsCrash());
  EXPECT_FALSE(r.CountsAsFailsafe());
}

TEST(MissionResult, CrashClassification) {
  MissionResult r;
  r.outcome = MissionOutcome::kCrashed;
  EXPECT_TRUE(r.Failed());
  EXPECT_TRUE(r.CountsAsCrash());
  EXPECT_FALSE(r.CountsAsFailsafe());
}

TEST(MissionResult, FailsafeClassification) {
  MissionResult r;
  r.outcome = MissionOutcome::kFailsafe;
  EXPECT_TRUE(r.Failed());
  EXPECT_FALSE(r.CountsAsCrash());
  EXPECT_TRUE(r.CountsAsFailsafe());
}

TEST(MissionResult, TimeoutCountsAsFailsafeClass) {
  MissionResult r;
  r.outcome = MissionOutcome::kTimeout;
  EXPECT_TRUE(r.Failed());
  EXPECT_FALSE(r.CountsAsCrash());
  EXPECT_TRUE(r.CountsAsFailsafe());
}

TEST(MissionResult, CrashAndFailsafeMutuallyExclusive) {
  for (auto outcome : {MissionOutcome::kCompleted, MissionOutcome::kCrashed,
                       MissionOutcome::kFailsafe, MissionOutcome::kTimeout}) {
    MissionResult r;
    r.outcome = outcome;
    EXPECT_FALSE(r.CountsAsCrash() && r.CountsAsFailsafe());
    // Every failed mission lands in exactly one Table-IV bucket.
    if (r.Failed()) {
      EXPECT_TRUE(r.CountsAsCrash() || r.CountsAsFailsafe());
    }
  }
}

TEST(MissionOutcome, Names) {
  EXPECT_STREQ(ToString(MissionOutcome::kCompleted), "completed");
  EXPECT_STREQ(ToString(MissionOutcome::kCrashed), "crashed");
  EXPECT_STREQ(ToString(MissionOutcome::kFailsafe), "failsafe");
  EXPECT_STREQ(ToString(MissionOutcome::kTimeout), "timeout");
}

}  // namespace
}  // namespace uavres::core
