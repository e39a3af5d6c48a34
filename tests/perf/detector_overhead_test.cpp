// Per-step cost guard for the recovery axis (DESIGN.md §15): with the
// IMU-fault detector and failover enabled, a cruise step may cost at most
// 25 % more than a plain one.
//
// A plain and a detector-enabled vehicle fly mission 0's cruise on this
// thread in alternating blocks of steps, and each block's thread CPU time
// is charged to the vehicle that flew it. Time spent descheduled is not
// counted, and a machine that speeds up or slows down mid-round does so for
// both vehicles, so the ratio holds on a busy or shared machine. The
// smallest ratio of three rounds is checked, so one disturbed round cannot
// fail it.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <limits>

#include "core/scenario.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace uavres::uav {
namespace {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Thread CPU seconds that `steps` steps of `vehicle` take.
double TimedSteps(Uav& vehicle, int steps) {
  const double t0 = ThreadCpuSeconds();
  for (int i = 0; i < steps; ++i) vehicle.Step();
  return ThreadCpuSeconds() - t0;
}

bool Cruising(const Uav& vehicle) {
  return vehicle.commander().mode() == nav::FlightMode::kMission &&
         !vehicle.crash_detector().crashed();
}

TEST(DetectorOverhead, DetectorEnabledCruiseStepCostsAtMostAQuarterMore) {
  const auto& spec = core::SharedValenciaScenario()[0];
  UavConfig detector_cfg = MakeUavConfig(spec);
  detector_cfg.detector.enabled = true;

  constexpr int kRounds = 3;
  constexpr int kBlocks = 20;
  constexpr int kBlockSteps = 250;  // 1 s of flight at 250 Hz
  double best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kRounds; ++round) {
    Uav plain(MakeUavConfig(spec), spec.plan, std::nullopt, 2024);
    Uav detector(detector_cfg, spec.plan, std::nullopt, 2024);
    // Take off and settle into cruise (20 s) before timing anything.
    for (int i = 0; i < 5000; ++i) {
      plain.Step();
      detector.Step();
    }
    ASSERT_TRUE(Cruising(plain) && Cruising(detector));

    double plain_s = 0.0;
    double detector_s = 0.0;
    for (int b = 0; b < kBlocks; ++b) {
      plain_s += TimedSteps(plain, kBlockSteps);
      detector_s += TimedSteps(detector, kBlockSteps);
    }
    ASSERT_TRUE(Cruising(plain) && Cruising(detector));
    ASSERT_GT(plain_s, 0.0);
    best = std::min(best, detector_s / plain_s);
  }
  std::printf("detector-enabled / plain cruise step CPU time: %.3f (best of %d rounds)\n",
              best, kRounds);
  EXPECT_LE(best, 1.25) << "a detector-enabled cruise step costs " << best
                        << "x a plain one in the best of " << kRounds << " rounds";
}

}  // namespace
}  // namespace uavres::uav
