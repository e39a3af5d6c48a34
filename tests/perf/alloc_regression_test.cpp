// Allocation-count regression guard for the estimator hot path.
//
// This binary replaces global operator new/delete with counting wrappers
// (which is why it is its own test target: the override is process-wide).
// After a warm-up, a sustained EKF predict/update workload must perform
// ZERO heap allocations — the fixed-size stack matrices in src/math are the
// whole point. If someone reintroduces a heap-allocating temporary in
// PredictImu/FuseScalar, this fails with the exact allocation count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "core/scenario.h"
#include "estimation/ekf.h"
#include "math/vec3.h"
#include "sensors/samples.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace uavres::estimation {
namespace {

constexpr double kDt = 1.0 / 250.0;

sensors::ImuSample HoverImu(double t) {
  sensors::ImuSample imu;
  imu.t = t;
  imu.accel_mps2 = {0.02 * std::sin(3.0 * t), -0.015 * std::cos(2.0 * t), -9.81};
  imu.gyro_rads = {0.01 * std::cos(5.0 * t), 0.008 * std::sin(4.0 * t), 0.002};
  return imu;
}

std::uint64_t Allocs() { return g_alloc_count.load(std::memory_order_relaxed); }

TEST(AllocRegression, EkfPredictAndFusePerformZeroHeapAllocations) {
  Ekf ekf;
  ekf.InitAtRest({0.0, 0.0, -10.0}, 0.3);

  // Warm-up: one full sensor cycle so any lazily-built state exists.
  double t = 0.0;
  for (int i = 0; i < 500; ++i, t += kDt) {
    ekf.PredictImu(HoverImu(t), kDt);
    if (i % 50 == 0) {
      ekf.FuseGps({t, {0.0, 0.0, -10.0}, {0.0, 0.0, 0.0}, true});
      ekf.FuseBaro({t, 10.0});
      ekf.FuseMag({t, {0.21, 0.0, 0.43}});
    }
  }

  const std::uint64_t before = Allocs();
  for (int i = 0; i < 10000; ++i, t += kDt) {
    ekf.PredictImu(HoverImu(t), kDt);
    if (i % 50 == 0) {
      ekf.FuseGps({t, {0.0, 0.0, -10.0}, {0.0, 0.0, 0.0}, true});
      ekf.FuseBaro({t, 10.0});
      ekf.FuseMag({t, {0.21, 0.0, 0.43}});
    }
  }
  const std::uint64_t allocs = Allocs() - before;

  EXPECT_EQ(allocs, 0u) << "EKF predict/update performed " << allocs
                        << " heap allocations over 10000 steps";
  EXPECT_TRUE(ekf.status().numerically_healthy);
}

// The full bus-decomposed flight stack must also be allocation-free in
// cruise: every module publishes by value into preallocated topics, and the
// flight log only allocates on events (fault windows, failsafes), none of
// which fire in a nominal cruise. Constructors may allocate; Step() may not.
TEST(AllocRegression, UavCruiseStepPerformsZeroHeapAllocations) {
  const auto& spec = core::SharedValenciaScenario()[0];
  uav::Uav uav(uav::MakeUavConfig(spec), spec.plan, std::nullopt, 2024);

  // Warm-up: take off and settle into cruise (20 s at 250 Hz).
  for (int i = 0; i < 5000; ++i) uav.Step();
  ASSERT_TRUE(uav.airborne_seen());

  const std::uint64_t before = Allocs();
  for (int i = 0; i < 5000; ++i) uav.Step();
  const std::uint64_t allocs = Allocs() - before;

  EXPECT_EQ(allocs, 0u) << "Uav::Step performed " << allocs
                        << " heap allocations over 5000 cruise steps";
  EXPECT_TRUE(uav.ekf().status().numerically_healthy);
}

// The detector + failover layer rides the same hot path (two bus
// interceptors per step, a complementary filter update, the CUSUM state
// machine), so the zero-allocation contract extends to it verbatim.
TEST(AllocRegression, DetectorEnabledCruiseStepPerformsZeroHeapAllocations) {
  const auto& spec = core::SharedValenciaScenario()[0];
  uav::UavConfig cfg = uav::MakeUavConfig(spec);
  cfg.detector.enabled = true;
  uav::Uav uav(cfg, spec.plan, std::nullopt, 2024);

  for (int i = 0; i < 5000; ++i) uav.Step();
  ASSERT_TRUE(uav.airborne_seen());

  const std::uint64_t before = Allocs();
  for (int i = 0; i < 5000; ++i) uav.Step();
  const std::uint64_t allocs = Allocs() - before;

  EXPECT_EQ(allocs, 0u) << "detector-enabled Uav::Step performed " << allocs
                        << " heap allocations over 5000 cruise steps";
  EXPECT_TRUE(uav.ekf().status().numerically_healthy);
  EXPECT_EQ(uav.detector().state(), estimation::DetectorState::kNominal);
}

}  // namespace
}  // namespace uavres::estimation
