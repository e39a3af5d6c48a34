// Allocation-count regression guard for the estimator hot path.
//
// This binary replaces global operator new/delete with counting wrappers
// (which is why it is its own test target: the override is process-wide).
// After a warm-up, a sustained EKF predict/update workload must perform
// ZERO heap allocations — the fixed-size stack matrices in src/math are the
// whole point. If someone reintroduces a heap-allocating temporary in
// PredictImu/FuseScalar, this fails with the exact allocation count.
//
// The same allocator also records the largest single allocation, which
// bounds what the artifact readers allocate for a hostile count field.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "../telemetry/codec_fixtures.h"
#include "core/scenario.h"
#include "estimation/ekf.h"
#include "math/vec3.h"
#include "sensors/samples.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::size_t> g_largest_alloc{0};

void* NoteAlloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen &&
         !g_largest_alloc.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlloc(std::size_t n) {
  if (void* p = NoteAlloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return NoteAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return NoteAlloc(n); }
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

namespace uavres {
namespace {

std::string Le32(std::uint32_t v) { return codec_fixtures::Le64(v).substr(0, 4); }
std::string LeF64(double v) { return codec_fixtures::Le64(std::bit_cast<std::uint64_t>(v)); }

/// One count or length field of a fixture: it starts `delta` bytes after the
/// first match of `pattern`, spans `width` bytes, and `max` is the largest
/// value its reader accepts.
struct CountField {
  std::string fixture;
  std::string pattern;
  std::size_t delta;
  int width;
  std::uint64_t max;
};

std::vector<CountField> CountFields() {
  std::vector<CountField> fields = {
      {"uvrs_gold", Le32(10) + "VLC-04 W-E", 0, 4, 4096},
      {"uvrs_gold", Le32(4) + "none", 0, 4, 4096},
      {"uvrs_gold", Le32(3) + LeF64(10.0), 0, 4, telemetry::kMaxTrajectorySamples},
      {"uvrs_faulty", Le32(6) + "VLC-08", 0, 4, 4096},
      {"uvrs_faulty", Le32(8) + "tip-over", 0, 4, 4096},
      {"uvfl_entry", Le32(2) + Le32(7) + Le32(8) + "convoy-7", 0, 4,
       telemetry::kMaxFleetDrones},
      {"uvfl_entry", Le32(8) + "convoy-7", 0, 4, telemetry::kMaxFleetNameLen},
      {"uvfl_entry", Le32(8) + "convoy-8", 0, 4, telemetry::kMaxFleetNameLen},
      {"uvfl_entry", Le32(2) + Le32(7) + Le32(8) + LeF64(40.5), 0, 4,
       telemetry::kMaxFleetEvents},
      {"uvsnap", Le32(6) + "VLC-05", 0, 4, telemetry::kMaxNameLen},
      {"uvsnap", Le32(2) + Le32(3) + codec_fixtures::Le64(5), 0, 4,
       telemetry::kMaxSnapshotSections},
      {"uvsnap", Le32(3) + codec_fixtures::Le64(5), 4, 8, telemetry::kMaxSnapshotSectionBytes},
      {"uvsnap", Le32(14) + codec_fixtures::Le64(3), 4, 8,
       telemetry::kMaxSnapshotSectionBytes},
      {"uvrl", "UVRL", 8, 4, telemetry::kMaxTrajectorySamples},
      {"uvrl", "UVRL", 12, 4, 1'000'000},
      {"uvrl", Le32(15) + "mode -> takeoff", 0, 4, 65'536},
      {"uvrl", Le32(19) + "fault window opened", 0, 4, 65'536},
      {"uvrl", Le32(16) + "FAILSAFE engaged", 0, 4, 65'536},
      {"wire_hello", Le32(14) + "fixture-client", 0, 4, telemetry::kMaxWireStringLen},
      {"wire_submit_batch", Le32(2) + codec_fixtures::Le64(11), 0, 4,
       telemetry::kMaxSpecsPerBatch},
      {"wire_result", codec_fixtures::Le64(31) + '\x02', 9, 4,
       telemetry::kMaxFramePayloadBytes},
      {"wire_reject", Le32(26) + "mission_index out of range", 0, 4,
       telemetry::kMaxWireStringLen},
      {"wire_stats_reply", Le32(21) + "{\"serve.requests\":51}", 0, 4,
       telemetry::kMaxFramePayloadBytes},
  };
  for (const auto& f : codec_fixtures::All()) {
    if (f.kind == codec_fixtures::Kind::kWireFrame) {
      fields.push_back({f.name, "", 0, 4, telemetry::kMaxFramePayloadBytes});  // frame length
    }
  }
  return fields;
}

// A count or length field set to the largest value its reader accepts must
// fail to decode without any allocation sized by that count: the reader
// checks the count against the bytes left before it allocates.
TEST(AllocRegression, HostileCountsFailWithoutAllocatingBeyondTheInput) {
  const auto fixtures = codec_fixtures::All();
  for (const auto& f : fixtures) {  // warm-up: lazily sized element layouts
    ASSERT_TRUE(codec_fixtures::Reencode(f, f.bytes).has_value()) << f.name;
  }
  for (const auto& field : CountFields()) {
    const auto f = std::find_if(fixtures.begin(), fixtures.end(),
                                [&](const auto& x) { return x.name == field.fixture; });
    ASSERT_NE(f, fixtures.end()) << field.fixture;
    const std::size_t at = f->bytes.find(field.pattern);
    ASSERT_NE(at, std::string::npos) << field.fixture << ": pattern not found";
    std::string bytes = f->bytes;
    for (int i = 0; i < field.width; ++i) {
      bytes[at + field.delta + static_cast<std::size_t>(i)] =
          static_cast<char>(field.max >> (8 * i));
    }

    bool decoded = false;
    if (f->kind == codec_fixtures::Kind::kWireFrame) {
      telemetry::FrameReader reader;
      reader.Feed(bytes.data(), bytes.size());  // receipt copies the input
      g_largest_alloc.store(0);
      const auto frame = reader.Next();
      decoded = frame && codec_fixtures::ReencodeFrame(*frame).has_value();
    } else {
      g_largest_alloc.store(0);
      decoded = codec_fixtures::Reencode(*f, bytes).has_value();
    }
    const std::size_t largest = g_largest_alloc.load();
    const std::string where = field.fixture + " @" + std::to_string(at + field.delta);
    EXPECT_FALSE(decoded) << where << " decoded with its count at the maximum";
    EXPECT_LE(largest, bytes.size()) << where << " allocated " << largest << " bytes";
  }
}

}  // namespace
}  // namespace uavres
