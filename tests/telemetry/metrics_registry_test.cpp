#include "telemetry/metrics_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

namespace uavres::telemetry {
namespace {

TEST(Counter, StartsAtZeroAndIncrements) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  EXPECT_EQ(c.Value(), 1u);
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

// Property: the counter never loses an increment — K threads x M increments
// each produce exactly K*M, regardless of shard assignment or interleaving.
TEST(Counter, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 100000;
  Counter c;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.Increment();
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

// Property: Value() observed by a concurrent reader is monotonic (sharded
// sums may be stale but can never go backwards while writers only add).
TEST(Counter, ValueIsMonotonicUnderConcurrentWrites) {
  Counter c;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c.Increment();
    });
  }
  std::uint64_t last = 0;
  bool monotonic = true;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = c.Value();
    if (v < last) monotonic = false;
    last = v;
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_TRUE(monotonic);
}

TEST(Histogram, BucketsByUpperBoundWithOverflow) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // == bound -> that bucket (le semantics)
  h.Observe(5.0);    // <= 10
  h.Observe(1000.0); // overflow
  const auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 1006.5);
}

// Property: concurrent observations never lose a sample — bucket counts sum
// to the total count, and the total is exact.
TEST(Histogram, ConcurrentObservationsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kSamples = 50000;
  Histogram h({0.25, 0.5, 0.75});
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&h, t] {
      for (int i = 0; i < kSamples; ++i) {
        h.Observe(static_cast<double>((i + t) % 100) / 100.0);
      }
    });
  }
  for (auto& th : pool) th.join();
  const auto counts = h.BucketCounts();
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kSamples);
  EXPECT_EQ(h.Count(), total);
}

TEST(MetricsRegistry, SameNameYieldsSameCounter) {
  auto& reg = MetricsRegistry::Global();
  Counter& a = reg.GetCounter("test.registry.same");
  Counter& b = reg.GetCounter("test.registry.same");
  EXPECT_EQ(&a, &b);
  const std::uint64_t before = a.Value();
  b.Increment();
  EXPECT_EQ(a.Value(), before + 1);
}

// Registered objects must survive ResetValues(): the instrumentation macros
// cache references in function-local statics for the process lifetime.
TEST(MetricsRegistry, ResetZeroesButKeepsObjects) {
  auto& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("test.registry.reset");
  c.Increment(7);
  EXPECT_GE(c.Value(), 7u);
  reg.ResetValues();
  EXPECT_EQ(c.Value(), 0u);           // same object, zeroed
  EXPECT_EQ(&reg.GetCounter("test.registry.reset"), &c);
  c.Increment();
  EXPECT_EQ(c.Value(), 1u);
}

// Concurrent first-touch registration of overlapping names must neither
// crash nor duplicate: every thread's cached reference ends up aliasing one
// object per name, and the total across names is exact.
TEST(MetricsRegistry, ConcurrentRegistrationIsSafe) {
  auto& reg = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  constexpr int kNames = 16;
  constexpr int kIncrements = 2000;
  std::vector<std::uint64_t> base(kNames);
  for (int n = 0; n < kNames; ++n) {
    base[static_cast<std::size_t>(n)] =
        reg.GetCounter("test.registry.race." + std::to_string(n)).Value();
  }
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      for (int i = 0; i < kIncrements; ++i) {
        reg.GetCounter("test.registry.race." + std::to_string(i % kNames)).Increment();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (int n = 0; n < kNames; ++n) {
    const auto v = reg.GetCounter("test.registry.race." + std::to_string(n)).Value();
    EXPECT_EQ(v - base[static_cast<std::size_t>(n)],
              static_cast<std::uint64_t>(kThreads) * (kIncrements / kNames))
        << "name index " << n;
  }
}

TEST(MetricsRegistry, GetHistogramFixesBoundsOnFirstUse) {
  auto& reg = MetricsRegistry::Global();
  Histogram& a = reg.GetHistogram("test.registry.hist", {1.0, 2.0});
  Histogram& b = reg.GetHistogram("test.registry.hist", {9.0});  // ignored
  EXPECT_EQ(&a, &b);
  ASSERT_EQ(a.upper_bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(a.upper_bounds()[0], 1.0);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("test.snapshot.b");
  reg.GetCounter("test.snapshot.a");
  const auto snap = reg.SnapshotCounters();
  ASSERT_GE(snap.size(), 2u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
}

TEST(MetricsRegistry, WriteJsonEmitsBothSections) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("test.json.counter").Increment(3);
  reg.GetHistogram("test.json.hist", {5.0}).Observe(2.0);
  std::ostringstream os;
  reg.WriteJson(os);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"test.json.counter\""), std::string::npos);
  EXPECT_NE(doc.find("\"test.json.hist\""), std::string::npos);
}

TEST(MetricsMacros, CountAndObserveHitTheGlobalRegistry) {
  auto& reg = MetricsRegistry::Global();
  const auto before = reg.GetCounter("test.macro.count").Value();
  for (int i = 0; i < 5; ++i) UAVRES_COUNT("test.macro.count");
  UAVRES_COUNT_N("test.macro.count", 10);
  EXPECT_EQ(reg.GetCounter("test.macro.count").Value(), before + 15);

  const auto hits_before = reg.GetHistogram("test.macro.hist", {1.0}).Count();
  UAVRES_OBSERVE("test.macro.hist", 0.5, 1.0);
  EXPECT_EQ(reg.GetHistogram("test.macro.hist", {1.0}).Count(), hits_before + 1);
}

}  // namespace
}  // namespace uavres::telemetry
