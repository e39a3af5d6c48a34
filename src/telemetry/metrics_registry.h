// Process-wide registry of named counters and fixed-bucket histograms.
//
// Unlike the trace recorder (telemetry/trace.h), which measures wall time,
// every value here is a deterministic function of the simulated work — the
// campaign's counters are exact test oracles ("a sustained gyro fault
// produces exactly N isolation switches before failsafe").
//
// Performance model:
//   * Counter::Increment is one relaxed fetch_add on a cache-line-padded
//     shard selected per thread, so 16 campaign workers bumping
//     `ekf.predicts` at 250 Hz each never contend on one cache line.
//   * `UAVRES_COUNT(name)` resolves the registry lookup once per call site
//     (function-local static) — the steady-state cost is the shard add.
//
// Counters are monotonic (increment-only) between ResetValues() calls.
// ResetValues() zeroes values but never destroys Counter/Histogram objects,
// so references cached by the macros stay valid for the process lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace uavres::telemetry {

/// Monotonic counter, sharded to keep concurrent increments uncontended.
/// Value() sums the shards — exact once writers quiesce (fetch_add never
/// loses increments; a mid-flight read may simply be momentarily stale).
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  /// Zeroes the counter (not linearizable against concurrent increments;
  /// call with writers quiesced, as ResetValues() documents).
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr int kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static int ShardIndex();

  Shard shards_[kShards];
};

/// Fixed-bucket histogram: counts per upper bound plus an implicit +inf
/// overflow bucket, with total count and sum for mean computation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; size is upper_bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> BucketCounts() const;
  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;
  void Reset();

 private:
  std::vector<double> bounds_;  ///< ascending upper bounds
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  ///< CAS-updated double bit pattern
};

/// Flattened registry state (for tests, the CLI summary table, and JSON).
struct CounterSnapshot {
  std::string name;
  std::uint64_t value;
};

/// Thread-safe name -> metric registry. Get* registers on first use and
/// returns the same object forever after.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);

  /// First caller fixes the bucket bounds; later calls ignore `upper_bounds`.
  Histogram& GetHistogram(std::string_view name, std::vector<double> upper_bounds);

  /// Zeroes every value, keeping all registered objects alive (macro-cached
  /// references stay valid). Call with instrumented threads quiesced.
  void ResetValues();

  /// All counters, sorted by name (zero-valued ones included).
  std::vector<CounterSnapshot> SnapshotCounters() const;

  /// `{"counters": {...}, "histograms": {...}}` — schema in DESIGN.md §10.
  void WriteJson(std::ostream& os) const;

  /// Human-readable table for the campaign-end summary (omits zero-valued
  /// counters to keep the table focused on what actually happened).
  std::string FormatSummaryTable() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace uavres::telemetry

/// Increment the named counter by 1. `name` must be a constant expression
/// per call site (the lookup is cached in a function-local static).
#define UAVRES_COUNT(name) UAVRES_COUNT_N(name, 1)
#define UAVRES_COUNT_N(name, n)                                            \
  do {                                                                     \
    static ::uavres::telemetry::Counter& uavres_counter_ =                 \
        ::uavres::telemetry::MetricsRegistry::Global().GetCounter(name);   \
    uavres_counter_.Increment(static_cast<std::uint64_t>(n));              \
  } while (0)
/// Observe `value` in the named histogram; trailing arguments are the
/// ascending bucket upper bounds, fixed on first use.
#define UAVRES_OBSERVE(name, value, ...)                                   \
  do {                                                                     \
    static ::uavres::telemetry::Histogram& uavres_hist_ =                  \
        ::uavres::telemetry::MetricsRegistry::Global().GetHistogram(       \
            name, std::vector<double>{__VA_ARGS__});                       \
    uavres_hist_.Observe(value);                                           \
  } while (0)
