// The benchmark's own arithmetic: percentiles, efficiencies, failure share
// and the one-line JSON result. Header-only and free of simulator types so
// stats_test.cpp can check it in isolation.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the q-percentile among n samples. The epsilon
/// keeps q·n that is whole in decimal (0.9 · 100) from rounding up a rank.
inline std::size_t Rank(std::size_t n, double q) {
  return static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
}

/// Nearest-rank percentile: the smallest sample with at least q·n samples at
/// or below it. `q` in (0, 1]. NaN for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t rank = Rank(v.size(), q);
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Samples strictly above the nearest-rank q-percentile of an n-sample set.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  return n - std::min(Rank(n, q), n);
}

/// Whether a q-percentile over n samples has the ten samples beyond it that
/// make it worth reporting.
inline bool PercentileSupported(std::size_t n, double q) { return SamplesBeyond(n, q) >= 10; }

/// CPU seconds spent per available thread-second: 1.0 means every thread
/// was busy for the whole wall interval.
inline double ParallelEff(double cpu_s, int threads, double wall_s) {
  return cpu_s / (static_cast<double>(threads) * wall_s);
}

/// Speed-up over one thread, per thread: t1 / (threads · tN).
inline double ScalingEff(double wall_1t_s, double wall_nt_s, int threads) {
  return wall_1t_s / (static_cast<double>(threads) * wall_nt_s);
}

/// Share of attempted operations that failed or gave a wrong answer.
inline double FailedFrac(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

/// One named metric with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};
};

/// Shortest decimal that reads back as exactly `v` (all its digits, none
/// invented); `null` for a non-finite value, which JSON cannot carry.
inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// The result line: {"correct": .., "attempted": .., "failed": ..,
/// "metrics": {"name": {"value": .., "unit": ".."}, ...}} in the given order.
/// Names and units are restricted to [A-Za-z0-9_./%-], so they need no
/// escaping.
inline std::string ResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
