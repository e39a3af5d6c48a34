// Checks of the benchmark's own arithmetic (stats.h). Exits non-zero on the
// first failed check, naming it.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::fmax(1.0, std::fabs(b)); }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest-rank percentiles.
  Check(Percentile(OneTo(100), 0.50) == 50.0, "p50 of 1..100 is 50");
  Check(Percentile(OneTo(100), 0.99) == 99.0, "p99 of 1..100 is 99");
  Check(Percentile(OneTo(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Check(Percentile(OneTo(1), 0.99) == 1.0, "p99 of one sample is that sample");
  Check(Percentile({3.0, 1.0, 2.0}, 0.5) == 2.0, "median of three");
  Check(Median({4.0, 1.0, 3.0, 2.0}) == 2.0, "median of four is the lower middle");
  Check(std::isnan(Percentile({}, 0.5)), "empty sample has no percentile");

  // A percentile is reported only with ten samples beyond it.
  Check(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Check(PercentileSupported(1000, 0.99), "p99 is supported by 1000 samples");
  Check(!PercentileSupported(999, 0.99), "p99 is not supported by 999 samples");
  Check(SamplesBeyond(170, 0.99) == 1, "170 samples leave 1 beyond p99");
  Check(PercentileSupported(20, 0.5), "p50 is supported by 20 samples");
  Check(!PercentileSupported(19, 0.5), "p50 is not supported by 19 samples");
  Check(PercentileSupported(100, 0.9) && !PercentileSupported(99, 0.9),
        "p90 needs 100 samples (0.9 x 100 must not round a rank up)");
  Check(SamplesBeyond(0, 0.99) == 0, "no samples, none beyond");

  // Efficiencies.
  Check(Near(ParallelEff(8.0, 4, 2.0), 1.0), "4 threads busy for 2 s is 8 CPU-s");
  Check(Near(ParallelEff(3.0, 4, 1.0), 0.75), "3 CPU-s over 4 thread-seconds");
  Check(Near(ScalingEff(8.0, 2.0, 4), 1.0), "4x on 4 threads is perfect scaling");
  Check(Near(ScalingEff(6.0, 2.0, 4), 0.75), "3x on 4 threads is 75%");

  // Failure share.
  Check(FailedFrac(0, 1029) == 0.0, "no failures");
  Check(Near(FailedFrac(1, 4), 0.25), "one in four");
  Check(FailedFrac(0, 0) == 1.0, "nothing attempted counts as failed");

  // Result line: names, units, all digits, order kept.
  const std::string line =
      ResultLine(true, 170, 0, {{"results_per_s", "1/s", 19.6875}, {"setup_s", "s", 0.1}});
  Check(line == "{\"correct\": true, \"attempted\": 170, \"failed\": 0, \"metrics\": "
                "{\"results_per_s\": {\"value\": 19.6875, \"unit\": \"1/s\"}, "
                "\"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}}}",
        "result line format");
  Check(FormatNumber(0.1 + 0.2) == "0.30000000000000004", "numbers keep all their digits");
  Check(FormatNumber(44.0) == "44", "whole numbers print without a fraction");
  Check(FormatNumber(std::nan("")) == "null", "non-finite values print as null");
  Check(ResultLine(false, 3, 1, {}) ==
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}",
        "failed run line");

  if (g_failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
