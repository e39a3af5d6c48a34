// perfbench: the uavres benchmark.
//
//   perfbench --workload paper_grid|fleet_n100|serve_mixed --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//   perfbench --list-metrics 1     # names and units, for run.py --test
//
// Prints an environment line, a detail line and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones (measured with tracing off); with --trace 1 they
// are the per-layer ones. See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload paper_grid|fleet_n100|serve_mixed "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

std::string NamesAndUnits(const std::vector<Metric>& metrics) {
  std::string s = "[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i == 0 ? "[" : ", [") + JsonString(metrics[i].name) + ", " +
         JsonString(metrics[i].unit) + "]";
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool list_metrics = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--list-metrics") {
      list_metrics = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (opt.seconds < 1) return Usage("--seconds must be positive");
  if (list_metrics) {
    std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
                NamesAndUnits(EndToEndMetrics(Outcome{})).c_str(),
                NamesAndUnits(LayerMetrics(Layers{})).c_str());
    return 0;
  }

  Outcome (*run)(const Options&, SpanRecorder&) = nullptr;
  if (opt.workload == "paper_grid") run = RunPaperGrid;
  if (opt.workload == "fleet_n100") run = RunFleet;
  if (opt.workload == "serve_mixed") run = RunServe;
  if (run == nullptr) return Usage("unknown --workload");

  std::printf("perfbench-env {\"build_type\": %s, \"compiler\": %s, \"hardware_concurrency\": %u, "
              "\"threads\": %d}\n",
              JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(PERFBENCH_COMPILER).c_str(),
              std::thread::hardware_concurrency(), Threads());
  std::fflush(stdout);

  try {
    std::filesystem::create_directories(opt.work_dir);
    SpanRecorder spans(opt.trace);
    const Outcome o = run(opt, spans);

    std::vector<Metric> metrics = opt.trace ? LayerMetrics(o.layers) : EndToEndMetrics(o);
    bool finite = true;
    for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);

    std::string detail = "perfbench-detail {\"workload\": " + JsonString(opt.workload) +
                         ", \"seed\": " + std::to_string(opt.seed) +
                         ", \"failed_frac\": " + FormatNumber(FailedFrac(o.failed, o.attempted)) +
                         ", \"latency_samples\": " + std::to_string(o.latency_samples) +
                         ", \"p99_samples_beyond\": " +
                         std::to_string(SamplesBeyond(o.latency_samples, 0.99));
    detail += ", \"rep_wall_s\": [";
    for (std::size_t i = 0; i < o.rep_wall_s.size(); ++i) {
      detail += (i == 0 ? "" : ", ") + FormatNumber(o.rep_wall_s[i]);
    }
    detail += "]";
    if (opt.trace) {
      const VehicleProfile& v = o.layers.vehicle;
      double modules = 0.0;
      for (double ns : v.module_ns) modules += ns;
      const std::string trace_path =
          (std::filesystem::path(opt.work_dir) / ("trace-" + opt.workload + ".json")).string();
      const bool written = spans.WriteChromeTrace(trace_path);
      detail += ", \"profiled_steps\": " + std::to_string(v.steps) +
                ", \"modules_sum_ns\": " + FormatNumber(modules) +
                ", \"modules_within_overhead\": " +
                (std::fabs(modules - v.step_ns) <= v.tracing_overhead_ns ? "true" : "false") +
                ", \"bit_identical\": " + (v.bit_identical() ? "true" : "false") +
                ", \"spans\": " + std::to_string(spans.size()) +
                ", \"trace_file\": " + JsonString(written ? trace_path : "");
    }
    detail += ", \"errors\": [";
    for (std::size_t i = 0; i < o.errors.size(); ++i) {
      detail += (i == 0 ? "" : ", ") + JsonString(o.errors[i]);
    }
    detail += "]}";
    std::printf("%s\n", detail.c_str());
    for (const auto& e : o.errors) std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());

    std::printf("%s\n", ResultLine(o.failed == 0 && finite, o.attempted, o.failed, metrics).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
