// Campaign throughput baseline: the repo's wall-clock performance trajectory.
//
// Measures three things and emits them as BENCH_campaign.json (schema below)
// so every PR can be compared against the committed baseline by
// tools/compare_bench.py:
//
//   1. Campaign throughput — wall time and runs/sec of the (optionally
//      mission-limited) fault grid through the shared-cursor scheduler,
//      caching disabled so every run is computed ("campaign").
//   2. Step latency — per-step wall latency of one gold flight stepping the
//      Uav directly (p50/p99/mean in microseconds), plus a detector-enabled
//      repeat of the same flight ("step_latency_detector") whose delta is
//      the per-step cost of the IMU-fault detection + failover layer.
//   3. Steady-state allocations — this binary replaces global operator
//      new/delete with counting wrappers; after a warm-up the cruise phase
//      of a gold flight must execute ZERO heap allocations per step. The
//      same counter reports allocations per campaign run for context.
//
// Usage: bench_throughput [--missions N] [--threads N] [--durations a,b,...]
//                         [--out FILE]
// Env:   UAVRES_MISSIONS / UAVRES_THREADS as usual (flags win).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "app/command_line.h"
#include "core/campaign.h"
#include "core/scenario.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

// Injected by bench/CMakeLists.txt; part of the JSON environment block.
#ifndef UAVRES_BUILD_TYPE
#define UAVRES_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Counting allocator hook. Every operator new in the process funnels through
// these; the counter is relaxed-atomic so the hook itself stays cheap.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace uavres;

std::uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

struct StepStats {
  double p50_us{0.0};
  double p99_us{0.0};
  double mean_us{0.0};
  std::uint64_t steps{0};
  double steady_allocs_per_step{0.0};
  std::uint64_t steady_steps{0};
  std::uint64_t steady_allocs{0};
};

/// One gold flight of mission 0, stepped directly: per-step latency
/// distribution plus the steady-state (cruise) allocation count. With
/// `detector` the IMU-fault detection + failover layer runs too, so the
/// delta against the plain measurement is the detector's per-step overhead.
StepStats MeasureSteps(bool detector = false) {
  const auto& fleet = core::SharedValenciaScenario();
  const core::DroneSpec& spec = fleet[0];
  uav::UavConfig cfg = uav::MakeUavConfig(spec);
  cfg.detector.enabled = detector;
  uav::Uav vehicle(cfg, spec.plan, std::nullopt, 2024);

  const double max_time = spec.plan.ExpectedDuration();
  std::vector<double> lat_us;
  lat_us.reserve(static_cast<std::size_t>(max_time / vehicle.dt()) + 64);

  // Warm-up: fly through takeoff into the mission phase, then a margin so
  // every metrics counter/trace buffer reaches its cached steady state.
  while (vehicle.time() < max_time &&
         vehicle.commander().mode() != nav::FlightMode::kMission) {
    vehicle.Step();
  }
  for (std::uint64_t i = 0; i < 5000 && vehicle.time() < max_time; ++i) {
    vehicle.Step();
  }

  // Steady state = cruise: the mission phase after the takeoff transients.
  // Phase transitions (takeoff, touchdown) are event-driven and may log —
  // the per-step claim is about the flight loop itself.
  const std::uint64_t allocs_before = AllocCount();
  std::uint64_t steady_steps = 0;
  while (vehicle.time() < max_time &&
         vehicle.commander().mode() == nav::FlightMode::kMission &&
         !vehicle.crash_detector().crashed()) {
    const auto t0 = std::chrono::steady_clock::now();
    vehicle.Step();
    const auto t1 = std::chrono::steady_clock::now();
    lat_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++steady_steps;
  }
  const std::uint64_t steady_allocs = AllocCount() - allocs_before;

  StepStats s;
  s.steps = steady_steps;
  s.steady_steps = steady_steps;
  s.steady_allocs = steady_allocs;
  s.steady_allocs_per_step =
      steady_steps > 0 ? static_cast<double>(steady_allocs) / steady_steps : 0.0;
  if (!lat_us.empty()) {
    // The latency vector's own push_backs are reserved up front, so the
    // allocation count above is the simulator's, not the harness's.
    std::vector<double> sorted = lat_us;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (double v : sorted) sum += v;
    s.mean_us = sum / static_cast<double>(sorted.size());
    s.p50_us = sorted[sorted.size() / 2];
    s.p99_us = sorted[(sorted.size() * 99) / 100];
  }
  return s;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "[--missions N] [--threads N] [--durations a,b,...] [--out FILE]";
  const app::CommandLine cl = app::ParseCommandLine({argv + 1, argv + argc});
  core::CampaignConfig cfg;
  try {
    cl.CheckFlags(kUsage);
    const core::CampaignConfig env = core::CampaignConfig::FromEnvironment();
    core::CampaignConfig::Builder builder(env);
    builder.Missions(cl.FlagInt("missions", env.mission_limit))
        .Threads(cl.FlagInt("threads", env.num_threads))
        .CacheDir("");  // throughput means computing, not loading
    if (const auto d = cl.Flag("durations")) builder.Durations(app::ParseDoubleList(*d));
    cfg = builder.Build();
  } catch (const std::exception& e) {  // a UsageError or a config Build() rejects
    std::fprintf(stderr, "bench_throughput: %s\nusage: bench_throughput %s\n", e.what(),
                 kUsage);
    return 2;
  }
  const std::string out_path = cl.Flag("out").value_or("BENCH_campaign.json");

  // --- 1. Campaign throughput. ---
  const core::Campaign campaign(cfg);
  const std::uint64_t campaign_allocs_before = AllocCount();
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = campaign.Run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const std::uint64_t campaign_allocs = AllocCount() - campaign_allocs_before;
  const std::size_t runs = results.TotalRuns();
  const double runs_per_sec = runs > 0 && wall_s > 0.0 ? runs / wall_s : 0.0;

  // --- 2 + 3. Step latency and steady-state allocations. ---
  const StepStats steps = MeasureSteps();
  const StepStats detector_steps = MeasureSteps(/*detector=*/true);
  const double detector_overhead_pct =
      steps.mean_us > 0.0
          ? 100.0 * (detector_steps.mean_us - steps.mean_us) / steps.mean_us
          : 0.0;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_throughput: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"campaign_throughput\",\n"
               "  \"schema\": 1,\n"
               "  \"environment\": {\n"
               "    \"build_type\": \"%s\",\n"
               "    \"hardware_concurrency\": %u,\n"
               "    \"threads\": %d,\n"
               "    \"missions\": %zu,\n"
               "    \"durations\": %zu\n"
               "  },\n"
               "  \"campaign\": {\n"
               "    \"runs\": %zu,\n"
               "    \"wall_s\": %.3f,\n"
               "    \"runs_per_sec\": %.4f,\n"
               "    \"mean_run_ms\": %.3f,\n"
               "    \"allocs_per_run\": %.1f\n"
               "  },\n"
               "  \"step_latency_us\": {\n"
               "    \"p50\": %.3f,\n"
               "    \"p99\": %.3f,\n"
               "    \"mean\": %.3f,\n"
               "    \"steps\": %llu\n"
               "  },\n"
               "  \"step_latency_detector\": {\n"
               "    \"p50\": %.3f,\n"
               "    \"p99\": %.3f,\n"
               "    \"mean\": %.3f,\n"
               "    \"steps\": %llu,\n"
               "    \"heap_allocs\": %llu,\n"
               "    \"overhead_pct\": %.2f\n"
               "  },\n"
               "  \"steady_state\": {\n"
               "    \"steps\": %llu,\n"
               "    \"heap_allocs\": %llu,\n"
               "    \"allocs_per_step\": %.6f\n"
               "  },\n"
               "  \"out\": \"%s\"\n"
               "}\n",
               UAVRES_BUILD_TYPE, std::thread::hardware_concurrency(), cfg.num_threads,
               campaign.fleet().size(), cfg.durations.size(), runs, wall_s,
               runs_per_sec, runs > 0 ? 1000.0 * wall_s / runs : 0.0,
               runs > 0 ? static_cast<double>(campaign_allocs) / runs : 0.0,
               steps.p50_us, steps.p99_us, steps.mean_us,
               static_cast<unsigned long long>(steps.steps),
               detector_steps.p50_us, detector_steps.p99_us, detector_steps.mean_us,
               static_cast<unsigned long long>(detector_steps.steps),
               static_cast<unsigned long long>(detector_steps.steady_allocs),
               detector_overhead_pct,
               static_cast<unsigned long long>(steps.steady_steps),
               static_cast<unsigned long long>(steps.steady_allocs),
               steps.steady_allocs_per_step, JsonEscape(out_path).c_str());
  std::fclose(f);

  std::printf("campaign   : %zu runs in %.2fs  (%.2f runs/sec, %.1f ms/run)\n", runs,
              wall_s, runs_per_sec, runs > 0 ? 1000.0 * wall_s / runs : 0.0);
  std::printf("step       : p50 %.2fus  p99 %.2fus  mean %.2fus  (%llu steps)\n",
              steps.p50_us, steps.p99_us, steps.mean_us,
              static_cast<unsigned long long>(steps.steps));
  std::printf("detector   : p50 %.2fus  p99 %.2fus  mean %.2fus  (%+.1f%% overhead)\n",
              detector_steps.p50_us, detector_steps.p99_us, detector_steps.mean_us,
              detector_overhead_pct);
  std::printf("steady     : %llu allocs over %llu steps (%.6f allocs/step)\n",
              static_cast<unsigned long long>(steps.steady_allocs),
              static_cast<unsigned long long>(steps.steady_steps),
              steps.steady_allocs_per_step);
  std::printf("json       : %s\n", out_path.c_str());

  // The zero-allocation hot path is an acceptance criterion, not a soft
  // metric: fail loudly the moment a per-step allocation sneaks back in.
  if (steps.steady_allocs != 0) {
    std::fprintf(stderr,
                 "bench_throughput: FAIL — steady-state flight performed %llu heap "
                 "allocations (expected 0)\n",
                 static_cast<unsigned long long>(steps.steady_allocs));
    return 1;
  }
  if (detector_steps.steady_allocs != 0) {
    std::fprintf(stderr,
                 "bench_throughput: FAIL — detector-enabled steady-state flight "
                 "performed %llu heap allocations (expected 0)\n",
                 static_cast<unsigned long long>(detector_steps.steady_allocs));
    return 1;
  }
  return 0;
}
