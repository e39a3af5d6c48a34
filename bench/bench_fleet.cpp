// Fleet-engine throughput bench (BENCH_fleet.json; tools/compare_bench.py).
//
// Drone-steps/sec at N drones (DESIGN.md §18): FleetRunner on one thread vs
// on every thread. Both runs step the identical fleet, so the speedup is a
// pure wall ratio, and their serialized FleetRecords must be byte-identical
// (oracle_ok), which is what licenses comparing them at all. The >=5x
// thread-scaling headline needs cores; compare_bench.py gates it only when
// the recorded machine has them.
//
// Emits schema-1 JSON ("bench": "fleet") with the environment block the
// comparison script uses to decide which gates apply.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/fleet_codec.h"
#include "uspace/fleet_experiment.h"

// Injected by bench/CMakeLists.txt; part of the JSON environment block.
#ifndef UAVRES_BUILD_TYPE
#define UAVRES_BUILD_TYPE "unknown"
#endif

namespace {

using namespace uavres;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed fleet run: its wall time, simulated drone-steps (per-flight
/// duration times the control rate) and serialized record.
struct FleetMeasurement {
  double wall_s{0.0};
  double drone_steps{0.0};
  std::string record;
};

FleetMeasurement TimeFleet(const core::FleetExperimentSpec& spec, int threads) {
  const auto fleet = uspace::BuildFleetScenario(spec);
  uspace::FleetExecutionKnobs knobs;
  knobs.num_threads = threads;
  const uspace::FleetRunner runner(uspace::MakeFleetRunConfig(spec, knobs));
  FleetMeasurement m;
  const double t0 = Now();
  const auto out = runner.Run(fleet, spec.seed_base);
  m.wall_s = Now() - t0;
  const double rate_hz = uav::UavConfig{}.control_rate_hz;
  for (const auto& d : out.drones) m.drone_steps += d.flight_duration_s * rate_hz;
  std::ostringstream os;
  telemetry::WriteFleetRecord(os, uspace::ToFleetRecord(spec, out));
  m.record = os.str();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  int drones = 100;
  double leg_m = 600.0;
  int threads = 0;  // hardware concurrency
  std::string out_path = "BENCH_fleet.json";
  for (int i = 1; i < argc - 1; ++i) {
    const std::string a = argv[i];
    if (a == "--drones") drones = std::atoi(argv[++i]);
    else if (a == "--leg") leg_m = std::atof(argv[++i]);
    else if (a == "--threads") threads = std::atoi(argv[++i]);
    else if (a == "--out") out_path = argv[++i];
  }

  core::FleetExperimentSpec spec;
  spec.num_drones = drones;
  spec.leg_length_m = leg_m;
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.duration_s = 30.0;
  spec.fault = fault;
  spec.faulted_drone = drones / 2;

  std::printf("fleet bench: %d drones, %.0f m legs\n", drones, leg_m);

  const FleetMeasurement one = TimeFleet(spec, 1);
  const double one_rate = one.drone_steps / one.wall_s;
  std::printf("  1 thread : %8.2f s wall, %.0f drone-steps (%.3g steps/s)\n", one.wall_s,
              one.drone_steps, one_rate);
  const FleetMeasurement all = TimeFleet(spec, threads);
  const double all_rate = all.drone_steps / all.wall_s;
  const double speedup = one.wall_s / all.wall_s;
  std::printf("  threads  : %8.2f s wall (%.3g steps/s, %.2fx)\n", all.wall_s, all_rate,
              speedup);

  // Oracle: the thread count must not change a single byte of the record.
  const bool oracle_ok = one.record == all.record;
  std::printf("  oracle   : %s\n", oracle_ok ? "MATCH" : "MISMATCH");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_fleet: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": 1,\n"
               "  \"bench\": \"fleet\",\n"
               "  \"environment\": {\n"
               "    \"build_type\": \"%s\",\n"
               "    \"hardware_concurrency\": %u,\n"
               "    \"threads\": %d,\n"
               "    \"drones\": %d,\n"
               "    \"leg_m\": %.0f\n"
               "  },\n"
               "  \"fleet\": {\n"
               "    \"drone_steps\": %.0f,\n"
               "    \"one_thread_steps_per_sec\": %.1f,\n"
               "    \"fleet_steps_per_sec\": %.1f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"oracle_ok\": %s\n"
               "  }\n"
               "}\n",
               UAVRES_BUILD_TYPE, std::thread::hardware_concurrency(), threads,
               drones, leg_m, one.drone_steps, one_rate, all_rate, speedup,
               oracle_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // The structural gate fails the bench itself, not just the comparison.
  return oracle_ok ? 0 : 1;
}
