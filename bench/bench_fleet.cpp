// Fleet-engine throughput bench (BENCH_fleet.json; tools/compare_bench.py).
//
// Two measurements back the fleet engine's claims (DESIGN.md §18):
//
//   1. Drone-steps/sec at N drones: FleetRunner on one thread vs on every
//      thread. Both runs step the identical fleet, so the speedup is a pure
//      wall ratio, and their serialized FleetRecords must be byte-identical
//      (oracle_ok), which is what licenses comparing them at all. The >=5x
//      thread-scaling headline needs cores; compare_bench.py gates it only
//      when the recorded machine has them.
//
//   2. Conflict-evaluation throughput: the exhaustive all-pairs detector vs
//      the uniform-grid broadphase on a synthetic N-drone airspace, with the
//      event streams compared (events_match — always gated).
//
// Emits schema-1 JSON ("bench": "fleet") with the environment block the
// comparison script uses to decide which gates apply.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "math/rng.h"
#include "telemetry/fleet_codec.h"
#include "uspace/fleet_experiment.h"
#include "uspace/tracking.h"

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

// --- Broadphase micro-bench ------------------------------------------------

struct BroadphaseResult {
  double pairs_per_sec{0.0};
  std::int64_t pairs_evaluated{0};
  uspace::ConflictStats stats;
  std::vector<uspace::ConflictEvent> events;
  double wall_s{0.0};
};

/// Drives one detector over a deterministic random-walk airspace of
/// `drones` drones for `instants` tracking instants.
BroadphaseResult RunBroadphase(uspace::BroadphaseMode mode, int drones,
                               int instants, std::uint64_t seed) {
  uspace::Tracker tracker;
  uspace::ConflictDetectorConfig cfg;
  cfg.broadphase = mode;
  uspace::ConflictDetector detector(&tracker, cfg);

  math::Rng rng(seed);
  std::vector<math::Vec3> pos;
  std::vector<math::Vec3> vel;
  const double box = 40.0 * std::sqrt(static_cast<double>(drones));  // ~density-constant
  for (int id = 0; id < drones; ++id) {
    uspace::TrackedDrone d;
    d.drone_id = id;
    d.name.push_back('B');
    d.name += std::to_string(id);
    d.bubble.drone_dimension_m = 0.5;
    d.bubble.safety_distance_m = 1.5;
    d.bubble.top_speed_ms = 8.0;
    d.bubble.tracking_interval_s = 0.5;
    d.max_speed_ms = 1000.0;
    tracker.Register(d);
    pos.push_back({rng.Uniform(0.0, box), rng.Uniform(0.0, box), -15.0});
    vel.push_back({rng.Uniform(-6.0, 6.0), rng.Uniform(-6.0, 6.0), 0.0});
  }

  const double t0 = Now();
  for (int k = 1; k <= instants; ++k) {
    const double t = k * 0.5;
    for (int id = 0; id < drones; ++id) {
      const auto i = static_cast<std::size_t>(id);
      if (rng.Uniform01() < 0.03) {
        vel[i] = {rng.Uniform(-6.0, 6.0), rng.Uniform(-6.0, 6.0), 0.0};
      }
      pos[i] = pos[i] + vel[i] * 0.5;
      tracker.Ingest({id, t, pos[i], vel[i].Norm()});
    }
    detector.Step(t);
  }
  BroadphaseResult r;
  r.wall_s = Now() - t0;
  r.stats = detector.stats();
  r.events = detector.events();
  // Throughput counts the pairs the mode would have had to consider — the
  // brute-force workload — so the grid's culling shows up as speedup.
  r.pairs_evaluated = r.stats.pairs_evaluated + r.stats.pairs_culled;
  r.pairs_per_sec = static_cast<double>(r.pairs_evaluated) / r.wall_s;
  return r;
}

bool SameEvents(const std::vector<uspace::ConflictEvent>& a,
                const std::vector<uspace::ConflictEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drone_a != b[i].drone_a || a[i].drone_b != b[i].drone_b ||
        a[i].severity != b[i].severity || a[i].start_time != b[i].start_time ||
        a[i].end_time != b[i].end_time ||
        a[i].min_separation_m != b[i].min_separation_m) {
      return false;
    }
  }
  return true;
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

  // Broadphase: exhaustive vs uniform grid over the same synthetic airspace.
  const int bp_instants = 400;
  const auto brute =
      RunBroadphase(uspace::BroadphaseMode::kBruteForce, drones, bp_instants, 7);
  const auto grid =
      RunBroadphase(uspace::BroadphaseMode::kUniformGrid, drones, bp_instants, 7);
  const bool events_match = SameEvents(brute.events, grid.events) &&
                            brute.stats.conflicts == grid.stats.conflicts &&
                            brute.stats.alerts == grid.stats.alerts;
  const double bp_speedup = brute.wall_s / grid.wall_s;
  std::printf("  broadphase: brute %.3g pairs/s, grid %.3g pairs/s (%.2fx), "
              "events %s\n",
              brute.pairs_per_sec, grid.pairs_per_sec, bp_speedup,
              events_match ? "MATCH" : "MISMATCH");

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
               "  },\n"
               "  \"broadphase\": {\n"
               "    \"instants\": %d,\n"
               "    \"pair_workload\": %lld,\n"
               "    \"brute_pairs_per_sec\": %.1f,\n"
               "    \"grid_pairs_per_sec\": %.1f,\n"
               "    \"grid_speedup\": %.3f,\n"
               "    \"events_match\": %s\n"
               "  }\n"
               "}\n",
               UAVRES_BUILD_TYPE, std::thread::hardware_concurrency(), threads,
               drones, leg_m, one.drone_steps, one_rate, all_rate, speedup,
               oracle_ok ? "true" : "false", bp_instants,
               static_cast<long long>(brute.pairs_evaluated), brute.pairs_per_sec,
               grid.pairs_per_sec, bp_speedup, events_match ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // The structural gates fail the bench itself, not just the comparison.
  return (oracle_ok && events_match) ? 0 : 1;
}
