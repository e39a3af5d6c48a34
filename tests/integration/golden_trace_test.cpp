// Golden-trace regression tests: one nominal and one faulty flight replayed
// under a fixed seed must reproduce a recorded snapshot bit-for-bit —
// outcome, metric-counter deltas, and an FNV hash over the full recorded
// trajectory. Outcome-level tests tolerate silent dynamics or estimator
// drift (a change that still completes the mission passes); these do not.
//
// Snapshots live in tests/data/ as `key value` lines. To regenerate after
// an intentional simulation change:
//
//   UAVRES_UPDATE_GOLDEN=1 ./test_integration --gtest_filter='GoldenTrace.*'
//
// and commit the rewritten files with a note on why the dynamics changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/result_store.h"
#include "core/scenario.h"
#include "telemetry/metrics_registry.h"
#include "uav/simulation_runner.h"

namespace uavres {
namespace {

using Snapshot = std::map<std::string, std::string>;

constexpr std::uint64_t kSeed = 2024;
constexpr int kMission = 0;

std::string DataPath(const std::string& name) {
  return std::string(UAVRES_TEST_DATA_DIR) + "/" + name;
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The counters whose per-run deltas are part of the golden snapshot. All
/// are deterministic functions of the simulated flight.
constexpr const char* kGoldenCounters[] = {
    "sim.steps",
    "ekf.gps_resets",
    "ekf.gps_large_resets",
    "ekf.attitude_resets",
    "hm.confirmations",
    "hm.isolation_switches",
    "hm.standdowns",
    "hm.failsafe.sensor-fault",
    "hm.failsafe.estimator-failure",
};

std::map<std::string, std::uint64_t> CounterValues() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : telemetry::MetricsRegistry::Global().SnapshotCounters()) {
    out[c.name] = c.value;
  }
  return out;
}

/// FNV-1a over the bit patterns of every recorded trajectory sample plus the
/// scalar result fields — any numeric drift anywhere in the flight changes it.
std::uint64_t StateHash(const uav::RunOutput& out) {
  core::CacheKeyHasher h;
  h.Mix(static_cast<std::uint64_t>(out.trajectory.Size()));
  for (const auto& s : out.trajectory.Samples()) {
    h.Mix(s.t);
    h.Mix(s.pos_true.x).Mix(s.pos_true.y).Mix(s.pos_true.z);
    h.Mix(s.pos_est.x).Mix(s.pos_est.y).Mix(s.pos_est.z);
    h.Mix(s.vel_true.x).Mix(s.vel_true.y).Mix(s.vel_true.z);
    h.Mix(static_cast<std::uint64_t>(s.fault_active));
  }
  h.Mix(out.result.flight_duration_s);
  h.Mix(out.result.distance_km);
  h.Mix(out.result.max_deviation_m);
  return h.digest();
}

Snapshot BuildSnapshot(const uav::RunOutput& out,
                       const std::map<std::string, std::uint64_t>& before,
                       const std::map<std::string, std::uint64_t>& after) {
  Snapshot snap;
  snap["outcome"] = core::ToString(out.result.outcome);
  snap["failsafe_reason"] = nav::ToString(out.result.failsafe_reason);
  snap["inner_violations"] = std::to_string(out.result.inner_violations);
  snap["outer_violations"] = std::to_string(out.result.outer_violations);
  snap["trajectory_samples"] = std::to_string(out.trajectory.Size());
  snap["log_events"] = std::to_string(out.log.Events().size());
  snap["state_hash"] = Hex(StateHash(out));
  for (const char* name : kGoldenCounters) {
    const auto b = before.count(name) ? before.at(name) : 0;
    const auto a = after.count(name) ? after.at(name) : 0;
    snap[std::string("counter.") + name] = std::to_string(a - b);
  }
  return snap;
}

Snapshot LoadSnapshot(const std::string& path) {
  Snapshot snap;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, value;
    if (ls >> key >> value) snap[key] = value;
  }
  return snap;
}

void SaveSnapshot(const std::string& path, const Snapshot& snap, const char* title) {
  std::ofstream os(path, std::ios::trunc);
  ASSERT_TRUE(os) << "cannot write " << path;
  os << "# Golden flight snapshot: " << title << "\n"
     << "# Regenerate with UAVRES_UPDATE_GOLDEN=1 (see golden_trace_test.cpp).\n";
  for (const auto& [key, value] : snap) os << key << " " << value << "\n";
}

void CheckAgainstGolden(const std::string& file, const uav::RunOutput& out,
                        const std::map<std::string, std::uint64_t>& before,
                        const std::map<std::string, std::uint64_t>& after,
                        const char* title) {
  const Snapshot actual = BuildSnapshot(out, before, after);
  const std::string path = DataPath(file);
  if (const char* update = std::getenv("UAVRES_UPDATE_GOLDEN");
      update && update[0] != '0') {
    SaveSnapshot(path, actual, title);
    GTEST_SKIP() << "rewrote " << path;
  }
  const Snapshot golden = LoadSnapshot(path);
  ASSERT_FALSE(golden.empty()) << "missing or empty golden file " << path
                               << " — run with UAVRES_UPDATE_GOLDEN=1 to record it";
  for (const auto& [key, value] : golden) {
    ASSERT_TRUE(actual.count(key)) << "golden key '" << key << "' missing from the run";
    EXPECT_EQ(actual.at(key), value) << "golden mismatch for '" << key << "' in " << file;
  }
  for (const auto& [key, value] : actual) {
    EXPECT_TRUE(golden.count(key)) << "new snapshot key '" << key << "' not in " << file
                                   << " — regenerate the golden file";
  }
}

TEST(GoldenTrace, NominalFlightIsBitStable) {
  const auto fleet = core::BuildValenciaScenario();
  const uav::SimulationRunner runner;
  const auto before = CounterValues();
  const auto out = runner.Run({fleet[kMission], kMission, std::nullopt, kSeed});
  const auto after = CounterValues();
  CheckAgainstGolden("golden_nominal.txt", out, before, after,
                     "mission 0, fault-free, seed 2024");
}

TEST(GoldenTrace, GyroFixedFaultFlightIsBitStable) {
  const auto fleet = core::BuildValenciaScenario();
  const uav::SimulationRunner runner;
  const auto gold = runner.Run({fleet[kMission], kMission, std::nullopt, kSeed});

  core::FaultSpec fault;
  fault.type = core::FaultType::kFixed;
  fault.target = core::FaultTarget::kGyrometer;
  fault.start_time_s = core::kInjectionStartS;
  fault.duration_s = 10.0;

  const auto before = CounterValues();
  const auto out =
      runner.Run({fleet[kMission], kMission, fault, kSeed, &gold.trajectory});
  const auto after = CounterValues();
  CheckAgainstGolden("golden_gyro_fixed.txt", out, before, after,
                     "mission 0, gyro fixed-value fault for 10 s at t=90 s, seed 2024");
}

}  // namespace
}  // namespace uavres
