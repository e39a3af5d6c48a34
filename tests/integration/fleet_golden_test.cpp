// Golden fleet records: four fleet experiments must reproduce a recorded
// FNV-1a hash of their serialized telemetry::FleetRecord bytes. The record
// carries every per-drone outcome and duration, every conflict event, the
// min-separation quantiles and the broker counters, so any change to how
// the fleet engine steps, orders or relaunches its vehicles shows up here.
//
// The hashes live in tests/data/golden_fleet.txt as `key value` lines. To
// regenerate after an intentional simulation change:
//
//   UAVRES_UPDATE_GOLDEN=1 ./test_integration --gtest_filter='FleetGolden.*'
//
// and commit the rewritten file with a note on why the records changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/fleet.h"
#include "telemetry/fleet_codec.h"
#include "uspace/fleet_experiment.h"

namespace uavres {
namespace {

using Golden = std::map<std::string, std::string>;

const std::string& GoldenPath() {
  static const std::string path = std::string(UAVRES_TEST_DATA_DIR) + "/golden_fleet.txt";
  return path;
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

Golden LoadGolden() {
  Golden golden;
  std::ifstream is(GoldenPath());
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, value;
    if (ls >> key >> value) golden[key] = value;
  }
  return golden;
}

void SaveGolden(const Golden& golden) {
  std::ofstream os(GoldenPath(), std::ios::trunc);
  ASSERT_TRUE(os) << "cannot write " << GoldenPath();
  os << "# Golden fleet records: FNV-1a of the telemetry::WriteFleetRecord bytes.\n"
     << "# Regenerate with UAVRES_UPDATE_GOLDEN=1 (see fleet_golden_test.cpp).\n";
  for (const auto& [key, value] : golden) os << key << " " << value << "\n";
}

/// Runs `spec`, then checks (or, under UAVRES_UPDATE_GOLDEN, rewrites) the
/// `<name>.bytes` and `<name>.fnv1a` lines of the golden file.
void CheckFleetGolden(const std::string& name, const core::FleetExperimentSpec& spec) {
  std::ostringstream os;
  telemetry::WriteFleetRecord(os, uspace::RunFleetExperiment(spec));
  const std::string bytes = os.str();
  const Golden actual{{name + ".bytes", std::to_string(bytes.size())},
                      {name + ".fnv1a", Hex(Fnv1a(bytes))}};

  Golden golden = LoadGolden();
  if (const char* update = std::getenv("UAVRES_UPDATE_GOLDEN");
      update && update[0] != '0') {
    for (const auto& [key, value] : actual) golden[key] = value;
    SaveGolden(golden);
    GTEST_SKIP() << "rewrote " << name << " in " << GoldenPath();
  }
  for (const auto& [key, value] : actual) {
    ASSERT_TRUE(golden.count(key)) << "no '" << key << "' in " << GoldenPath()
                                   << " — run with UAVRES_UPDATE_GOLDEN=1 to record it";
    EXPECT_EQ(value, golden.at(key)) << "golden mismatch for '" << key << "'";
  }
}

/// The 5-drone convoy of fleet_runner_test.cpp: drone 2 carries a 30 s
/// accelerometer fault from t = 30 s and drifts into its neighbours' lanes.
core::FleetExperimentSpec FaultedConvoy() {
  core::FleetExperimentSpec spec;
  spec.num_drones = 5;
  spec.leg_length_m = 600.0;
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.start_time_s = 30.0;
  fault.duration_s = 30.0;
  spec.fault = fault;
  spec.faulted_drone = 2;
  return spec;
}

TEST(FleetGolden, FaultedConvoy) { CheckFleetGolden("faulted_convoy", FaultedConvoy()); }

TEST(FleetGolden, FaultedConvoyWithRecoveryAndDrop) {
  core::FleetExperimentSpec spec = FaultedConvoy();
  spec.recovery = true;
  spec.drop_probability = 0.1;
  CheckFleetGolden("recovery_drop_convoy", spec);
}

TEST(FleetGolden, RelaunchConvoy) {
  core::FleetExperimentSpec spec;
  spec.num_drones = 3;
  spec.leg_length_m = 600.0;
  spec.relaunch_horizon_s = 600.0;
  CheckFleetGolden("relaunch_convoy", spec);
}

TEST(FleetGolden, ValenciaReplica) {
  core::FleetExperimentSpec spec;
  spec.scenario = core::FleetScenario::kValencia;
  spec.num_drones = 10;
  CheckFleetGolden("valencia_replica", spec);
}

}  // namespace
}  // namespace uavres
