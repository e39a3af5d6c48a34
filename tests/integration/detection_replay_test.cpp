// Replay-driven detection regression suite (DESIGN.md §15): one
// representative case per paper fault family is flown with the IMU-fault
// detector + failover enabled while the full bus-topic stream is recorded.
// The recorded stream is then replayed offline, which must (a) reproduce
// every online detector decision bit-for-bit (kDetector frame comparison
// inside ReplayEstimator), and (b) match the golden detection onsets and
// latencies in tests/data/golden_detection.txt exactly — doubles are printed
// with %.17g, so a golden match is a bit-for-bit match.
//
// To regenerate after an intentional detector or simulation change:
//
//   UAVRES_UPDATE_GOLDEN=1 ./test_integration --gtest_filter='DetectionReplay.*'
//
// and commit the rewritten file with a note on why the decisions changed.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bus/record.h"
#include "core/fault_model.h"
#include "core/scenario.h"
#include "uav/bus_replay.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace uavres {
namespace {

using Snapshot = std::map<std::string, std::string>;

constexpr std::uint64_t kSeed = 2024;
constexpr int kMission = 0;
constexpr double kFaultStartS = 20.0;  // airborne well before; keeps runs short
constexpr double kFaultDurationS = 10.0;
constexpr double kRecordUntilS = 40.0;  // covers fault window + clear period

struct FamilyCase {
  const char* label;
  core::FaultType type;
  core::FaultTarget target;
};

// One representative per paper fault family (Table III's seven types).
constexpr FamilyCase kFamilies[] = {
    {"fixed_imu", core::FaultType::kFixed, core::FaultTarget::kImu},
    {"zeros_gyro", core::FaultType::kZeros, core::FaultTarget::kGyrometer},
    {"freeze_imu", core::FaultType::kFreeze, core::FaultTarget::kImu},
    {"random_imu", core::FaultType::kRandom, core::FaultTarget::kImu},
    {"min_acc", core::FaultType::kMin, core::FaultTarget::kAccelerometer},
    {"max_gyro", core::FaultType::kMax, core::FaultTarget::kGyrometer},
    {"noise_imu", core::FaultType::kNoise, core::FaultTarget::kImu},
};

std::string DataPath(const std::string& name) {
  return std::string(UAVRES_TEST_DATA_DIR) + "/" + name;
}

std::string FormatExact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
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

void SaveSnapshot(const std::string& path, const Snapshot& snap) {
  std::ofstream os(path, std::ios::trunc);
  ASSERT_TRUE(os) << "cannot write " << path;
  os << "# Golden detection onsets/latencies per paper fault family\n"
     << "# (mission 0, fault t=[20,30) s, seed 2024, detector enabled).\n"
     << "# Regenerate with UAVRES_UPDATE_GOLDEN=1 (see detection_replay_test.cpp).\n";
  for (const auto& [key, value] : snap) os << key << " " << value << "\n";
}

/// Fly mission 0 under `fault` with the detector enabled, recording the full
/// bus stream; returns the stream plus the online detector verdicts.
struct RecordedCase {
  std::string log;
  estimation::DetectorState final_state{estimation::DetectorState::kNominal};
  double first_confirm_time_s{-1.0};
  int confirm_events{0};
  std::uint64_t steps{0};
};

RecordedCase FlyAndRecord(const core::FaultSpec& fault) {
  const auto& spec = core::SharedValenciaScenario()[kMission];
  uav::UavConfig cfg = uav::MakeUavConfig(spec);
  cfg.detector.enabled = true;

  std::ostringstream os;
  bus::BusLogHeader header;
  header.mission_index = kMission;
  header.seed_base = kSeed;
  header.control_rate_hz = cfg.control_rate_hz;
  header.has_fault = true;
  header.fault_type = static_cast<std::uint8_t>(fault.type);
  header.fault_target = static_cast<std::uint8_t>(fault.target);
  header.fault_start_s = fault.start_time_s;
  header.fault_duration_s = fault.duration_s;
  header.recovery = true;
  EXPECT_TRUE(bus::WriteBusLogHeader(os, header));

  uav::Uav uav(cfg, spec.plan, fault, uav::ExperimentSeed(kSeed, kMission));
  uav.StartRecording(&os);
  RecordedCase out;
  while (uav.time() < kRecordUntilS) {
    uav.Step();
    ++out.steps;
  }
  out.log = os.str();
  out.final_state = uav.detector().state();
  out.first_confirm_time_s = uav.detector().first_confirm_time_s();
  out.confirm_events = uav.detector().confirm_events();
  return out;
}

TEST(DetectionReplay, FaultFamilyOnsetsMatchGoldenAndReplayBitForBit) {
  const auto& spec = core::SharedValenciaScenario()[kMission];
  Snapshot actual;
  for (const FamilyCase& fc : kFamilies) {
    core::FaultSpec fault;
    fault.type = fc.type;
    fault.target = fc.target;
    fault.start_time_s = kFaultStartS;
    fault.duration_s = kFaultDurationS;

    const RecordedCase rec = FlyAndRecord(fault);

    // The .uvbs stream is the oracle: the offline detector fed the recorded
    // sensor/status frames must reproduce every online decision exactly.
    std::istringstream is(rec.log);
    const auto replay = uav::ReplayEstimator(is, spec, uav::ReplayEstimatorKind::kEkf);
    ASSERT_TRUE(replay.has_value()) << fc.label;
    EXPECT_TRUE(replay->header.recovery) << fc.label;
    EXPECT_EQ(replay->steps, rec.steps) << fc.label;
    EXPECT_EQ(replay->detector_frames, rec.steps) << fc.label;
    EXPECT_EQ(replay->detector_mismatches, 0u)
        << fc.label << ": offline detector diverged from recorded decisions";
    // Bit-equal, not approximately: the replay re-derives the same doubles.
    EXPECT_EQ(replay->detection_time_s, rec.first_confirm_time_s) << fc.label;
    EXPECT_EQ(replay->final_detector_state, static_cast<std::uint8_t>(rec.final_state))
        << fc.label;
    // The published estimate (failover mixing included) replays exactly too.
    EXPECT_EQ(replay->max_pos_err_m, 0.0) << fc.label;

    // No confirm may precede the injection (zero false positives).
    if (rec.first_confirm_time_s >= 0.0) {
      EXPECT_GE(rec.first_confirm_time_s, kFaultStartS) << fc.label;
    }

    const std::string label(fc.label);
    actual[label + ".confirmed"] = rec.first_confirm_time_s >= 0.0 ? "1" : "0";
    actual[label + ".confirm_t"] = FormatExact(rec.first_confirm_time_s);
    actual[label + ".latency"] =
        FormatExact(rec.first_confirm_time_s >= 0.0
                        ? rec.first_confirm_time_s - kFaultStartS
                        : -1.0);
    actual[label + ".final_state"] = estimation::ToString(rec.final_state);
    actual[label + ".confirm_events"] = std::to_string(rec.confirm_events);
  }

  const std::string path = DataPath("golden_detection.txt");
  if (const char* update = std::getenv("UAVRES_UPDATE_GOLDEN"); update && update[0] != '0') {
    SaveSnapshot(path, actual);
    GTEST_SKIP() << "rewrote " << path;
  }
  const Snapshot golden = LoadSnapshot(path);
  ASSERT_FALSE(golden.empty()) << "missing or empty golden file " << path
                               << " — run with UAVRES_UPDATE_GOLDEN=1 to record it";
  for (const auto& [key, value] : golden) {
    ASSERT_TRUE(actual.count(key)) << "golden key '" << key << "' not produced";
    EXPECT_EQ(actual.at(key), value) << "golden mismatch for '" << key << "'";
  }
  for (const auto& [key, value] : actual) {
    EXPECT_TRUE(golden.count(key)) << "new key '" << key << "' not in golden — regenerate";
  }
}

}  // namespace
}  // namespace uavres
