// Record -> replay determinism: an offline EKF fed the recorded sensor
// topics must reproduce the online EKF's trajectory bit-for-bit, and the
// bus-boundary baro fault must propagate into a failsafe end-to-end.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "bus/record.h"
#include "core/scenario.h"
#include "uav/bus_replay.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace uavres::uav {
namespace {

/// Record `steps` control periods of mission `mission` into a stream
/// (header + frames), returning the stream content.
std::string RecordSteps(int mission, const std::optional<core::FaultSpec>& fault, int steps) {
  const auto& spec = core::SharedValenciaScenario()[static_cast<std::size_t>(mission)];
  const UavConfig cfg = MakeUavConfig(spec);

  std::ostringstream os;
  bus::BusLogHeader header;
  header.mission_index = mission;
  header.seed_base = 2024;
  header.control_rate_hz = cfg.control_rate_hz;
  header.has_fault = fault.has_value();
  EXPECT_TRUE(bus::WriteBusLogHeader(os, header));

  Uav uav(cfg, spec.plan, fault, ExperimentSeed(2024, mission));
  uav.StartRecording(&os);
  for (int i = 0; i < steps; ++i) uav.Step();
  EXPECT_GT(uav.recorded_frames(), 0u);
  return os.str();
}

TEST(BusReplay, OfflineEkfReproducesOnlineTrajectoryBitExactly) {
  const int kSteps = 7500;  // 30 s at 250 Hz: takeoff + cruise
  const std::string log = RecordSteps(0, std::nullopt, kSteps);

  std::istringstream is(log);
  const auto& spec = core::SharedValenciaScenario()[0];
  const auto stats = ReplayEstimator(is, spec, ReplayEstimatorKind::kEkf);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->steps, static_cast<std::uint64_t>(kSteps));
  // Doubles round-trip bit-exactly through the log and the replay performs
  // the identical fusion sequence: zero position error, not merely <= 1e-9.
  // The attitude metric goes through Quat::AngleTo, whose conj(q)*q product
  // rounds to ~1e-16 even for bit-identical quaternions.
  EXPECT_EQ(stats->max_pos_err_m, 0.0);
  EXPECT_EQ(stats->final_pos_err_m, 0.0);
  EXPECT_LE(stats->max_att_err_rad, 1e-12);
}

TEST(BusReplay, BitExactUnderImuFaultWithIsolationCycling) {
  // An IMU fault corrupts all units, drives health-monitor isolation
  // cycling (imu_select changes mid-flight) and EKF rejections/resets; the
  // replay must still track exactly, selection latency included.
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kImu;
  fault.type = core::FaultType::kFixed;
  fault.start_time_s = 15.0;
  fault.duration_s = 10.0;
  const int kSteps = 10000;  // 40 s: covers the whole fault window
  const std::string log = RecordSteps(0, fault, kSteps);

  std::istringstream is(log);
  const auto& spec = core::SharedValenciaScenario()[0];
  const auto stats = ReplayEstimator(is, spec, ReplayEstimatorKind::kEkf);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->steps, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(stats->max_pos_err_m, 0.0);
  EXPECT_LE(stats->max_att_err_rad, 1e-12);
}

TEST(BusReplay, ComplementaryFilterRunsOffTheSameLog) {
  const std::string log = RecordSteps(0, std::nullopt, 5000);
  std::istringstream is(log);
  const auto& spec = core::SharedValenciaScenario()[0];
  const auto stats = ReplayEstimator(is, spec, ReplayEstimatorKind::kComplementary);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->steps, 5000u);
  // An attitude-only filter diverges somewhat from the EKF but must stay
  // sane over a nominal 20 s flight.
  EXPECT_GT(stats->max_att_err_rad, 0.0);
  EXPECT_LT(stats->max_att_err_rad, 0.5);
  EXPECT_EQ(stats->max_pos_err_m, 0.0);  // no position state to compare
}

TEST(BusReplay, ReplayRejectsGarbage) {
  std::istringstream is("not a bus log at all");
  const auto& spec = core::SharedValenciaScenario()[0];
  EXPECT_FALSE(ReplayEstimator(is, spec, ReplayEstimatorKind::kEkf).has_value());
}

TEST(BusReplay, RecordBusLogRunsExperimentToTermination) {
  // End-to-end driver: header written, frames streamed, mission classified
  // by the shared terminal rules. Mission 0 flown fault-free completes.
  const auto& fleet = core::SharedValenciaScenario();
  std::ostringstream os;
  const auto stats = RecordBusLog({fleet[0], 0, std::nullopt, 2024}, os);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->outcome, core::MissionOutcome::kCompleted);
  EXPECT_GT(stats->frames, stats->steps);  // several topics publish per step

  std::istringstream is(os.str());
  const auto replay = ReplayEstimator(is, fleet[0], ReplayEstimatorKind::kEkf);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->steps, stats->steps);
  EXPECT_EQ(replay->frames, stats->frames);
  EXPECT_EQ(replay->max_pos_err_m, 0.0);
}

// The bus-boundary fault architecture's new capability: a barometer fault
// (never present in the paper campaign) propagates through EKF innovation
// rejection into the optional health-monitor path and engages failsafe.
TEST(BusBaroFault, PersistentBaroFaultEngagesFailsafeWhenDetectionEnabled) {
  const auto& spec = core::SharedValenciaScenario()[0];

  core::FaultSpec baro_fault;
  baro_fault.type = core::FaultType::kMax;  // 9000 m: every fusion rejected
  baro_fault.start_time_s = 20.0;
  baro_fault.duration_s = 60.0;

  UavConfig cfg = MakeUavConfig(spec);
  cfg.baro_fault = baro_fault;
  cfg.health.baro_reject_fail_s = 1.0;
  Uav uav(cfg, spec.plan, std::nullopt, 2024);
  while (uav.time() < 30.0 && !uav.health().failsafe_active()) uav.Step();

  ASSERT_TRUE(uav.health().failsafe_active());
  EXPECT_EQ(uav.health().reason(), nav::FailsafeReason::kSensorFault);
  EXPECT_GT(uav.health().failsafe_time(), baro_fault.start_time_s);
  EXPECT_LT(uav.health().failsafe_time(), baro_fault.start_time_s + 3.0);

  // Mutation direction: with detection left at its default (off), the same
  // fault is silently rejected and no failsafe engages.
  UavConfig off = MakeUavConfig(spec);
  off.baro_fault = baro_fault;
  Uav quiet(off, spec.plan, std::nullopt, 2024);
  while (quiet.time() < 30.0 && !quiet.health().failsafe_active()) quiet.Step();
  EXPECT_FALSE(quiet.health().failsafe_active());
}

}  // namespace
}  // namespace uavres::uav
