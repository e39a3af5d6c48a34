// Golden detector re-arm across a snapshot boundary (DESIGN.md §15/§16).
//
// A mission flies through TWO fault windows with the detector + failover
// enabled: the detector must go suspect → confirmed → recovered on the
// first window, re-arm, and confirm again on the second — two confirm
// events. The snapshot boundary is placed BETWEEN the windows (after
// recovery, before re-arm fires again), and three executions must agree:
//
//   A  the uncheckpointed run, bus-recorded from t=0 (the mid-failover
//      .uvbs used by `uavres replay`),
//   B  the donor: identical vehicle, snapshotted at the boundary, then run
//      on with its own tail recording,
//   C  a clone restored from B's snapshot (through the .uvsnap codec),
//      recorded over the same tail.
//
// B and C's tail recordings must be byte-identical, all three vehicles must
// land on the same detector verdicts, and replaying A's .uvbs must
// reproduce every online detector decision with zero mismatches — the
// re-arm sequence survives both the snapshot boundary and offline replay.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bus/record.h"
#include "core/fault_model.h"
#include "core/scenario.h"
#include "estimation/detectors.h"
#include "telemetry/snapshot_codec.h"
#include "uav/bus_replay.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace uavres {
namespace {

constexpr int kMission = 0;
// How long the detector stays confirmed after a freeze depends on the
// sensor noise: at this seed base a 1 s freeze confirms within ~0.2 s and
// the detector stands down at t≈22.6, so a boundary at t=45 sits cleanly
// between the recovery and the second confirmation. (At seed base 2024 it
// stays confirmed past t=400.)
constexpr std::uint64_t kSeedBase = 2025;
constexpr double kWindow1Start = 20.0;
constexpr double kWindow2Start = 50.0;
constexpr double kWindowLen = 1.0;
constexpr double kBoundaryT = 45.0;  // between recovery and re-confirm
constexpr double kEndT = 55.0;

core::FaultSpec WindowFault(double start_s) {
  core::FaultSpec fault;
  fault.type = core::FaultType::kFreeze;
  fault.target = core::FaultTarget::kImu;
  fault.start_time_s = start_s;
  fault.duration_s = kWindowLen;
  return fault;
}

uav::UavConfig RearmConfig(const core::DroneSpec& spec) {
  uav::UavConfig cfg = uav::MakeUavConfig(spec);
  cfg.detector.enabled = true;
  cfg.extra_faults.push_back(WindowFault(kWindow2Start));  // second window
  return cfg;
}

struct DetectorVerdict {
  estimation::DetectorState state;
  double first_confirm_s;
  double last_confirm_s;
  int confirm_events;
};

DetectorVerdict VerdictOf(const uav::Uav& u) {
  const auto& d = u.detector();
  return {d.state(), d.first_confirm_time_s(), d.last_confirm_time_s(),
          d.confirm_events()};
}

void ExpectSameVerdict(const DetectorVerdict& a, const DetectorVerdict& b,
                       const char* label) {
  EXPECT_EQ(a.state, b.state) << label;
  EXPECT_EQ(a.first_confirm_s, b.first_confirm_s) << label;  // bit-equal
  EXPECT_EQ(a.last_confirm_s, b.last_confirm_s) << label;
  EXPECT_EQ(a.confirm_events, b.confirm_events) << label;
}

TEST(SnapshotRearm, TwoWindowRearmSurvivesSnapshotBoundaryAndReplay) {
  const auto& spec = core::SharedValenciaScenario()[kMission];
  const uav::UavConfig cfg = RearmConfig(spec);
  const core::FaultSpec primary = WindowFault(kWindow1Start);
  const std::uint64_t seed = uav::ExperimentSeed(kSeedBase, kMission);

  // --- A: uncheckpointed run, recorded from t=0 (the mid-failover .uvbs).
  std::ostringstream full_log(std::ios::binary);
  bus::BusLogHeader header;
  header.mission_index = kMission;
  header.seed_base = kSeedBase;
  header.control_rate_hz = cfg.control_rate_hz;
  header.has_fault = true;
  header.fault_type = static_cast<std::uint8_t>(primary.type);
  header.fault_target = static_cast<std::uint8_t>(primary.target);
  header.fault_start_s = primary.start_time_s;
  header.fault_duration_s = primary.duration_s;
  header.recovery = true;
  ASSERT_TRUE(bus::WriteBusLogHeader(full_log, header));

  uav::Uav a(cfg, spec.plan, primary, seed);
  a.StartRecording(&full_log);
  std::uint64_t a_steps = 0;
  bool recovered_between_windows = false;
  while (a.time() < kEndT) {
    a.Step();
    ++a_steps;
    if (a.time() > kBoundaryT - 5.0 && a.time() < kWindow2Start &&
        a.detector().state() == estimation::DetectorState::kRecovered) {
      recovered_between_windows = true;
    }
  }
  const DetectorVerdict va = VerdictOf(a);

  // Golden re-arm sequence: one confirm per window, recovery in between.
  ASSERT_EQ(va.confirm_events, 2)
      << "expected exactly one confirmation per fault window";
  EXPECT_TRUE(recovered_between_windows)
      << "detector never stood down between the windows — no re-arm happened";
  EXPECT_GE(va.first_confirm_s, kWindow1Start);
  EXPECT_LT(va.first_confirm_s, kWindow2Start);
  EXPECT_GE(va.last_confirm_s, kWindow2Start);

  // --- B: donor. Identical vehicle, snapshot at the boundary, tail recorded.
  uav::Uav b(cfg, spec.plan, primary, seed);
  while (b.time() < kBoundaryT) b.Step();
  EXPECT_EQ(b.detector().confirm_events(), 1)
      << "boundary must sit between the two confirmations";
  sim::Snapshot snap;
  b.SaveState(snap);

  // Through the codec: the clone restores from .uvsnap bytes, not memory.
  std::stringstream uvsnap(std::ios::binary | std::ios::in | std::ios::out);
  telemetry::WriteSnapshot(uvsnap, snap);
  const auto loaded = telemetry::ReadSnapshot(uvsnap.str());
  ASSERT_TRUE(loaded.has_value());

  std::ostringstream b_tail(std::ios::binary);
  b.StartRecording(&b_tail);
  while (b.time() < kEndT) b.Step();

  // --- C: clone restored across the boundary, same tail window recorded.
  uav::Uav c(cfg, spec.plan, primary, seed);
  ASSERT_TRUE(c.RestoreState(*loaded));
  EXPECT_EQ(c.detector().confirm_events(), 1);
  std::ostringstream c_tail(std::ios::binary);
  c.StartRecording(&c_tail);
  while (c.time() < kEndT) c.Step();

  ExpectSameVerdict(VerdictOf(b), va, "donor-with-snapshot vs plain run");
  ExpectSameVerdict(VerdictOf(c), va, "restored clone vs plain run");
  EXPECT_EQ(c_tail.str(), b_tail.str())
      << "bus traffic after the snapshot boundary is not bit-identical";

  // --- Replay A's .uvbs: the offline detector must reproduce both confirm
  // decisions (and the failover-mixed estimate) exactly.
  std::istringstream is(full_log.str(), std::ios::binary);
  const auto replay = uav::ReplayEstimator(is, spec, uav::ReplayEstimatorKind::kEkf);
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->header.recovery);
  EXPECT_EQ(replay->steps, a_steps);
  EXPECT_EQ(replay->detector_mismatches, 0u)
      << "offline detector diverged across the re-arm sequence";
  EXPECT_EQ(replay->detection_time_s, va.first_confirm_s);
  EXPECT_EQ(replay->final_detector_state, static_cast<std::uint8_t>(va.state));
  EXPECT_EQ(replay->max_pos_err_m, 0.0);
}

// Known defect, open in ROADMAP: after a 1 s IMU freeze the detector should
// stand down once its evidence clears, as it does at t≈22.6 at seed base
// 2025 (above), but at seed base 2024 it stays confirmed past t = 400 and
// holds the failover for the rest of the flight:
// ImuFaultDetector::ObserveInnovations restarts its quiet timer while any
// CUSUM or plausibility charge remains. The test states the intended
// behaviour and fails today, so it is disabled until the detector is mended
// (run it with --gtest_also_run_disabled_tests).
TEST(DetectorStandDown, DISABLED_OneSecondFreezeStandsDownBeforeTheSecondWindowAtSeedBase2024) {
  const auto& spec = core::SharedValenciaScenario()[kMission];
  uav::UavConfig cfg = uav::MakeUavConfig(spec);
  cfg.detector.enabled = true;
  uav::Uav u(cfg, spec.plan, WindowFault(kWindow1Start), uav::ExperimentSeed(2024, kMission));
  bool confirmed = false;
  while (u.time() < kWindow2Start &&
         !(confirmed && u.detector().state() == estimation::DetectorState::kRecovered)) {
    u.Step();
    confirmed = confirmed || u.detector().state() == estimation::DetectorState::kConfirmed;
  }
  ASSERT_TRUE(confirmed) << "the freeze was never confirmed";
  EXPECT_EQ(u.detector().state(), estimation::DetectorState::kRecovered)
      << "still " << estimation::ToString(u.detector().state()) << " at t = " << u.time()
      << " s, " << kWindow2Start - kWindow1Start - kWindowLen << " s after the freeze ended";
}

}  // namespace
}  // namespace uavres
