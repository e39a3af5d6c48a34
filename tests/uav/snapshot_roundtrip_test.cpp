// Per-vehicle snapshot round-trip tests (DESIGN.md §16): Uav::SaveState →
// .uvsnap codec → Uav::RestoreState onto a freshly constructed vehicle must
// reproduce the donor bit-for-bit, which is checked the strongest way
// available — after restoring, the donor and the clone step side by side for
// hundreds of further control steps and their *entire* serialized state
// (every bus topic, every module, injector RNG streams, detector state
// machine) is compared byte-for-byte along the way. Structural mismatches
// (missing/truncated/oversized sections, detector presence) must be rejected
// cleanly, never silently mis-restored.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/fault_model.h"
#include "core/scenario.h"
#include "sim/snapshot.h"
#include "telemetry/snapshot_codec.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace uavres {
namespace {

constexpr std::uint64_t kSeed = 0x5EEDF00DULL;

/// Full serialized vehicle state, via the same codec the .uvsnap files use.
/// Two vehicles whose StateBytes match are in bit-identical run state.
std::string StateBytes(uav::Uav& u) {
  sim::Snapshot snap;
  u.SaveState(snap);
  std::ostringstream os(std::ios::binary);
  telemetry::WriteSnapshot(os, snap);
  return os.str();
}

void StepTo(uav::Uav& u, double t) {
  while (u.time() < t) u.Step();
}

/// Snapshot `donor` at its current time, push the snapshot through the
/// codec, restore into a freshly built identical vehicle, then step both for
/// `extra_steps` more and demand bit-identical full state throughout.
void RoundTripAndCoStep(const uav::UavConfig& cfg, const nav::MissionPlan& plan,
                        const std::optional<core::FaultSpec>& fault,
                        uav::Uav& donor, int extra_steps) {
  sim::Snapshot snap;
  donor.SaveState(snap);

  // Through the codec: what RestoreState sees is what a .uvsnap file holds.
  std::stringstream ss(std::ios::binary | std::ios::in | std::ios::out);
  telemetry::WriteSnapshot(ss, snap);
  const auto loaded = telemetry::ReadSnapshot(ss.str());
  ASSERT_TRUE(loaded.has_value());

  uav::Uav clone(cfg, plan, fault, kSeed);
  ASSERT_TRUE(clone.RestoreState(*loaded));
  ASSERT_EQ(clone.step_count(), donor.step_count());
  ASSERT_EQ(StateBytes(clone), StateBytes(donor)) << "restore is not bit-exact";

  for (int i = 0; i < extra_steps; ++i) {
    donor.Step();
    clone.Step();
    if (i % 50 == 0 || i == extra_steps - 1) {
      ASSERT_EQ(StateBytes(clone), StateBytes(donor))
          << "state diverged " << i + 1 << " steps after restore (t="
          << donor.time() << ")";
    }
  }
}

TEST(SnapshotRoundTrip, GoldFlightRestoresBitExact) {
  const auto& spec = core::SharedValenciaScenario()[0];
  const uav::UavConfig cfg = uav::MakeUavConfig(spec);
  uav::Uav donor(cfg, spec.plan, std::nullopt, kSeed);
  StepTo(donor, 12.0);
  RoundTripAndCoStep(cfg, spec.plan, std::nullopt, donor, 300);
}

TEST(SnapshotRoundTrip, FreezeFaultMidWindowRestoresInjectorState) {
  // Freeze latches the last pre-fault sample inside the injector; a snapshot
  // taken mid-window must carry that latch (and the consumed RNG stream).
  const auto& spec = core::SharedValenciaScenario()[0];
  const uav::UavConfig cfg = uav::MakeUavConfig(spec);
  core::FaultSpec fault;
  fault.type = core::FaultType::kFreeze;
  fault.target = core::FaultTarget::kImu;
  fault.start_time_s = 10.0;
  fault.duration_s = 6.0;
  uav::Uav donor(cfg, spec.plan, fault, kSeed);
  StepTo(donor, 13.0);  // mid-window: frozen state is live
  RoundTripAndCoStep(cfg, spec.plan, fault, donor, 300);
}

TEST(SnapshotRoundTrip, RandomFaultMidWindowRestoresRngStreams) {
  // kRandom consumes per-axis RNG draws every corrupted step; any RNG-state
  // drift shows up within a step or two of the restore.
  const auto& spec = core::SharedValenciaScenario()[0];
  const uav::UavConfig cfg = uav::MakeUavConfig(spec);
  core::FaultSpec fault;
  fault.type = core::FaultType::kRandom;
  fault.target = core::FaultTarget::kImu;
  fault.start_time_s = 10.0;
  fault.duration_s = 6.0;
  uav::Uav donor(cfg, spec.plan, fault, kSeed);
  StepTo(donor, 12.5);
  RoundTripAndCoStep(cfg, spec.plan, fault, donor, 300);
}

TEST(SnapshotRoundTrip, DetectorMidConfirmRestoresDecisionState) {
  // Snapshot while the detector is inside the fault window (CUSUM charged,
  // possibly mid suspect→confirm): the clone must make every subsequent
  // decision at the same step the donor does.
  const auto& spec = core::SharedValenciaScenario()[0];
  uav::UavConfig cfg = uav::MakeUavConfig(spec);
  cfg.detector.enabled = true;
  core::FaultSpec fault;
  fault.type = core::FaultType::kZeros;
  fault.target = core::FaultTarget::kGyrometer;
  fault.start_time_s = 10.0;
  fault.duration_s = 4.0;
  uav::Uav donor(cfg, spec.plan, fault, kSeed);
  StepTo(donor, 11.0);  // inside the window, detection in flight
  RoundTripAndCoStep(cfg, spec.plan, fault, donor, 400);
}

TEST(SnapshotRoundTrip, DetectorPresenceMismatchIsRejected) {
  const auto& spec = core::SharedValenciaScenario()[0];
  uav::UavConfig with_detector = uav::MakeUavConfig(spec);
  with_detector.detector.enabled = true;
  uav::Uav donor(with_detector, spec.plan, std::nullopt, kSeed);
  StepTo(donor, 5.0);
  sim::Snapshot snap;
  donor.SaveState(snap);

  const uav::UavConfig without = uav::MakeUavConfig(spec);
  uav::Uav clone(without, spec.plan, std::nullopt, kSeed);
  EXPECT_FALSE(clone.RestoreState(snap))
      << "detector section restored into a vehicle without a detector";
}

TEST(SnapshotRoundTrip, StructurallyBrokenSnapshotsAreRejected) {
  const auto& spec = core::SharedValenciaScenario()[0];
  const uav::UavConfig cfg = uav::MakeUavConfig(spec);
  uav::Uav donor(cfg, spec.plan, std::nullopt, kSeed);
  StepTo(donor, 5.0);
  sim::Snapshot good;
  donor.SaveState(good);

  // Truncated section: the reader zero-fills and reports !ok.
  {
    sim::Snapshot bad = good;
    ASSERT_FALSE(bad.sections.empty());
    ASSERT_FALSE(bad.sections[0].bytes.empty());
    bad.sections[0].bytes.pop_back();
    uav::Uav clone(cfg, spec.plan, std::nullopt, kSeed);
    EXPECT_FALSE(clone.RestoreState(bad)) << "truncated section accepted";
  }
  // Over-long section: trailing bytes mean a layout mismatch.
  {
    sim::Snapshot bad = good;
    bad.sections[0].bytes.push_back(0xAB);
    uav::Uav clone(cfg, spec.plan, std::nullopt, kSeed);
    EXPECT_FALSE(clone.RestoreState(bad)) << "over-long section accepted";
  }
  // Missing section.
  {
    sim::Snapshot bad = good;
    bad.sections.erase(bad.sections.begin());
    uav::Uav clone(cfg, spec.plan, std::nullopt, kSeed);
    EXPECT_FALSE(clone.RestoreState(bad)) << "missing section accepted";
  }
  // The pristine snapshot still restores.
  {
    uav::Uav clone(cfg, spec.plan, std::nullopt, kSeed);
    EXPECT_TRUE(clone.RestoreState(good));
  }
}

}  // namespace
}  // namespace uavres
