// Fork-vs-full-run bit-identity property suite (DESIGN.md §16) — the
// load-bearing oracle for simulation checkpointing. For every paper fault
// family (plus extended types) and a sample of onsets, three executions of
// the same ExperimentSpec must serialize to byte-identical (MissionResult,
// Trajectory) streams:
//
//   (a) a plain RunInto (no checkpointing anywhere near it),
//   (b) RunWithCheckpoint's full output (capturing a snapshot is free), and
//   (c) RunFromSnapshot resumed from that snapshot (forking is exact).
//
// The same identity must hold across 8 magnitude variants (from scratch vs
// fork) and under 8 concurrent forking threads — checkpointing is an
// execution strategy, never a different simulation. Store keys are checked too: a spec at default magnitude hashes
// identically with and without the magnitude field spelled out, so every
// pre-snapshot-era cache entry stays addressable.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_model.h"
#include "core/result_store.h"
#include "core/scenario.h"
#include "telemetry/trajectory.h"
#include "uav/simulation_runner.h"

namespace uavres {
namespace {

constexpr int kMission = 0;
constexpr std::uint64_t kSeedBase = 2024;
constexpr double kDurationS = 5.0;

/// Canonical byte form of one run: the result-store record followed by the
/// encoded trajectory. Byte equality here is the PR's identity oracle.
std::string SerializeOutput(const uav::RunOutput& out) {
  std::ostringstream os(std::ios::binary);
  core::WriteMissionResult(os, out.result);
  return os.str() + telemetry::Encode(out.trajectory);
}

uav::ExperimentSpec MakeSpec(core::FaultType type, core::FaultTarget target,
                             double start_s, double duration_s = kDurationS) {
  uav::ExperimentSpec spec;
  spec.drone = core::SharedValenciaScenario()[kMission];
  spec.mission_index = kMission;
  spec.seed_base = kSeedBase;
  core::FaultSpec fault;
  fault.type = type;
  fault.target = target;
  fault.start_time_s = start_s;
  fault.duration_s = duration_s;
  spec.fault = fault;
  return spec;
}

struct FamilyOnsetCase {
  core::FaultType type;
  core::FaultTarget target;
  double onset_s;
};

std::vector<FamilyOnsetCase> AllFamilyOnsetCases() {
  // Two onsets per family: early (climb-out) and mid-cruise. The capture
  // point lands one control step before the first corrupted sample either
  // way, so both exercise the fault-boundary placement.
  constexpr double kOnsets[] = {12.0, 25.5};
  std::vector<FamilyOnsetCase> cases;
  int i = 0;
  for (core::FaultType type : core::kAllFaultTypes) {
    // Rotate the target so all three appear across the table without
    // tripling the run count.
    const core::FaultTarget target = core::kAllFaultTargets[i++ % 3];
    for (double onset : kOnsets) cases.push_back({type, target, onset});
  }
  // Extended (non-paper) types ride through the same machinery.
  for (core::FaultType type : core::kExtendedFaultTypes) {
    cases.push_back({type, core::FaultTarget::kImu, kOnsets[1]});
  }
  return cases;
}

TEST(SnapshotFork, EveryFaultFamilyForksBitIdentical) {
  const uav::RunConfig cfg;
  const uav::SimulationRunner runner(cfg);
  uav::RunOutput full, checkpointed, forked;
  sim::Snapshot snap;

  for (const FamilyOnsetCase& c : AllFamilyOnsetCases()) {
    const uav::ExperimentSpec spec = MakeSpec(c.type, c.target, c.onset_s);
    std::ostringstream label_os;
    label_os << spec;
    const std::string label = label_os.str();

    runner.RunInto(spec, full);
    const std::string golden = SerializeOutput(full);

    // (b) Capturing a checkpoint mid-run must not perturb the run.
    ASSERT_TRUE(runner.RunWithCheckpoint(spec, c.onset_s, snap, checkpointed))
        << label;
    EXPECT_EQ(SerializeOutput(checkpointed), golden)
        << label << ": checkpoint capture perturbed the run";
    EXPECT_EQ(checkpointed.steps, full.steps) << label;
    ASSERT_GT(snap.step_count, 0) << label;
    // The capture step is the last one strictly before the onset, so the
    // snapshot predates the first corrupted sample.
    ASSERT_LT(snap.time_s, c.onset_s) << label;

    // (c) Resuming from the snapshot must replay the remainder exactly.
    ASSERT_TRUE(runner.RunFromSnapshot(spec, snap, forked)) << label;
    EXPECT_EQ(SerializeOutput(forked), golden)
        << label << ": fork diverged from the uncheckpointed run";
    EXPECT_EQ(forked.steps, full.steps) << label;

    // Store addressing is untouched by the new magnitude axis at its
    // default: the key is the pre-snapshot-era key, bit for bit.
    uav::ExperimentSpec explicit_m = spec;
    explicit_m.fault->magnitude = 1.0;
    EXPECT_EQ(core::ExperimentCacheKey(cfg, spec),
              core::ExperimentCacheKey(cfg, explicit_m))
        << label;
  }
}

TEST(SnapshotFork, RecoveryHarnessForksBitIdentical) {
  // Same identity with the detector + failover enabled: the snapshot then
  // carries the kDetector section and the harness records detection fields.
  uav::RunConfig cfg;
  cfg.recovery = true;
  const uav::SimulationRunner runner(cfg);
  uav::RunOutput full, forked;
  sim::Snapshot snap;

  for (core::FaultType type :
       {core::FaultType::kZeros, core::FaultType::kNoise, core::FaultType::kFreeze}) {
    const uav::ExperimentSpec spec = MakeSpec(type, core::FaultTarget::kImu, 20.0);
    ASSERT_TRUE(runner.RunWithCheckpoint(spec, 20.0, snap, full));
    ASSERT_TRUE(runner.RunFromSnapshot(spec, snap, forked));
    EXPECT_EQ(SerializeOutput(forked), SerializeOutput(full))
        << "recovery fork diverged for fault type " << static_cast<int>(type);
  }
}

TEST(SnapshotFork, MagnitudeVariantsMatchScalarAndBatchRuns) {
  // One donor snapshot at full strength; 8 magnitude variants each run two
  // ways — from scratch and forked off the shared donor snapshot.
  // ExperimentSeed excludes magnitude, so both must agree to the byte for
  // every variant.
  const uav::RunConfig cfg;
  const uav::SimulationRunner runner(cfg);

  const uav::ExperimentSpec donor =
      MakeSpec(core::FaultType::kZeros, core::FaultTarget::kGyrometer, 15.0);
  sim::Snapshot snap;
  uav::RunOutput donor_out;
  ASSERT_TRUE(runner.RunWithCheckpoint(donor, 15.0, snap, donor_out));

  constexpr int kVariants = 8;
  std::vector<uav::ExperimentSpec> specs(kVariants, donor);
  for (int i = 0; i < kVariants; ++i) {
    specs[i].fault->magnitude = 1.0 - 0.125 * i;  // 1.0 down to 0.125
  }

  std::vector<std::string> scalar(kVariants);
  uav::RunOutput scratch;
  for (int i = 0; i < kVariants; ++i) {
    runner.RunInto(specs[i], scratch);
    scalar[i] = SerializeOutput(scratch);
  }
  EXPECT_EQ(scalar[0], SerializeOutput(donor_out));  // m=1.0 is the donor run

  for (int i = 0; i < kVariants; ++i) {
    uav::RunOutput forked;
    ASSERT_TRUE(runner.RunFromSnapshot(specs[i], snap, forked)) << i;
    EXPECT_EQ(SerializeOutput(forked), scalar[i])
        << "fork " << i << " (m=" << specs[i].fault->magnitude << ")";
  }
}

TEST(SnapshotFork, EightConcurrentForksMatchSingleThreaded) {
  // SimulationRunner is const/thread-safe; eight threads forking off the
  // same shared snapshot must each reproduce the single-threaded bytes.
  const uav::RunConfig cfg;
  const uav::SimulationRunner runner(cfg);

  const uav::ExperimentSpec donor =
      MakeSpec(core::FaultType::kNoise, core::FaultTarget::kAccelerometer, 18.0);
  sim::Snapshot snap;
  uav::RunOutput donor_out;
  ASSERT_TRUE(runner.RunWithCheckpoint(donor, 18.0, snap, donor_out));

  constexpr int kThreads = 8;
  std::vector<uav::ExperimentSpec> specs(kThreads, donor);
  std::vector<std::string> expected(kThreads);
  uav::RunOutput scratch;
  for (int i = 0; i < kThreads; ++i) {
    specs[i].fault->magnitude = (i + 1) / static_cast<double>(kThreads);
    runner.RunInto(specs[i], scratch);
    expected[i] = SerializeOutput(scratch);
  }

  std::vector<std::string> got(kThreads);
  std::vector<std::uint8_t> ok(kThreads, 0);
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      pool.emplace_back([&, i] {
        uav::RunOutput out;
        ok[i] = runner.RunFromSnapshot(specs[i], snap, out) ? 1 : 0;
        got[i] = SerializeOutput(out);
      });
    }
    for (std::thread& t : pool) t.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(ok[i]) << "thread " << i;
    EXPECT_EQ(got[i], expected[i]) << "thread " << i << " fork diverged";
  }
}

TEST(SnapshotFork, MismatchedSpecOrVersionIsRejected) {
  const uav::RunConfig cfg;
  const uav::SimulationRunner runner(cfg);
  const uav::ExperimentSpec donor =
      MakeSpec(core::FaultType::kMax, core::FaultTarget::kGyrometer, 12.0);
  sim::Snapshot snap;
  ASSERT_TRUE(runner.CaptureSnapshot(donor, 12.0, snap));

  uav::RunOutput out;
  // Different mission — digest guard.
  uav::ExperimentSpec other = donor;
  other.drone = core::SharedValenciaScenario()[1];
  other.mission_index = 1;
  EXPECT_FALSE(runner.RunFromSnapshot(other, snap, out));
  // Different seed base — digest guard.
  other = donor;
  other.seed_base = kSeedBase + 1;
  EXPECT_FALSE(runner.RunFromSnapshot(other, snap, out));
  // Future snapshot version.
  sim::Snapshot future = snap;
  future.version = sim::kSnapshotVersion + 1;
  EXPECT_FALSE(runner.RunFromSnapshot(donor, future, out));
  // Different harness shape (recovery adds the detector section).
  uav::RunConfig recovery_cfg;
  recovery_cfg.recovery = true;
  const uav::SimulationRunner recovery_runner(recovery_cfg);
  EXPECT_FALSE(recovery_runner.RunFromSnapshot(donor, snap, out));
  // The untouched snapshot still works.
  EXPECT_TRUE(runner.RunFromSnapshot(donor, snap, out));
}

TEST(SnapshotFork, CaptureAfterTerminationFailsCleanly) {
  // A run that crashes before the requested capture point must report
  // failure instead of handing back a half-filled snapshot.
  const uav::RunConfig cfg;
  const uav::SimulationRunner runner(cfg);
  uav::ExperimentSpec spec =
      MakeSpec(core::FaultType::kZeros, core::FaultTarget::kGyrometer, 10.0, 30.0);
  sim::Snapshot snap;
  EXPECT_FALSE(runner.CaptureSnapshot(spec, 1e6, snap));
}

}  // namespace
}  // namespace uavres
