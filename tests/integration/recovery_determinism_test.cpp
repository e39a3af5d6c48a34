// Recovery-axis determinism (DESIGN.md §15): with the IMU-fault detector and
// estimator failover enabled, detection decisions and recovery outcomes must
// be byte-identical no matter how the campaign is executed — across worker
// thread counts. And with recovery OFF, the result
// store's cache keys must be bit-identical to the values a pre-recovery
// build produced, so every previously cached campaign stays valid.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/campaign.h"
#include "core/fault_model.h"
#include "core/result_store.h"
#include "core/scenario.h"
#include "uav/simulation_runner.h"

namespace uavres {
namespace {

// Bit-exact fingerprint helpers (same discipline as the campaign-determinism
// suite), extended with every detection/recovery field.
void Append(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx,", static_cast<unsigned long long>(bits));
  out += buf;
}
void Append(std::string& out, int v) { out += std::to_string(v) + ","; }

void Append(std::string& out, const core::MissionResult& r) {
  Append(out, r.mission_index);
  Append(out, static_cast<int>(r.fault.target));
  Append(out, static_cast<int>(r.fault.type));
  Append(out, r.fault.duration_s);
  Append(out, static_cast<int>(r.outcome));
  Append(out, r.flight_duration_s);
  Append(out, r.distance_km);
  Append(out, r.inner_violations);
  Append(out, r.outer_violations);
  Append(out, static_cast<int>(r.failsafe_reason));
  Append(out, r.failsafe_time_s);
  Append(out, static_cast<int>(r.detector_enabled));
  Append(out, r.detection_time_s);
  Append(out, r.detection_latency_s);
  Append(out, r.false_positives);
  Append(out, static_cast<int>(r.recovery_engaged));
  Append(out, static_cast<int>(r.recovery_success));
  out += "\n";
}

std::string Fingerprint(const core::CampaignResults& results) {
  std::string out;
  for (const auto& g : results.gold) Append(out, g);
  for (const auto& f : results.faulty) Append(out, f);
  return out;
}

// The recovery-on grid reproduces byte-for-byte across worker thread counts.
TEST(RecoveryDeterminism, RecoveryCampaignByteIdenticalAcrossThreadsAndBatches) {
  std::string reference;
  for (const int threads : {1, 2, 8}) {
    core::CampaignConfig cfg;
    cfg.mission_limit = 1;
    cfg.durations = {2.0};
    cfg.num_threads = threads;
    cfg.run.recovery = true;
    cfg.run.record_trajectory = true;  // gold references still recorded

    const auto results = core::Campaign(cfg).Run();
    for (const auto& r : results.gold) {
      EXPECT_TRUE(r.detector_enabled);
      EXPECT_EQ(r.false_positives, 0) << "false positive in gold run";
    }
    const std::string fp = Fingerprint(results);
    if (reference.empty()) {
      reference = fp;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(fp, reference) << "recovery results diverge at " << threads
                               << " threads";
    }
  }
}

// Historical cache keys (default RunConfig, recovery off, seed base 2024,
// BuildValenciaScenario drones, faults at kInjectionStartS), captured under
// experiment-identity schema v4 (api::kSpecSchemaVersion, which the key
// recipe mixes in). Keys must never drift within a schema version: a drift
// would silently invalidate every user's cached campaign. A deliberate
// schema bump DOES re-key every entry — that is the point of mixing the
// version in — and requires re-pinning these constants in the same change.
struct HistoricalKey {
  int mission;
  std::optional<core::FaultSpec> fault;
  std::uint64_t key;
};

std::optional<core::FaultSpec> Fault(core::FaultType type, core::FaultTarget target,
                                     double duration_s) {
  core::FaultSpec f;
  f.type = type;
  f.target = target;
  f.start_time_s = core::kInjectionStartS;
  f.duration_s = duration_s;
  return f;
}

TEST(RecoveryDeterminism, RecoveryOffCacheKeysArePinned) {
  const auto fleet = core::BuildValenciaScenario();
  const HistoricalKey kHistorical[] = {
      {0, std::nullopt, 8699998946838784913ULL},
      {3, std::nullopt, 1155371309960634967ULL},
      {9, std::nullopt, 14922374912957739565ULL},
      {0, Fault(core::FaultType::kZeros, core::FaultTarget::kGyrometer, 2.0),
       8164406632116859894ULL},
      {7, Fault(core::FaultType::kNoise, core::FaultTarget::kImu, 0.5),
       14342322927713679477ULL},
      {4, Fault(core::FaultType::kMax, core::FaultTarget::kAccelerometer, 5.0),
       11863345330188354280ULL},
  };

  const uav::RunConfig off;  // defaults: recovery false
  uav::RunConfig on;
  on.recovery = true;

  for (const auto& h : kHistorical) {
    const uav::ExperimentSpec spec{fleet[static_cast<std::size_t>(h.mission)], h.mission,
                                   h.fault, 2024};
    EXPECT_EQ(core::ExperimentCacheKey(off, spec), h.key)
        << "recovery-off key drifted for mission " << h.mission
        << (h.fault ? " (faulty)" : " (gold)");
    // The recovery axis is part of the experiment identity: its results must
    // never collide with (or be served from) recovery-off cache entries.
    EXPECT_NE(core::ExperimentCacheKey(on, spec), h.key)
        << "recovery-on key collides with the recovery-off entry";
  }
}

}  // namespace
}  // namespace uavres
