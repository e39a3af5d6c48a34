// Fault-injection campaign: the paper's full experiment grid.
//
// 10 missions x 7 fault types x 3 targets x 4 durations = 840 faulty runs,
// plus 10 gold (fault-free) reference runs — 850 experiments total. Gold
// trajectories serve as the references for bubble-violation counting.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_model.h"
#include "core/metrics.h"
#include "core/result_store.h"
#include "core/scenario.h"
#include "telemetry/trajectory.h"
#include "uav/simulation_runner.h"

namespace uavres::core {

/// Campaign configuration.
///
/// Precedence when assembling one (see also src/app/command_line.cpp):
/// CLI flag > environment variable > built-in default. CLI commands start
/// from `FromEnvironment()` and apply parsed flags on top.
struct CampaignConfig {
  std::uint64_t seed_base{2024};
  std::vector<double> durations{kInjectionDurations.begin(), kInjectionDurations.end()};
  double injection_start_s{kInjectionStartS};
  int num_threads{0};        ///< 0: hardware_concurrency
  int mission_limit{0};      ///< 0: all 10; N > 0: first N missions (dev mode)
  /// Result-store directory; empty disables caching. Completed runs are
  /// persisted as workers finish and cached runs are skipped on the next
  /// invocation, so an interrupted campaign resumes where it left off.
  /// Ignored when `run.uav_config_mutator` is set (opaque, unhashable).
  std::string cache_dir;
  uav::RunConfig run;

  class Builder;

  /// Reads UAVRES_FAST / UAVRES_MISSIONS / UAVRES_THREADS / UAVRES_CACHE_DIR /
  /// UAVRES_RECOVERY from the environment for quick developer runs (see
  /// DESIGN.md §4).
  /// Prints a one-line stderr warning for any set-but-ineffective variable
  /// (unparseable or equal to the value already in force).
  static CampaignConfig FromEnvironment();

  /// Validates invariants the aggregate fields cannot enforce. Returns an
  /// error description, or nullopt when the config is well-formed. Called
  /// by Builder::Build and Campaign's constructor.
  std::optional<std::string> Validate() const;
};

/// Fluent construction with fail-fast validation:
///
///   auto cfg = CampaignConfig::Builder()
///                  .Missions(3).Threads(8).CacheDir(".uavres-cache").Build();
///
/// Build() throws std::invalid_argument on a config Validate() rejects
/// (negative thread counts, an empty/non-positive duration grid, ...).
class CampaignConfig::Builder {
 public:
  /// Starts from the built-in defaults (full paper grid).
  Builder() = default;
  /// Starts from an existing config (e.g. FromEnvironment()).
  explicit Builder(CampaignConfig base) : cfg_(std::move(base)) {}

  Builder& SeedBase(std::uint64_t seed) { cfg_.seed_base = seed; return *this; }
  Builder& Durations(std::vector<double> durations) {
    cfg_.durations = std::move(durations);
    return *this;
  }
  Builder& InjectionStart(double start_s) { cfg_.injection_start_s = start_s; return *this; }
  Builder& Threads(int n) { cfg_.num_threads = n; return *this; }
  Builder& Missions(int limit) { cfg_.mission_limit = limit; return *this; }
  Builder& CacheDir(std::string dir) { cfg_.cache_dir = std::move(dir); return *this; }
  Builder& Run(uav::RunConfig run) { cfg_.run = std::move(run); return *this; }
  /// Recovery axis: online IMU-fault detection + estimator failover on every
  /// run (RunConfig::recovery). Off keeps results and store keys byte-
  /// identical to a pre-recovery build.
  Builder& Recovery(bool on) { cfg_.run.recovery = on; return *this; }

  /// Validates and returns the config; throws std::invalid_argument with
  /// Validate()'s description when it is ill-formed.
  CampaignConfig Build() const;

 private:
  CampaignConfig cfg_;
};

/// All results of a campaign.
struct CampaignResults {
  std::vector<MissionResult> gold;
  std::vector<MissionResult> faulty;
  std::vector<telemetry::Trajectory> gold_trajectories;  ///< by mission index
  CacheStats cache;  ///< result-store accounting (all zeros when disabled)

  std::size_t TotalRuns() const { return gold.size() + faulty.size(); }
};

/// One experiment's store entry (the trajectory is set for a gold spec only)
/// and whether it was loaded rather than simulated.
struct ExperimentEntry {
  StoredRun run;
  bool hit{false};
};

/// The one path every experiment of the grid takes, offline (Campaign::Run)
/// and in the serve daemon, so both key, harness and store a spec the same
/// way: under `base`, a gold spec records its trajectory (the bubble
/// reference of its mission's faulty runs) and a faulty spec records none.
///
/// RunExperiment returns the store's entry for `spec`, which for a gold spec
/// must carry the trajectory; on a miss it simulates `spec` on this thread's
/// scratch and commits the result. `gold` supplies a faulty spec's reference
/// trajectory and is called only on a miss, so a caller can resolve its
/// mission's gold lazily; the trajectory must outlive the call.
ExperimentEntry RunExperiment(ResultStore& store, const uav::RunConfig& base,
                              uav::ExperimentSpec spec,
                              const std::function<const telemetry::Trajectory*()>& gold = {});

/// The store key RunExperiment uses for `spec` under `base`.
std::uint64_t ExperimentKey(const uav::RunConfig& base, const uav::ExperimentSpec& spec);

/// Runs the grid deterministically (results independent of thread count).
class Campaign {
 public:
  /// Throws std::invalid_argument when `cfg` fails CampaignConfig::Validate
  /// (prefer CampaignConfig::Builder, which rejects at construction time).
  explicit Campaign(const CampaignConfig& cfg = {});

  /// The fleet under test (possibly mission-limited).
  const std::vector<DroneSpec>& fleet() const { return fleet_; }

  /// Full list of fault specs in the grid (21 per duration).
  std::vector<FaultSpec> GridFaults() const;

  /// Execute gold + faulty runs. `progress` (optional) is called with
  /// (completed, total) as runs finish.
  ///
  /// Thread-safety contract: `progress` is invoked CONCURRENTLY from up to
  /// `num_threads` scheduler workers (one of which is the calling thread),
  /// with no serialization or ordering guarantee beyond this: `completed`
  /// values are unique, cover 1..total exactly once across the campaign,
  /// and each call's value is a fresh atomic increment (so the largest
  /// value seen is the true completion count). The callback must therefore
  /// be thread-safe; it should also be fast, since it runs on the worker
  /// that just finished a simulation. A plain relaxed-atomic store of
  /// `completed` needs no mutex.
  CampaignResults Run(const std::function<void(std::size_t, std::size_t)>& progress = {}) const;

 private:
  CampaignConfig cfg_;
  std::vector<DroneSpec> fleet_;
};

}  // namespace uavres::core
