// Fault-injection campaign: the paper's full experiment grid.
//
// 10 missions x 7 fault types x 3 targets x 4 durations = 840 faulty runs,
// plus 10 gold (fault-free) reference runs — 850 experiments total. Gold
// trajectories serve as the references for bubble-violation counting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_model.h"
#include "core/metrics.h"
#include "core/result_store.h"
#include "core/scenario.h"
#include "sim/snapshot.h"
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
  /// Each mission's gold true path, the bubble reference of its faulty runs
  /// (the compact form: the recorded trajectory stays in the result store).
  std::vector<telemetry::GoldPath> gold_trajectories;
  CacheStats cache;  ///< result-store accounting (all zeros when disabled)

  std::size_t TotalRuns() const { return gold.size() + faulty.size(); }
};

/// What a mission's faulty runs take from its gold run: the true path their
/// bubble deviation is measured against, and the gold run's snapshot just
/// before the fault onset. ExperimentSeed keeps the fault out of the
/// vehicle's streams, so a faulty run flies its gold run's prefix bit for
/// bit up to the onset; from the snapshot it resumes there instead of
/// flying that prefix again.
///
/// A gold run just flown brings its snapshot. One loaded from the store
/// brings none (the store keeps no snapshots): the first Onset() call
/// recaptures it with a flight of the prefix alone, so a mission whose
/// faulty runs are all cached never flies. Either way the snapshot holds no
/// recorded trajectory, which no fork reads. Onset() is thread-safe.
class GoldReference {
 public:
  /// `run` and `spec` are the gold run's harness and spec, for a recapture.
  GoldReference(telemetry::GoldPath path, std::optional<sim::Snapshot> onset,
                const uav::RunConfig& run, uav::ExperimentSpec spec, double onset_s);

  const telemetry::GoldPath& path() const { return path_; }
  /// Moves the path out (into CampaignResults); the reference is spent.
  telemetry::GoldPath TakePath() { return std::move(path_); }

  /// The snapshot just before the onset, or null when the run ends first.
  const sim::Snapshot* Onset() const;

 private:
  telemetry::GoldPath path_;
  uav::RunConfig run_;  ///< the gold harness, recording nothing
  uav::ExperimentSpec spec_;
  double onset_s_;
  mutable std::once_flag recaptured_;
  mutable std::optional<sim::Snapshot> onset_;
};

/// A gold spec's result, whether it was loaded rather than simulated, and
/// its mission's reference.
struct GoldRun {
  MissionResult result;
  bool hit{false};
  std::unique_ptr<GoldReference> reference;
};

/// The one path of a gold spec, offline (Campaign::Run) and in the serve
/// daemon: the store's entry for `spec`, which carries the recorded
/// trajectory, or on a miss a simulation that records it and captures the
/// snapshot just before `onset_s` as it flies, committed to the store.
GoldRun RunGold(ResultStore& store, const uav::RunConfig& base, const uav::ExperimentSpec& spec,
                double onset_s);

/// A faulty spec's result and whether it was loaded rather than simulated.
struct ExperimentEntry {
  MissionResult result;
  bool hit{false};
};

/// The one path of a faulty spec, offline and in the serve daemon, so both
/// key, harness and store it the same way: the store's entry for `spec`, or
/// on a miss a simulation on this thread's scratch, committed to the store.
/// A faulty run records no trajectory. `gold` supplies the mission's
/// reference (or null) and is called only on a miss, so a caller can resolve
/// it lazily; what it points to must outlive the call. A miss resumes from
/// the reference's onset snapshot when the fault opens after it, and flies
/// from t = 0 otherwise; both give the same bytes.
ExperimentEntry RunExperiment(ResultStore& store, const uav::RunConfig& base,
                              uav::ExperimentSpec spec,
                              const std::function<const GoldReference*()>& gold = {});

/// The store key RunGold (a gold spec) or RunExperiment (a faulty one) uses
/// for `spec` under `base`.
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
