// Fleet experiments: spec -> scenario -> fleet run -> cacheable record
// (DESIGN.md §18).
//
// This is the campaign-style execution surface for fleet-scale runs: a
// core::FleetExperimentSpec (pure identity) expands to a concrete shared-
// airspace scenario, runs on the FleetRunner, and serializes to a
// telemetry::FleetRecord keyed by core::FleetCacheKey — so `uavres fleet`,
// benches and sweeps dedupe airspace experiments through the ResultStore
// exactly like single-mission campaigns. The one execution knob, the thread
// count, is result-neutral by the FleetRunner contract, which is what makes
// caching across it sound.
#pragma once

#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/result_store.h"
#include "telemetry/fleet_codec.h"
#include "uspace/fleet_runner.h"

namespace uavres::uspace {

/// Result-neutral execution strategy for one fleet run.
struct FleetExecutionKnobs {
  int num_threads{0};  ///< 0 = hardware concurrency
};

/// Expands a fleet spec to its concrete drone fleet:
///   * kConvoy   — BuildConvoyScenario scaled to num_drones,
///   * kValencia — the paper's 10 Valencia missions tiled east in replicas
///     of 10 until num_drones pads exist (replica r offset by
///     r * kValenciaTileOffsetM, names suffixed "#r").
std::vector<core::DroneSpec> BuildFleetScenario(const core::FleetExperimentSpec& spec);

/// East offset between Valencia replicas [m]: comfortably beyond the
/// operations area, so tiles never interact.
inline constexpr double kValenciaTileOffsetM = 6000.0;

/// Translates a fleet spec into the runner config it pins down (harness
/// block only; knobs fill the execution block).
FleetRunConfig MakeFleetRunConfig(const core::FleetExperimentSpec& spec,
                                  const FleetExecutionKnobs& knobs);

/// Folds a run's output into the serialized record: per-drone outcomes,
/// conflict events, cascade metrics (largest conflict-graph component and
/// secondary — neither-drone-faulted — conflicts), min-separation
/// distribution quantiles and airspace throughput.
telemetry::FleetRecord ToFleetRecord(const core::FleetExperimentSpec& spec,
                                     const FleetRunOutput& out);

/// Runs one fleet experiment end to end (no cache).
telemetry::FleetRecord RunFleetExperiment(const core::FleetExperimentSpec& spec,
                                          const FleetExecutionKnobs& knobs = {});

/// Campaign-style executor for a grid of fleet specs: ParallelFor across
/// specs, ResultStore dedupe by FleetCacheKey.
struct FleetCampaignConfig {
  /// knobs.num_threads bounds the whole run: the spec grid's workers when
  /// there are several specs (each fleet then runs on one thread), else the
  /// FleetRunner's own.
  FleetExecutionKnobs knobs;
  std::string cache_dir;  ///< empty disables caching
};

class FleetCampaign {
 public:
  explicit FleetCampaign(const FleetCampaignConfig& cfg);

  struct Result {
    telemetry::FleetRecord record;
    bool from_cache{false};
  };

  /// Runs every spec (cache-first). Results are index-aligned with `specs`
  /// and byte-identical for every thread count.
  std::vector<Result> Run(const std::vector<core::FleetExperimentSpec>& specs);

  core::CacheStats cache_stats() const { return store_.stats(); }
  core::ResultStore& store() { return store_; }

 private:
  FleetCampaignConfig cfg_;
  core::ResultStore store_;
};

}  // namespace uavres::uspace
