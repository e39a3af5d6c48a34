// Fleet-scale experiment identity (DESIGN.md §18).
//
// A fleet experiment measures the systemic, airspace-level impact of one
// drone's IMU fault: N drones share a U-space frame, one carries the fault,
// and the interesting outputs are conflicts, alert cascades, separation
// margins and airspace throughput rather than a single mission outcome.
//
// FleetExperimentSpec is the fleet twin of uav::ExperimentSpec: a pure-data
// value that fully determines a fleet run's result, hashable into a stable
// 64-bit cache key (FleetCacheKey) so fleet runs dedupe through the
// ResultStore exactly like single-mission experiments. The spec describes
// WHAT is simulated; execution strategy (the thread count) is deliberately
// excluded — the fleet runner guarantees results are byte-identical across
// it, which is what makes the cache sound.
#pragma once

#include <cstdint>
#include <optional>

#include "core/fault_model.h"

namespace uavres::core {

/// Which shared-airspace scenario a fleet spec expands to.
enum class FleetScenario : std::uint8_t {
  kConvoy = 0,    ///< parallel-corridor convoy, scaled to N drones
  kValencia = 1,  ///< the paper's Valencia missions, tiled to N drones
};

const char* ToString(FleetScenario s);

/// Everything a fleet run's outcome depends on. Plain data, default ==.
struct FleetExperimentSpec {
  FleetScenario scenario{FleetScenario::kConvoy};
  int num_drones{10};

  // Scenario shape (convoy corridor geometry; Valencia tiling reuses
  // lane_spacing_m as the replica offset between mission copies).
  double lane_spacing_m{30.0};
  double speed_kmh{12.0};
  double leg_length_m{1200.0};

  // U-space harness.
  double tracking_interval_s{0.5};
  double extra_time_s{180.0};
  double drop_probability{0.0};  ///< drone->tracker link loss
  double link_delay_s{0.0};      ///< drone->tracker link latency

  // The fault under study and the recovery axis.
  std::optional<FaultSpec> fault;  ///< injected into one drone (nullopt = baseline)
  int faulted_drone{0};            ///< index into the fleet
  bool recovery{false};            ///< detector + estimator failover on all drones

  /// > 0 enables continuous-traffic mode: slots whose drone ended are
  /// relaunched with fresh flights until this sim time, which is what gives
  /// airspace throughput a denominator. 0 = every drone flies once.
  double relaunch_horizon_s{0.0};

  std::uint64_t seed_base{2024};

  bool operator==(const FleetExperimentSpec&) const = default;
};

/// Stable content hash of a fleet spec — the ResultStore key for its
/// serialized FleetRecord. Mixes the store schema version, so a semantics
/// bump invalidates fleet entries together with mission entries.
std::uint64_t FleetCacheKey(const FleetExperimentSpec& spec);

}  // namespace uavres::core
