// Per-module profile of one vehicle, measured from outside the program.
//
// The traced vehicle is the ten public FlightBus module classes of
// uav/modules.h on their own bus::FlightBus, wired exactly as uav::Uav wires
// them, with every module wrapped in a timing bus::Module decorator. Each
// sampled spec is flown four times:
//   1. SimulationRunner::RunInto           -> step count, harness cost
//   2. a bare uav::Uav::Step loop          -> uav.step_ns
//   3. the traced vehicle, alone           -> per-module time, traced step
//   4. traced vehicle and uav::Uav in lockstep, comparing the truth and
//      estimate topics byte for byte after every step (untimed)
// so the profile fails loudly the moment uav::Uav's assembly drifts from
// the vehicle being measured.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "uav/simulation_runner.h"

namespace perfbench {

inline constexpr int kModules = 10;

/// Metric names of the modules, in schedule order.
inline constexpr std::array<const char*, kModules> kModuleMetricNames{
    "sensors.imu_ns",   "sensors.gps_ns",    "sensors.baro_ns",      "sensors.mag_ns",
    "estimation.estimator_ns", "nav.health_ns", "nav.commander_ns", "control.cascade_ns",
    "sim.physics_ns",   "sim.battery_ns"};

struct VehicleProfile {
  std::uint64_t specs{0};
  std::uint64_t steps{0};          ///< control steps per pass, summed over specs
  double step_ns{0.0};             ///< bare Uav::Step, per step
  double traced_step_ns{0.0};      ///< decorated schedule pass, per step
  std::array<double, kModules> module_ns{};  ///< per control step
  double dispatch_ns{0.0};         ///< traced step - sum of modules
  double harness_ns{0.0};          ///< (RunInto - bare steps) per step
  double tracing_overhead_ns{0.0}; ///< traced step - bare step
  std::uint64_t mismatched_steps{0};  ///< steps whose topics differ from Uav
  std::string first_mismatch;      ///< empty when bit-identical
  /// Outputs of pass 1, index-aligned with the specs (store probe input).
  std::vector<uavres::uav::RunOutput> outputs;

  bool bit_identical() const { return mismatched_steps == 0 && specs > 0; }
};

/// Profiles `specs` under the campaign's run recipe: `run` for gold specs,
/// `run` without trajectory recording for faulty ones. Faulty specs should
/// carry their gold reference, as in a campaign.
VehicleProfile ProfileVehicle(const std::vector<uavres::uav::ExperimentSpec>& specs,
                              const uavres::uav::RunConfig& run, SpanRecorder& spans);

/// The campaign's run recipe for one spec (faulty runs record no trajectory).
uavres::uav::RunConfig RecipeFor(const uavres::uav::ExperimentSpec& spec,
                                 const uavres::uav::RunConfig& run);

}  // namespace perfbench
