// Inject a single chosen fault into one mission and report the outcome plus
// the paper's metrics — the smallest end-to-end use of the fault-injection
// API.
//
//   ./fault_demo [mission 0-9] [target acc|gyro|imu]
//                [type fixed|zeros|freeze|random|min|max|noise] [duration_s]
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/scenario.h"
#include "uav/simulation_runner.h"

int main(int argc, char** argv) {
  using namespace uavres;

  const auto fleet = core::BuildValenciaScenario();
  const std::string mission_arg = argc > 1 ? argv[1] : "9";
  const auto target = core::ParseFaultTarget(argc > 2 ? argv[2] : "imu");
  const auto type = core::ParseFaultType(argc > 3 ? argv[3] : "random");
  const double duration = argc > 4 ? std::atof(argv[4]) : 30.0;

  int mission = -1;
  const auto [end, ec] = std::from_chars(
      mission_arg.data(), mission_arg.data() + mission_arg.size(), mission);
  if (ec != std::errc{} || end != mission_arg.data() + mission_arg.size() || mission < 0 ||
      mission >= static_cast<int>(fleet.size()) || !target || !type) {
    std::cerr << "usage: fault_demo [mission 0-9] [target acc|gyro|imu]\n"
                 "                  [type fixed|zeros|freeze|random|min|max|noise] "
                 "[duration_s]\n";
    return 2;
  }
  const auto& spec = fleet[static_cast<std::size_t>(mission)];

  core::FaultSpec fault;
  fault.target = *target;
  fault.type = *type;
  fault.duration_s = duration;

  const uav::SimulationRunner runner;
  const auto gold = runner.Run({spec, mission, std::nullopt, 2024});
  const auto out = runner.Run({spec, mission, fault, 2024, &gold.trajectory});

  std::cout << "Mission   : " << spec.name << "\n"
            << "Fault     : " << core::FaultLabel(fault.target, fault.type) << " for "
            << duration << " s at t=" << fault.start_time_s << " s\n"
            << "Outcome   : " << core::ToString(out.result.outcome) << "\n"
            << "Duration  : " << out.result.flight_duration_s << " s (gold "
            << gold.result.flight_duration_s << " s)\n"
            << "Distance  : " << out.result.distance_km << " km (gold "
            << gold.result.distance_km << " km)\n"
            << "Bubble    : inner " << out.result.inner_violations << ", outer "
            << out.result.outer_violations << " violations (max deviation "
            << out.result.max_deviation_m << " m)\n";
  if (!out.result.crash_reason.empty()) {
    std::cout << "Crash     : " << out.result.crash_reason << " at t="
              << out.result.crash_time_s << " s\n";
  }
  if (out.result.failsafe_reason != nav::FailsafeReason::kNone) {
    std::cout << "Failsafe  : " << nav::ToString(out.result.failsafe_reason) << " at t="
              << out.result.failsafe_time_s << " s\n";
  }
  for (const auto& e : out.log.Events()) {
    std::cout << "  [" << e.t << "s] " << telemetry::ToString(e.level) << " " << e.message
              << "\n";
  }
  return 0;
}
