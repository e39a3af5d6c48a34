// Developer diagnostic: prints a per-second view of true vs estimated
// state around the fault-injection window for any (mission, target, type,
// duration) combination. Not part of the public example set; invaluable
// when tuning the estimator/failsafe interplay.
//
//   ./debug_probe [mission 0-9] [acc|gyro|imu] [type] [duration_s]
//
// An unknown fault token, mission index or duration exits 2.
#include <charconv>
#include <cstdio>
#include <string_view>

#include "core/scenario.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

using namespace uavres;

namespace {

/// True when all of `s` parses as `value`.
template <class T>
bool ParseFull(std::string_view s, T& value) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  return !s.empty() && ec == std::errc{} && end == s.data() + s.size();
}

}  // namespace

int main(int argc, char** argv) {
  const auto fleet = core::BuildValenciaScenario();
  int mission = 0;
  double duration = 2.0;
  const auto target = core::ParseFaultTarget(argc > 2 ? argv[2] : "gyro");
  const auto type = core::ParseFaultType(argc > 3 ? argv[3] : "zeros");
  if ((argc > 1 && !ParseFull(argv[1], mission)) || mission < 0 ||
      mission >= static_cast<int>(fleet.size()) || !target || !type ||
      (argc > 4 && !ParseFull(argv[4], duration))) {
    std::fprintf(stderr,
                 "usage: debug_probe [mission 0-9] [acc|gyro|imu]\n"
                 "                   [fixed|zeros|freeze|random|min|max|noise] [duration_s]\n");
    return 2;
  }
  const auto& spec = fleet[static_cast<std::size_t>(mission)];
  core::FaultSpec fault;
  fault.target = *target;
  fault.type = *type;
  fault.duration_s = duration;
  uav::Uav u(uav::MakeUavConfig(spec), spec.plan, fault,
             uav::ExperimentSeed(2024, mission, fault));
  double next_print = 88.0;
  while (u.time() < 120.0 && !u.crash_detector().crashed()) {
    u.Step();
    if (u.time() >= next_print) {
      next_print += 0.5;
      const auto& tr = u.quad().state();
      const auto& es = u.ekf().state();
      std::printf("t=%6.1f alt=%6.2f tilt_true=%5.1f tilt_est=%5.1f omega=%6.2f thrust=%.2f mode=%s\n",
        u.time(), -tr.pos.z, math::RadToDeg(tr.att.Tilt()), math::RadToDeg(es.att.Tilt()),
        tr.omega.Norm(), u.last_thrust_cmd(), nav::ToString(u.commander().mode()));
    }
  }
  if (u.crash_detector().crashed()) std::printf("CRASH %s at %.2f\n", u.crash_detector().reason().c_str(), u.crash_detector().crash_time());
}
