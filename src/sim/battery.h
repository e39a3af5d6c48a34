// Battery model.
//
// The paper motivates the flight-duration metric with "the limited battery
// capacity of small drones"; this model makes that constraint physical.
// Rotor electrical power follows momentum theory (P = T^1.5 / sqrt(2 rho A)
// per rotor, divided by an efficiency factor) plus a constant avionics load.
#pragma once

#include "math/num.h"

namespace uavres::sim {

/// Battery sizing and thresholds. Defaults give a 1.5 kg quad roughly
/// 15 minutes of hover: comfortable margin over the ~8 minute missions.
struct BatteryParams {
  double capacity_wh{40.0};
  double avionics_load_w{10.0};
  double propulsive_efficiency{0.7};  ///< electrical -> aerodynamic
  double critical_soc{0.10};          ///< triggers the low-battery failsafe
};

/// Energy store with state-of-charge tracking.
class Battery {
 public:
  explicit Battery(const BatteryParams& params = {})
      : params_(params), energy_j_(params.capacity_wh * 3600.0) {}

  const BatteryParams& params() const { return params_; }

  /// Drain `power_w` for `dt` seconds. Clamps at empty.
  void Drain(double power_w, double dt) {
    energy_j_ = std::max(0.0, energy_j_ - power_w * dt);
  }

  /// State of charge in [0, 1].
  double Soc() const { return energy_j_ / (params_.capacity_wh * 3600.0); }

  double RemainingWh() const { return energy_j_ / 3600.0; }

  /// Below the critical threshold: the flight stack should abort the
  /// mission (low-battery failsafe).
  bool Critical() const { return Soc() < params_.critical_soc; }

  /// Fully drained: motors can no longer be powered.
  bool Empty() const { return energy_j_ <= 0.0; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Battery& x) {
    v(x.energy_j_);
  }

 private:
  BatteryParams params_;
  double energy_j_;
};

}  // namespace uavres::sim
