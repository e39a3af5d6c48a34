// Quadrotor airframe simulation: rotors, aerodynamics, ground contact.
#pragma once

#include <array>

#include "sim/environment.h"
#include "sim/motor.h"
#include "sim/rigid_body.h"

namespace uavres::sim {

/// Physical parameters of the simulated airframe (X configuration).
struct QuadrotorParams {
  double mass_kg{1.5};
  math::Vec3 inertia_diag{0.029, 0.029, 0.055};  ///< [kg m^2]
  double arm_length_m{0.25};                     ///< rotor distance from CoG
  double rotor_radius_m{0.12};                   ///< propeller disk radius
  RotorParams rotor{};                           ///< identical rotors

  // Aerodynamic drag on the body: F = -lin*v_rel - quad*|v_rel|*v_rel.
  double linear_drag{0.35};    ///< [N s/m]
  double quadratic_drag{0.04};  ///< [N s^2/m^2]
  double rotational_damping{0.025};  ///< [N m s/rad]

  /// Ground interaction.
  double ground_friction_decay{8.0};  ///< horizontal velocity decay rate on ground [1/s]
};

/// Builds a parameter set whose rotors can lift `mass_kg` with the given
/// thrust-to-weight ratio; used to derive per-mission airframes.
QuadrotorParams MakeQuadrotorParams(double mass_kg, double thrust_to_weight = 2.0);

/// Normalized collective that balances gravity when level. Free function so
/// controller tuning can be derived from the parameter set alone, without
/// constructing a throwaway Quadrotor.
double HoverThrustFraction(const QuadrotorParams& params);

/// Full quadrotor simulation. Motor commands are normalized [0,1].
///
/// Rotor layout (X config, viewed from above, x forward / y right):
///   0: front-right CCW, 1: back-left CCW, 2: front-left CW, 3: back-right CW
class Quadrotor {
 public:
  static constexpr int kNumRotors = 4;

  Quadrotor(const QuadrotorParams& params, Environment* env);

  const QuadrotorParams& params() const { return params_; }
  const RigidBodyState& state() const { return body_.state(); }
  double mass() const { return body_.mass(); }

  /// Place the vehicle at a pose, at rest, with rotors spun down.
  void ResetTo(const math::Vec3& pos, double yaw_rad);

  /// Normalized command that balances gravity when level.
  double HoverThrustFraction() const;

  /// Instantaneous aerodynamic (ideal induced) power of the rotors [W],
  /// from momentum theory: P = sum T_i^1.5 / sqrt(2 rho A_disk).
  double InducedPower() const;

  /// Latest rotor levels (for telemetry/tests).
  std::array<double, kNumRotors> RotorLevels() const;

  /// Set this step's motor commands and advance the physics by dt.
  void Step(const std::array<double, kNumRotors>& commands, double dt);

  /// Permanently fail a rotor (ESC/motor/prop loss): it spins down and
  /// ignores all further commands. Out-of-range indices are ignored.
  void FailMotor(int index);

  /// True when the given rotor has been failed.
  bool MotorFailed(int index) const;

  /// True while the vehicle rests on the ground plane (z == 0).
  bool on_ground() const { return on_ground_; }

  /// Vertical speed at the most recent air->ground transition [m/s, >= 0].
  double last_impact_speed() const { return last_impact_speed_; }

  /// Number of air->ground transitions since reset.
  int touchdown_count() const { return touchdown_count_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Quadrotor& x) {
    v(x.body_, x.rotors_, x.on_ground_, x.last_impact_speed_, x.touchdown_count_, x.failed_);
  }

 private:
  math::Vec3 RotorPosition(int i) const;
  void HandleGroundContact(double dt);

  QuadrotorParams params_;
  Environment* env_;  // not owned
  RigidBody body_;
  std::array<Rotor, kNumRotors> rotors_;
  bool on_ground_{true};
  double last_impact_speed_{0.0};
  int touchdown_count_{0};
  std::array<bool, kNumRotors> failed_{{false, false, false, false}};
};

}  // namespace uavres::sim
