// 6-DOF rigid-body state and integrator.
#pragma once

#include "math/mat3.h"
#include "math/quat.h"
#include "math/vec3.h"

namespace uavres::sim {

/// Full kinematic state of a rigid body.
///
/// Frames: world is local NED (z down), body is FRD. `att` rotates body
/// vectors into world vectors. `omega` is the body-frame angular rate.
struct RigidBodyState {
  math::Vec3 pos;    ///< world position [m]
  math::Vec3 vel;    ///< world velocity [m/s]
  math::Quat att;    ///< body -> world rotation
  math::Vec3 omega;  ///< body angular rate [rad/s]

  /// World-frame acceleration from the last integration step [m/s^2];
  /// the accelerometer model needs it to produce specific force.
  math::Vec3 accel_world;
};

/// Codec field list (telemetry/binary_io.h): the .uvbs truth payload and the
/// snapshot's rigid-body state.
template <class V>
void Fields(V& v, RigidBodyState& s) {
  v(s.pos, s.vel, s.att, s.omega, s.accel_world);
}

/// Rigid body with constant mass and diagonal-dominant inertia, integrated
/// with semi-implicit (symplectic) Euler which is robustly stable for the
/// step sizes used here (4 ms).
class RigidBody {
 public:
  RigidBody(double mass, const math::Mat3& inertia);

  double mass() const { return mass_; }
  const math::Mat3& inertia() const { return inertia_; }

  const RigidBodyState& state() const { return state_; }
  RigidBodyState& mutable_state() { return state_; }
  void set_state(const RigidBodyState& s) { state_ = s; }

  /// Advance dt seconds under a world-frame force [N] and body-frame
  /// torque [N m]. Gravity must be included in `force_world` by the caller.
  void Step(const math::Vec3& force_world, const math::Vec3& torque_body, double dt);

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, RigidBody& x) {
    v(x.state_);
  }

 private:
  double mass_;
  math::Mat3 inertia_;
  math::Mat3 inertia_inv_;
  RigidBodyState state_;
};

}  // namespace uavres::sim
