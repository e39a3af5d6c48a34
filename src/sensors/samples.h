// Plain sample types produced by the sensor models. Each carries its codec
// field list (telemetry/binary_io.h): the .uvbs payload and its snapshot form.
#pragma once

#include "math/vec3.h"

namespace uavres::sensors {

/// One IMU reading: specific force and angular rate in the body (FRD) frame.
struct ImuSample {
  double t{0.0};
  math::Vec3 accel_mps2;   ///< specific force [m/s^2]
  math::Vec3 gyro_rads;    ///< angular rate [rad/s]
};

template <class V>
void Fields(V& v, ImuSample& s) {
  v(s.t, s.accel_mps2, s.gyro_rads);
}

/// One GNSS reading in the local NED frame.
struct GpsSample {
  double t{0.0};
  math::Vec3 pos_ned_m;
  math::Vec3 vel_ned_mps;
  bool valid{true};
};

template <class V>
void Fields(V& v, GpsSample& s) {
  v(s.t, s.pos_ned_m, s.vel_ned_mps, s.valid);
}

/// One barometric altitude reading.
struct BaroSample {
  double t{0.0};
  double alt_m{0.0};  ///< altitude above origin, positive up
};

template <class V>
void Fields(V& v, BaroSample& s) {
  v(s.t, s.alt_m);
}

/// One magnetometer reading: Earth field direction in the body frame.
struct MagSample {
  double t{0.0};
  math::Vec3 field_body;  ///< unit-ish vector, body frame
};

template <class V>
void Fields(V& v, MagSample& s) {
  v(s.t, s.field_body);
}

}  // namespace uavres::sensors
