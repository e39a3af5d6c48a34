// Numeric helpers shared across the uavres libraries.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numbers>
#include <optional>
#include <string_view>

namespace uavres::math {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Standard gravity used by both the simulator and the flight stack [m/s^2].
inline constexpr double kGravity = 9.80665;

/// Degrees to radians.
constexpr double DegToRad(double deg) { return deg * kPi / 180.0; }

/// Radians to degrees.
constexpr double RadToDeg(double rad) { return rad * 180.0 / kPi; }

/// Kilometres-per-hour to metres-per-second.
constexpr double KmhToMs(double kmh) { return kmh / 3.6; }

/// Metres-per-second to kilometres-per-hour.
constexpr double MsToKmh(double ms) { return ms * 3.6; }

/// Feet to metres.
constexpr double FeetToMeters(double ft) { return ft * 0.3048; }

/// Clamp `v` to [lo, hi]. `lo` must not exceed `hi`.
constexpr double Clamp(double v, double lo, double hi) {
  return std::clamp(v, lo, hi);
}

/// Wrap an angle to (-pi, pi].
inline double WrapPi(double a) {
  a = std::fmod(a + kPi, kTwoPi);
  if (a <= 0.0) a += kTwoPi;  // <=: odd multiples of pi map to +pi, not -pi
  return a - kPi;
}

/// True when |a - b| <= tol.
inline bool ApproxEq(double a, double b, double tol = 1e-9) {
  return std::abs(a - b) <= tol;
}

/// Square of x; avoids std::pow for hot paths.
constexpr double Sq(double x) { return x * x; }

/// Sign of x in {-1, 0, +1}.
constexpr double Sign(double x) { return (x > 0.0) - (x < 0.0); }

/// Linear interpolation between a and b by t in [0,1].
constexpr double Lerp(double a, double b, double t) { return a + (b - a) * t; }

/// True when the value is finite (not NaN/inf).
inline bool IsFinite(double v) { return std::isfinite(v); }

/// `s` parsed in full as a T by std::from_chars, or nullopt when it is
/// empty, has any byte left over ("1x", "2.5" as an int) or is out of T's
/// range. The one number parser of the CLI flags and the environment.
template <class T>
std::optional<T> ParseNumber(std::string_view s) {
  T value{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (s.empty() || ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return value;
}

}  // namespace uavres::math
