// Time-stamped trajectory storage.
//
// The campaign compares every faulty flight against the fault-free "gold"
// trajectory of the same mission, and the figure benches dump these series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "math/quat.h"
#include "math/vec3.h"
#include "telemetry/binary_io.h"

namespace uavres::telemetry {

/// One sampled point of a flight. Positions are local NED [m].
struct TrajectorySample {
  double t{0.0};                 ///< seconds since arming
  math::Vec3 pos_true;           ///< ground-truth position
  math::Vec3 pos_est;            ///< EKF-estimated position
  math::Vec3 vel_true;           ///< ground-truth velocity
  math::Vec3 vel_est;            ///< EKF-estimated velocity
  math::Quat att_true;           ///< ground-truth attitude
  math::Quat att_est;            ///< EKF-estimated attitude
  double airspeed_est{0.0};      ///< estimated airspeed (|vel_est|) [m/s]
  bool fault_active{false};      ///< true while the injector is corrupting data
};

/// Codec field list (telemetry/binary_io.h): 20 doubles, then the fault byte.
template <class V>
void Fields(V& v, TrajectorySample& s) {
  v(s.t, s.pos_true, s.pos_est, s.vel_true, s.vel_est, s.att_true, s.att_est, s.airspeed_est,
    s.fault_active);
}

/// Largest sample count a reader accepts: a flight at 5 Hz for an hour is
/// ~18k samples; anything beyond this is a corrupt or hostile file.
inline constexpr std::uint32_t kMaxTrajectorySamples = 50'000'000;

/// A fault-free reference path, as a faulty run measures its bubble
/// deviation against it (uav::ExperimentSpec::gold). Both the full recorded
/// Trajectory and its compact GoldPath are one, with bit-identical distances.
class TruePath {
 public:
  /// Minimum distance from point p to the piecewise-linear true path [m].
  /// Returns +inf for an empty path.
  virtual double DistanceToTruePath(const math::Vec3& p) const = 0;

 protected:
  TruePath() = default;
  TruePath(const TruePath&) = default;
  TruePath& operator=(const TruePath&) = default;
  ~TruePath() = default;
};

/// Append-only trajectory with helpers for time lookup and path geometry.
class Trajectory final : public TruePath {
 public:
  void Reserve(std::size_t n) { samples_.reserve(n); }
  void Add(const TrajectorySample& s) { samples_.push_back(s); }
  void Clear() { samples_.clear(); }

  bool Empty() const { return samples_.empty(); }
  std::size_t Size() const { return samples_.size(); }
  const TrajectorySample& operator[](std::size_t i) const { return samples_[i]; }
  const std::vector<TrajectorySample>& Samples() const { return samples_; }
  std::vector<TrajectorySample>& Samples() { return samples_; }

  /// Latest sample at or before time t, if any.
  std::optional<TrajectorySample> AtTime(double t) const;

  /// Total ground-truth path length [m].
  double TruePathLength() const;

  /// Total EKF-estimated path length [m] — the paper's "distance traveled".
  double EstimatedPathLength() const;

  double DistanceToTruePath(const math::Vec3& p) const override;

 private:
  std::vector<TrajectorySample> samples_;
};

/// The true positions of a recorded trajectory and nothing else: 24 bytes a
/// sample instead of a TrajectorySample's 184, for a gold reference that
/// lives as long as its mission's faulty runs do.
class GoldPath final : public TruePath {
 public:
  GoldPath() = default;
  explicit GoldPath(const Trajectory& trajectory);

  std::size_t Size() const { return points_.size(); }
  const std::vector<math::Vec3>& Points() const { return points_; }

  double DistanceToTruePath(const math::Vec3& p) const override;

 private:
  std::vector<math::Vec3> points_;
};

/// Codec field list (telemetry/binary_io.h): u32 sample count, then the
/// samples — the trajectory of a .uvrs store entry and the snapshot's
/// trajectory section.
template <class V>
void Fields(V& v, Trajectory& t) {
  v(Capped{t.Samples(), kMaxTrajectorySamples});
}

/// Shortest distance from point p to segment [a, b].
double DistancePointToSegment(const math::Vec3& p, const math::Vec3& a, const math::Vec3& b);

}  // namespace uavres::telemetry
