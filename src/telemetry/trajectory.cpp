#include "telemetry/trajectory.h"

#include <algorithm>
#include <limits>

namespace uavres::telemetry {

using math::Vec3;

std::optional<TrajectorySample> Trajectory::AtTime(double t) const {
  if (samples_.empty() || samples_.front().t > t) return std::nullopt;
  // Samples are appended in time order; binary search for the last <= t.
  auto it = std::upper_bound(samples_.begin(), samples_.end(), t,
                             [](double v, const TrajectorySample& s) { return v < s.t; });
  return *std::prev(it);
}

double Trajectory::TruePathLength() const {
  double len = 0.0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    len += (samples_[i].pos_true - samples_[i - 1].pos_true).Norm();
  }
  return len;
}

double Trajectory::EstimatedPathLength() const {
  double len = 0.0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    len += (samples_[i].pos_est - samples_[i - 1].pos_est).Norm();
  }
  return len;
}

namespace {

/// Squared distance from p to segment [a, b]; sqrt is hoisted out of the
/// per-segment loop below. `Norm() = sqrt(NormSq())` and sqrt is monotone
/// and correctly rounded, so `sqrt(min(dsq...))` equals `min(sqrt(dsq)...)`
/// bit-for-bit.
double DistSqPointToSegment(const Vec3& p, const Vec3& a, const Vec3& b) {
  const Vec3 ab = b - a;
  const double len_sq = ab.NormSq();
  if (len_sq < 1e-12) return (p - a).NormSq();
  const double t = std::clamp((p - a).Dot(ab) / len_sq, 0.0, 1.0);
  return (p - (a + ab * t)).NormSq();
}

/// Distance from p to the polyline through point(0) .. point(n - 1): the one
/// loop behind both TruePath implementations, so they agree bit for bit.
template <class Point>
double DistanceToPolyline(const Vec3& p, std::size_t n, Point&& point) {
  if (n == 0) return std::numeric_limits<double>::infinity();
  if (n == 1) return (p - point(0)).Norm();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i < n; ++i) {
    best = std::min(best, DistSqPointToSegment(p, point(i - 1), point(i)));
  }
  return std::sqrt(best);
}

}  // namespace

double DistancePointToSegment(const Vec3& p, const Vec3& a, const Vec3& b) {
  return std::sqrt(DistSqPointToSegment(p, a, b));
}

double Trajectory::DistanceToTruePath(const Vec3& p) const {
  return DistanceToPolyline(p, samples_.size(),
                            [this](std::size_t i) -> const Vec3& { return samples_[i].pos_true; });
}

GoldPath::GoldPath(const Trajectory& trajectory) {
  points_.reserve(trajectory.Size());
  for (const TrajectorySample& s : trajectory.Samples()) points_.push_back(s.pos_true);
}

double GoldPath::DistanceToTruePath(const Vec3& p) const {
  return DistanceToPolyline(p, points_.size(),
                            [this](std::size_t i) -> const Vec3& { return points_[i]; });
}

}  // namespace uavres::telemetry
