// Two-layer Bubble system (paper §III-D, Eq. 1-3).
//
// Inner bubble — static alert volume:
//     Bubble_inner = D_o + max(D_s, D_m)                         (Eq. 1)
// with D_o the drone dimension (wingspan), D_s the manufacturer safety
// distance, and D_m the maximum distance coverable at top speed between two
// tracking instances.
//
// Outer bubble — dynamic safety volume (separation-minima proposal):
//     D(t_n) = D(t_{n-1}) * S_a(t_n) / S_a(t_{n-1})              (Eq. 2)
//     Bubble_outer(t) = R * (Bubble_inner * max(1, D(t_n)))      (Eq. 3)
// where S_a is airspeed, D(t_{n-1}) the distance covered over the previous
// tracking interval, and R >= 1 an airspace risk factor (1 in the study).
#pragma once

#include "math/vec3.h"

namespace uavres::core {

/// Inputs to the bubble formulas for one drone.
struct BubbleParams {
  double drone_dimension_m{0.5};     ///< D_o: wingspan incl. props
  double safety_distance_m{1.5};     ///< D_s: manufacturer recommendation
  double top_speed_ms{5.0};          ///< used for D_m
  double tracking_interval_s{1.0};   ///< U-space tracking cadence
  double risk_factor{1.0};           ///< R >= 1
};

/// Eq. 1. D_m = top_speed * tracking_interval.
double InnerBubbleRadius(const BubbleParams& p);

/// Dynamic outer-bubble radius tracker (Eq. 2-3). Feed it once per tracking
/// instant with the current airspeed and the distance covered since the
/// previous instant.
class OuterBubble {
 public:
  explicit OuterBubble(const BubbleParams& p);

  /// Advance one tracking instant; returns the outer radius for this instant.
  double Update(double airspeed_ms, double distance_covered_m);

  double radius() const { return radius_; }
  double inner_radius() const { return inner_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, OuterBubble& x) {
    v(x.radius_, x.prev_airspeed_, x.prev_distance_, x.initialized_);
  }

 private:
  BubbleParams params_;
  double inner_;
  double radius_;
  double prev_airspeed_{0.0};
  double prev_distance_{0.0};
  bool initialized_{false};
};

/// Per-flight bubble violation counter. At each tracking instant, the
/// caller supplies the drone's deviation from its reference (gold)
/// trajectory; deviations beyond a bubble radius count as violations of
/// that bubble, the paper's primary U-space risk metric.
class BubbleMonitor {
 public:
  explicit BubbleMonitor(const BubbleParams& p);

  /// One tracking instant.
  void Track(double deviation_m, double airspeed_ms, double distance_covered_m);

  int inner_violations() const { return inner_violations_; }
  int outer_violations() const { return outer_violations_; }
  int instants_tracked() const { return instants_; }
  double inner_radius() const { return inner_; }
  double last_outer_radius() const { return outer_.radius(); }
  double max_deviation() const { return max_deviation_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, BubbleMonitor& x) {
    v(x.outer_, x.inner_violations_, x.outer_violations_, x.instants_, x.max_deviation_);
  }

 private:
  double inner_;
  OuterBubble outer_;
  int inner_violations_{0};
  int outer_violations_{0};
  int instants_{0};
  double max_deviation_{0.0};
};

}  // namespace uavres::core
