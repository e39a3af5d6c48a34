// Pairwise conflict detection over the tracking feed.
//
// The paper frames the bubbles as U-space separation minima: "a virtual
// safety volume around the drone ... for a safe and conflict-free flight".
// This service applies that definition between drones: at every tracking
// instant it evaluates each pair's separation against the sum of their
// bubble radii:
//
//   * ALERT  — separation < inner_i + inner_j   (the static alert bubbles
//     touch: imminent danger, the paper's inner-bubble purpose),
//   * CONFLICT — separation < outer_i + outer_j (the dynamic separation
//     volumes overlap: a loss of separation that U-space must resolve).
//
// Outer radii follow Eq. 2-3 per drone, driven by the tracked airspeed and
// per-interval distance. Eq. 2-3 is a per-drone recurrence, so the detector
// keeps ONE OuterBubble per drone, advanced once per tracking instant in an
// O(N) pass; pair evaluation is then stateless in the bubble radii.
//
// Every active pair is evaluated at every instant (O(N²) distance checks),
// so min_separation_m and the per-instant minima are exact at any range.
// Pair bookkeeping lives in a flat arena (vector + index by packed pair id)
// and records are created lazily on the first conflict or alert edge —
// O(eventful pairs), not O(N²).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/bubble.h"
#include "uspace/tracking.h"

namespace uavres::uspace {

/// Severity of a separation event.
enum class ConflictSeverity { kConflict, kAlert };

const char* ToString(ConflictSeverity s);

/// One separation event (entry into a conflict state for a drone pair).
struct ConflictEvent {
  int drone_a{0};
  int drone_b{0};
  double start_time{0.0};
  double end_time{0.0};        ///< updated while the conflict persists
  double min_separation_m{0.0};
  ConflictSeverity severity{ConflictSeverity::kConflict};
};

/// Aggregate statistics for a run.
struct ConflictStats {
  int conflicts{0};           ///< distinct loss-of-separation events
  int alerts{0};              ///< distinct inner-bubble events
  int instants_in_conflict{0};
  /// Closest separation over every evaluated pair-instant; 0.0 when no pair
  /// was ever evaluated (empty fleet, single drone, all reports dropped).
  double min_separation_m{0.0};
  std::int64_t pairs_evaluated{0};  ///< pair evaluations over the run
};

/// Evaluates registered pairs at each tracking instant.
class ConflictDetector {
 public:
  explicit ConflictDetector(const Tracker* tracker) : tracker_(tracker) {}

  /// Evaluate every active pair at time t. Call once per tracking instant,
  /// after all drones' reports for that instant were ingested.
  void Step(double t);

  const std::vector<ConflictEvent>& events() const { return events_; }
  ConflictStats stats() const;

  /// Per-instant minimum separation over evaluated pairs (the fleet
  /// min-separation distribution source), one entry per Step() where at
  /// least one pair was evaluated.
  const std::vector<double>& instant_min_separation() const {
    return instant_min_sep_;
  }

 private:
  /// Lazily created bookkeeping for a pair with at least one event edge.
  struct PairRecord {
    bool in_conflict{false};
    bool in_alert{false};
    int open_event{-1};   ///< index into events_ while a conflict persists
    int open_alert{-1};
  };

  static std::uint64_t PairKey(int a, int b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }

  void EvaluatePair(const ActiveTrack& ta, const ActiveTrack& tb,
                    double radius_a, double radius_b, double t,
                    bool& any_conflict, double& instant_min);

  const Tracker* tracker_;  // not owned

  // Flat pair-state arena: records indexed by a packed (a,b) key, created
  // only when a pair first conflicts or alerts.
  std::vector<PairRecord> arena_;
  std::unordered_map<std::uint64_t, std::int32_t> pair_index_;

  /// One Eq. 2-3 recurrence per drone, advanced each instant the drone has
  /// an accepted report.
  std::unordered_map<int, core::OuterBubble> drone_bubbles_;

  std::vector<ConflictEvent> events_;
  int instants_in_conflict_{0};
  double min_separation_{1e18};
  std::int64_t pairs_evaluated_{0};
  std::vector<double> instant_min_sep_;

  // Per-Step scratch, reused to keep the steady-state step allocation-free.
  std::vector<ActiveTrack> snapshot_;
  std::vector<double> radii_;
};

}  // namespace uavres::uspace
