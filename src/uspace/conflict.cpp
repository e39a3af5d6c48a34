#include "uspace/conflict.h"

#include <algorithm>

#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"

namespace uavres::uspace {

const char* ToString(ConflictSeverity s) {
  switch (s) {
    case ConflictSeverity::kConflict:
      return "conflict";
    case ConflictSeverity::kAlert:
      return "alert";
  }
  return "?";
}

void ConflictDetector::EvaluatePair(const ActiveTrack& ta, const ActiveTrack& tb,
                                    double radius_a, double radius_b, double t,
                                    bool& any_conflict, double& instant_min) {
  const int a = ta.drone_id;
  const int b = tb.drone_id;
  const double separation =
      (ta.state->last_report.pos - tb.state->last_report.pos).Norm();
  min_separation_ = std::min(min_separation_, separation);
  instant_min = std::min(instant_min, separation);
  ++pairs_evaluated_;

  const double inner_sum =
      core::InnerBubbleRadius(ta.info->bubble) + core::InnerBubbleRadius(tb.info->bubble);
  const bool conflict_now = separation < radius_a + radius_b;
  const bool alert_now = separation < inner_sum;

  const std::uint64_t key = PairKey(a, b);
  PairRecord* rec = nullptr;
  if (const auto it = pair_index_.find(key); it != pair_index_.end()) {
    rec = &arena_[static_cast<std::size_t>(it->second)];
  } else if (conflict_now || alert_now) {
    pair_index_.emplace(key, static_cast<std::int32_t>(arena_.size()));
    arena_.emplace_back();
    rec = &arena_.back();
  }
  if (rec == nullptr) {
    // Never eventful: nothing to open, extend or close.
    return;
  }

  auto update_event = [&](bool now, bool& was, int& open_idx,
                          ConflictSeverity severity) {
    if (now && !was) {
      ConflictEvent e;
      e.drone_a = a;
      e.drone_b = b;
      e.start_time = t;
      e.end_time = t;
      e.min_separation_m = separation;
      e.severity = severity;
      open_idx = static_cast<int>(events_.size());
      events_.push_back(e);
    } else if (now && was && open_idx >= 0) {
      auto& e = events_[static_cast<std::size_t>(open_idx)];
      e.end_time = t;
      e.min_separation_m = std::min(e.min_separation_m, separation);
    } else if (!now && was) {
      open_idx = -1;
    }
    was = now;
  };

  update_event(conflict_now, rec->in_conflict, rec->open_event,
               ConflictSeverity::kConflict);
  update_event(alert_now, rec->in_alert, rec->open_alert, ConflictSeverity::kAlert);
  any_conflict |= conflict_now;
}

void ConflictDetector::Step(double t) {
  UAVRES_TRACE_SCOPE("uspace/conflict_step");
  tracker_->SnapshotActive(snapshot_);
  // Only drones with at least one accepted report take part: no position,
  // no bubble, no pair (the original detector skipped these pairs too).
  snapshot_.erase(std::remove_if(snapshot_.begin(), snapshot_.end(),
                                 [](const ActiveTrack& tr) {
                                   return tr.state->reports_accepted == 0;
                                 }),
                  snapshot_.end());

  // O(N) pass: advance each drone's Eq. 2-3 recurrence once per instant and
  // collect this instant's outer radii.
  radii_.clear();
  for (const ActiveTrack& tr : snapshot_) {
    auto [it, inserted] = drone_bubbles_.try_emplace(tr.drone_id, tr.info->bubble);
    radii_.push_back(it->second.Update(tr.state->last_report.airspeed_ms,
                                       tr.state->distance_last_interval_m));
  }

  // Every i < j pair of the id-sorted snapshot, in ascending (a,b) order,
  // which fixes the event order.
  bool any_conflict_this_instant = false;
  double instant_min = 1e18;
  const std::size_t n = snapshot_.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      EvaluatePair(snapshot_[i], snapshot_[j], radii_[i], radii_[j], t,
                   any_conflict_this_instant, instant_min);
    }
  }
  const std::size_t pairs = n > 1 ? n * (n - 1) / 2 : 0;
  UAVRES_COUNT_N("uspace.conflict.pairs_evaluated", pairs);
  if (any_conflict_this_instant) ++instants_in_conflict_;
  if (pairs > 0) instant_min_sep_.push_back(instant_min);
}

ConflictStats ConflictDetector::stats() const {
  ConflictStats s;
  for (const auto& e : events_) {
    if (e.severity == ConflictSeverity::kConflict) ++s.conflicts;
    if (e.severity == ConflictSeverity::kAlert) ++s.alerts;
  }
  s.instants_in_conflict = instants_in_conflict_;
  s.min_separation_m = pairs_evaluated_ > 0 ? min_separation_ : 0.0;
  s.pairs_evaluated = pairs_evaluated_;
  return s;
}

}  // namespace uavres::uspace
