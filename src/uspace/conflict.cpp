#include "uspace/conflict.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"

namespace uavres::uspace {

namespace {

/// Lower bound on the grid cell size, and thus on the interaction horizon,
/// in kUniformGrid mode: the cell is max(kMinCellM, 2 * max outer radius).
constexpr double kMinCellM = 50.0;

/// Packs a pair of grid cell coordinates into one exact 64-bit key.
std::int64_t CellKey(std::int32_t cx, std::int32_t cy) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
      static_cast<std::uint32_t>(cy));
}

}  // namespace

const char* ToString(ConflictSeverity s) {
  switch (s) {
    case ConflictSeverity::kConflict:
      return "conflict";
    case ConflictSeverity::kAlert:
      return "alert";
  }
  return "?";
}

const char* ToString(BroadphaseMode m) {
  switch (m) {
    case BroadphaseMode::kBruteForce:
      return "brute-force";
    case BroadphaseMode::kUniformGrid:
      return "uniform-grid";
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
  any_pair_evaluated_ = true;
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
    arena_keys_.push_back(key);
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

void ConflictDetector::CollectGridCandidates(double cell_m) {
  // Bin every drone by its horizontal report position. NED: x north, y east.
  cells_.clear();
  for (std::size_t i = 0; i < snapshot_.size(); ++i) {
    const auto& pos = snapshot_[i].state->last_report.pos;
    const auto cx = static_cast<std::int32_t>(std::floor(pos.x / cell_m));
    const auto cy = static_cast<std::int32_t>(std::floor(pos.y / cell_m));
    cells_.emplace_back(CellKey(cx, cy), static_cast<std::int32_t>(i));
  }
  std::sort(cells_.begin(), cells_.end());

  // Same-cell plus 8-neighbour candidates. Emitting only i < j pairs makes
  // each unordered pair appear exactly once (its partner's scan fails the
  // ordering test), so no dedup pass is needed for the grid itself.
  for (std::size_t i = 0; i < snapshot_.size(); ++i) {
    const auto& pos = snapshot_[i].state->last_report.pos;
    const auto cx = static_cast<std::int32_t>(std::floor(pos.x / cell_m));
    const auto cy = static_cast<std::int32_t>(std::floor(pos.y / cell_m));
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
      for (std::int32_t dy = -1; dy <= 1; ++dy) {
        const std::int64_t key = CellKey(cx + dx, cy + dy);
        auto lo = std::lower_bound(
            cells_.begin(), cells_.end(),
            std::make_pair(key, std::numeric_limits<std::int32_t>::min()));
        for (; lo != cells_.end() && lo->first == key; ++lo) {
          const auto j = static_cast<std::size_t>(lo->second);
          if (i < j) {
            candidates_.push_back((static_cast<std::uint64_t>(i) << 32) | j);
          }
        }
      }
    }
  }

  // Pairs with an open event must be re-evaluated even when far apart, so
  // falling edges close exactly as in brute force. Snapshot indices are
  // recovered by binary search (the snapshot is id-sorted).
  auto index_of = [&](int id) -> std::int64_t {
    auto it = std::lower_bound(snapshot_.begin(), snapshot_.end(), id,
                               [](const ActiveTrack& tr, int v) {
                                 return tr.drone_id < v;
                               });
    if (it == snapshot_.end() || it->drone_id != id) return -1;
    return it - snapshot_.begin();
  };
  for (std::size_t r = 0; r < arena_.size(); ++r) {
    const PairRecord& rec = arena_[r];
    if (!rec.in_conflict && !rec.in_alert) continue;
    const std::uint64_t key = arena_keys_[r];
    const std::int64_t ia = index_of(static_cast<int>(key >> 32));
    const std::int64_t ib = index_of(static_cast<int>(key & 0xFFFFFFFFu));
    if (ia < 0 || ib < 0) continue;  // a side deregistered: frozen, as brute
    candidates_.push_back((static_cast<std::uint64_t>(ia) << 32) |
                          static_cast<std::uint64_t>(ib));
  }

  // Brute force walks pairs in ascending (a,b); replicate that event order.
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());
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
  // collect this instant's outer radii (they size the broadphase cells).
  radii_.clear();
  double max_radius = 0.0;
  for (const ActiveTrack& tr : snapshot_) {
    auto [it, inserted] = drone_bubbles_.try_emplace(tr.drone_id, tr.info->bubble);
    const double r = it->second.Update(tr.state->last_report.airspeed_ms,
                                       tr.state->distance_last_interval_m);
    radii_.push_back(r);
    max_radius = std::max(max_radius, r);
  }

  candidates_.clear();
  if (cfg_.broadphase == BroadphaseMode::kBruteForce) {
    for (std::size_t i = 0; i < snapshot_.size(); ++i) {
      for (std::size_t j = i + 1; j < snapshot_.size(); ++j) {
        candidates_.push_back((static_cast<std::uint64_t>(i) << 32) | j);
      }
    }
  } else if (snapshot_.size() > 1) {
    const double cell_m = std::max(kMinCellM, 2.0 * max_radius);
    min_horizon_ = std::min(min_horizon_, cell_m);
    CollectGridCandidates(cell_m);
  }

  bool any_conflict_this_instant = false;
  double instant_min = 1e18;
  for (const std::uint64_t packed : candidates_) {
    const auto i = static_cast<std::size_t>(packed >> 32);
    const auto j = static_cast<std::size_t>(packed & 0xFFFFFFFFu);
    EvaluatePair(snapshot_[i], snapshot_[j], radii_[i], radii_[j], t,
                 any_conflict_this_instant, instant_min);
  }
  if (snapshot_.size() > 1) {
    const auto all_pairs = static_cast<std::int64_t>(
        snapshot_.size() * (snapshot_.size() - 1) / 2);
    pairs_culled_ += all_pairs - static_cast<std::int64_t>(candidates_.size());
  }
  UAVRES_COUNT_N("uspace.conflict.pairs_evaluated", candidates_.size());
  if (any_conflict_this_instant) ++instants_in_conflict_;
  if (cfg_.record_instant_min_separation && !candidates_.empty()) {
    instant_min_sep_.push_back(instant_min);
  }
}

ConflictStats ConflictDetector::stats() const {
  ConflictStats s;
  for (const auto& e : events_) {
    if (e.severity == ConflictSeverity::kConflict) ++s.conflicts;
    if (e.severity == ConflictSeverity::kAlert) ++s.alerts;
  }
  s.instants_in_conflict = instants_in_conflict_;
  s.min_separation_m = any_pair_evaluated_ ? min_separation_ : 0.0;
  if (cfg_.broadphase != BroadphaseMode::kBruteForce) {
    s.broadphase_horizon_m = min_horizon_ == 1e18 ? kMinCellM : min_horizon_;
  }
  s.pairs_evaluated = pairs_evaluated_;
  s.pairs_culled = pairs_culled_;
  return s;
}

}  // namespace uavres::uspace
