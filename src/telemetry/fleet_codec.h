// Versioned binary codec for fleet-experiment results (DESIGN.md §18).
//
// FleetRecord is the serialized, cacheable form of one fleet run: per-drone
// outcomes plus the systemic airspace metrics (conflicts, alert cascades,
// separation margins, throughput). Like spec_codec.h, the structs here are
// FLAT — plain ints/doubles/strings with no dependency above math/ — so the
// telemetry layer can own the on-disk format while core's ResultStore and
// the uspace fleet runner both speak it.
//
// The field lists below declare the layout once (telemetry/binary_io.h):
// magic "UVFL", version, body, footer. In the result store any framing,
// bound or version mismatch is a cache miss and the run is recomputed.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/binary_io.h"

namespace uavres::telemetry {

/// Bump on any layout OR fleet-semantics change the spec key cannot
/// express. v1: initial fleet engine. v2: every pair evaluated, so the
/// broadphase horizon field is gone and min separation is exact.
inline constexpr std::uint32_t kFleetRecordSchemaVersion = 2;

/// One drone's outcome within a fleet run. `outcome` carries the
/// core::MissionOutcome enum value as a raw int (flat-struct rule).
struct FleetDroneRecord {
  std::int32_t drone_id{0};
  std::string name;
  std::int32_t outcome{0};
  double flight_duration_s{0.0};
  double launch_time_s{0.0};  ///< > 0 for relaunched (continuous-traffic) flights
};

/// One separation event; severity carries uspace::ConflictSeverity raw.
struct FleetConflictRecord {
  std::int32_t drone_a{0};
  std::int32_t drone_b{0};
  double start_time{0.0};
  double end_time{0.0};
  double min_separation_m{0.0};
  std::int32_t severity{0};
};

/// Full serialized result of one fleet experiment.
struct FleetRecord {
  std::int32_t num_drones{0};       ///< initially launched fleet size
  double sim_time_s{0.0};           ///< simulated span of the run

  // Per-drone outcomes (relaunched flights included) and events.
  std::vector<FleetDroneRecord> drones;
  std::vector<FleetConflictRecord> events;

  // Systemic metrics.
  std::int32_t conflicts{0};
  std::int32_t alerts{0};
  std::int32_t instants_in_conflict{0};
  double min_separation_m{0.0};
  /// Separation-event cascade: conflict-graph components and secondary
  /// (neither-drone-faulted) events — how far one bad flight spreads.
  std::int32_t cascade_size{0};      ///< largest connected conflict-graph component
  std::int32_t secondary_conflicts{0};
  /// Min-separation distribution over tracking instants (quantiles of the
  /// per-instant closest pair; 0 count when no pair was ever evaluated).
  std::int32_t separation_samples{0};
  double separation_p5_m{0.0};
  double separation_p50_m{0.0};
  // Link/tracker accounting.
  std::int32_t reports_published{0};
  std::int32_t reports_dropped{0};
  std::int32_t reports_quarantined{0};
  // Airspace throughput.
  std::int32_t missions_completed{0};
  std::int32_t relaunches{0};
  double throughput_missions_per_hour{0.0};
};

inline constexpr std::uint32_t kMaxFleetNameLen = 256;
inline constexpr std::uint32_t kMaxFleetDrones = 1u << 20;
inline constexpr std::uint32_t kMaxFleetEvents = 1u << 24;

template <class V>
void Fields(V& v, FleetDroneRecord& d) {
  v(d.drone_id, Capped{d.name, kMaxFleetNameLen}, d.outcome, d.flight_duration_s,
    d.launch_time_s);
}

template <class V>
void Fields(V& v, FleetConflictRecord& e) {
  v(e.drone_a, e.drone_b, e.start_time, e.end_time, e.min_separation_m, e.severity);
}

template <class V>
void Fields(V& v, FleetRecord& r) {
  v(Expect{Magic("UVFL")}, Expect{kFleetRecordSchemaVersion}, r.num_drones, r.sim_time_s,
    Capped{r.drones, kMaxFleetDrones}, Capped{r.events, kMaxFleetEvents}, r.conflicts,
    r.alerts, r.instants_in_conflict, r.min_separation_m, r.cascade_size,
    r.secondary_conflicts, r.separation_samples, r.separation_p5_m, r.separation_p50_m,
    r.reports_published, r.reports_dropped, r.reports_quarantined, r.missions_completed,
    r.relaunches, r.throughput_missions_per_hour, Expect{kArtifactFooter});
}

/// Serialize one record (framed, versioned).
inline void WriteFleetRecord(std::ostream& os, const FleetRecord& r) { os << Encode(r); }

}  // namespace uavres::telemetry
