// Binary flight recording ("ulog-lite").
//
// PX4 ships every flight as a .ulg file that tools analyze offline; this is
// the equivalent for uavres: a compact, versioned binary container for a
// trajectory plus the event log, with a reader that validates framing. The
// CLI's `export --binary` / `replay` commands and offline analyses build on
// it.
//
// Layout: magic "UVRL", version, sample and event counts, then the samples
// and the events — declared once, as field lists in flight_recorder.cpp on
// the telemetry/binary_io.h codec.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "telemetry/flight_log.h"
#include "telemetry/trajectory.h"

namespace uavres::telemetry {

inline constexpr std::uint32_t kFlightRecordVersion = 1;

/// A recorded flight: trajectory + events.
struct FlightRecord {
  Trajectory trajectory;
  FlightLog log;
};

/// Serialize a flight record. Returns false on stream failure.
bool WriteFlightRecord(std::ostream& os, const FlightRecord& record);

/// Deserialize one whole record; std::nullopt on bad magic/version/framing
/// or trailing bytes.
std::optional<FlightRecord> ReadFlightRecord(std::string_view bytes);

/// Convenience file wrappers.
bool SaveFlightRecord(const std::string& path, const FlightRecord& record);
std::optional<FlightRecord> LoadFlightRecord(const std::string& path);

}  // namespace uavres::telemetry
