#include "telemetry/flight_recorder.h"

#include <fstream>

#include "telemetry/binary_io.h"

namespace uavres::telemetry {

/// Both counts lead the record, ahead of the samples and events they size.
template <class V>
void Fields(V& v, FlightRecord& r) {
  auto& samples = r.trajectory.Samples();
  auto& events = r.log.Events();
  auto n_samples = static_cast<std::uint32_t>(samples.size());
  auto n_events = static_cast<std::uint32_t>(events.size());
  v(Expect{Magic("UVRL")}, Expect{kFlightRecordVersion},
    InRange{n_samples, 0u, kMaxTrajectorySamples}, InRange{n_events, 0u, kMaxEvents},
    Elements{samples, n_samples}, Elements{events, n_events});
}

bool WriteFlightRecord(std::ostream& os, const FlightRecord& record) {
  return static_cast<bool>(os << Encode(record));
}

std::optional<FlightRecord> ReadFlightRecord(std::string_view bytes) {
  FlightRecord record;
  if (!Decode(bytes, record)) return std::nullopt;
  return record;
}

bool SaveFlightRecord(const std::string& path, const FlightRecord& record) {
  std::ofstream os(path, std::ios::binary);
  return os && WriteFlightRecord(os, record);
}

std::optional<FlightRecord> LoadFlightRecord(const std::string& path) {
  const auto bytes = ReadFileBytes(path);
  if (!bytes) return std::nullopt;
  return ReadFlightRecord(*bytes);
}

}  // namespace uavres::telemetry
