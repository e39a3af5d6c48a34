#include "telemetry/snapshot_codec.h"

#include <fstream>

#include "telemetry/binary_io.h"

namespace uavres::sim {

template <class V>
void Fields(V& v, SnapshotSection& s) {
  v(s.id, telemetry::Capped{s.bytes, telemetry::kMaxSnapshotSectionBytes});
}

/// A build refuses version 0 and versions newer than its own: their
/// sections may not be interpretable here.
template <class V>
void Fields(V& v, Snapshot& s) {
  using namespace telemetry;
  v(Expect{Magic("UVSN")}, InRange{s.version, 1u, kSnapshotVersion}, s.seed, s.step_count,
    s.time_s, s.mission_index, Capped{s.mission_name, kMaxNameLen}, s.config_digest,
    s.seed_base, s.has_fault, s.fault_type, s.fault_target, s.fault_start_s,
    s.fault_duration_s, s.fault_magnitude, Capped{s.sections, kMaxSnapshotSections},
    Expect{std::uint32_t{0x5AFE5A9A}});
}

}  // namespace uavres::sim

namespace uavres::telemetry {

void WriteSnapshot(std::ostream& os, const sim::Snapshot& snap) { os << Encode(snap); }

std::optional<sim::Snapshot> ReadSnapshot(std::string_view bytes) {
  sim::Snapshot snap;
  if (!Decode(bytes, snap)) return std::nullopt;
  return snap;
}

bool SaveSnapshotFile(const std::string& path, const sim::Snapshot& snap) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  WriteSnapshot(os, snap);
  os.flush();
  return static_cast<bool>(os);
}

std::optional<sim::Snapshot> LoadSnapshotFile(const std::string& path) {
  const auto bytes = ReadFileBytes(path);
  if (!bytes) return std::nullopt;
  return ReadSnapshot(*bytes);
}

}  // namespace uavres::telemetry
