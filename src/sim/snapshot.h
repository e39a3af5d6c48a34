// Full-state simulation checkpoint container (DESIGN.md §16).
//
// A Snapshot is the complete state of one simulated vehicle plus its harness
// bookkeeping at one control-step boundary, stored as opaque per-subsystem
// byte sections (each subsystem's field list on the telemetry/binary_io.h
// codec produces the bytes; uav::SnapshotSectionId assigns the ids).
// Restoring a snapshot into a freshly constructed vehicle of the same spec
// resumes the run bit-identically to never having stopped — the
// fork-vs-full-run identity tests pin that contract. The container knows
// nothing about what the bytes mean, which keeps it in the sim layer;
// telemetry/snapshot_codec.h gives it a versioned on-disk form (.uvsnap).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace uavres::sim {

/// Snapshot schema version (bumped whenever any section's member list or the
/// metadata below changes shape; the codec refuses future versions).
/// Version 3: the recorded trajectory left the harness section for a
/// section of its own, present only when the donor records one; version 2:
/// sections are per-field little-endian codec bytes; version 1 copied whole
/// structs in host byte order.
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// One subsystem's opaque state blob.
struct SnapshotSection {
  std::uint32_t id{0};
  std::string bytes;
};

/// A complete checkpoint of one run at one step boundary.
struct Snapshot {
  std::uint32_t version{kSnapshotVersion};
  std::uint64_t seed{0};       ///< the vehicle seed (ExperimentSeed) the donor run used
  std::int64_t step_count{0};  ///< control steps completed at capture
  double time_s{0.0};          ///< post-step simulation time at capture [s]
  std::int32_t mission_index{0};
  std::uint64_t config_digest{0};  ///< guards restore into a mismatched spec
  std::string mission_name;

  /// Donor experiment identity, stored as plain numbers so a .uvsnap is
  /// self-contained for the CLI (fork tools rebuild the fault spec from it).
  /// The sim layer deliberately does not know core::FaultSpec — type/target
  /// carry the enums' integer values.
  std::uint64_t seed_base{0};
  bool has_fault{false};
  std::int32_t fault_type{0};
  std::int32_t fault_target{0};
  double fault_start_s{0.0};
  double fault_duration_s{0.0};
  double fault_magnitude{1.0};

  std::vector<SnapshotSection> sections;

  const SnapshotSection* Find(std::uint32_t id) const {
    for (const auto& s : sections) {
      if (s.id == id) return &s;
    }
    return nullptr;
  }

  SnapshotSection& Add(std::uint32_t id) {
    sections.push_back({id, {}});
    return sections.back();
  }
};

}  // namespace uavres::sim
