// Binary (de)serialization of sim::Snapshot — the `.uvsnap` on-disk format.
//
// Layout: magic "UVSN", version, the donor's identity and fault, the
// sections (u32 id, u64 length, bytes), footer — declared once, as field
// lists in snapshot_codec.cpp on the telemetry/binary_io.h codec.
//
// The section payloads are the opaque byte blobs sim::Snapshot carries
// (math/state_io.h serialization of each subsystem); the codec frames them
// but never interprets them. Readers reject bad magic, versions newer than
// this build, implausible counts/lengths, any truncation and trailing bytes —
// a corrupt or hostile file yields nullopt, never partial data or UB.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "sim/snapshot.h"

namespace uavres::telemetry {

/// Sanity bounds applied by the reader: a full-vehicle snapshot is a few
/// dozen sections of at most a few MiB (the recorded trajectory prefix);
/// anything beyond these is a corrupt length field, not a real snapshot.
inline constexpr std::uint32_t kMaxSnapshotSections = 1024;
inline constexpr std::uint64_t kMaxSnapshotSectionBytes = 256ULL << 20;  // 256 MiB
inline constexpr std::uint32_t kMaxSnapshotNameLen = 4096;

void WriteSnapshot(std::ostream& os, const sim::Snapshot& snap);

/// Reads one whole framed snapshot; nullopt on any framing failure (bad
/// magic, future version, bad counts, truncation, missing footer, trailing
/// bytes).
std::optional<sim::Snapshot> ReadSnapshot(std::string_view bytes);

/// File convenience wrappers (binary mode, whole-file framing).
bool SaveSnapshotFile(const std::string& path, const sim::Snapshot& snap);
std::optional<sim::Snapshot> LoadSnapshotFile(const std::string& path);

}  // namespace uavres::telemetry
