// .uvsnap codec tests (DESIGN.md §16): lossless round-trip of every meta
// field and section, plus the corruption envelope — truncation at EVERY byte
// boundary, bad magic, version 0, future versions, oversized section
// headers and a missing footer must all fail cleanly (nullopt), never crash
// or mis-decode. The truncation sweep runs under the sanitizer CI job, so a
// single out-of-bounds read in the decoder fails the suite.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "sim/snapshot.h"
#include "telemetry/snapshot_codec.h"

namespace uavres {
namespace {

sim::Snapshot MakeSample() {
  sim::Snapshot snap;
  snap.version = sim::kSnapshotVersion;
  snap.seed = 0x0123456789ABCDEFULL;
  snap.step_count = 22500;
  snap.time_s = 89.996;
  snap.mission_index = 3;
  snap.mission_name = "VLC-04 W-E";
  snap.config_digest = 0xDEADBEEFCAFEF00DULL;
  snap.seed_base = 2024;
  snap.has_fault = true;
  snap.fault_type = 5;
  snap.fault_target = 1;
  snap.fault_start_s = 90.0;
  snap.fault_duration_s = 10.0;
  snap.fault_magnitude = 0.78125;
  auto& a = snap.Add(1);
  a.bytes = std::string("\x00\x01\x02\x03\xFF", 5);
  auto& b = snap.Add(14);
  b.bytes = {};  // empty sections are legal
  auto& c = snap.Add(32);
  for (int i = 0; i < 257; ++i) c.bytes.push_back(static_cast<char>(i));
  return snap;
}

std::string Encode(const sim::Snapshot& snap) {
  std::ostringstream os(std::ios::binary);
  telemetry::WriteSnapshot(os, snap);
  return os.str();
}

std::optional<sim::Snapshot> Decode(const std::string& bytes) {
  return telemetry::ReadSnapshot(bytes);
}

TEST(SnapshotCodec, RoundTripPreservesEveryField) {
  const sim::Snapshot snap = MakeSample();
  const auto got = Decode(Encode(snap));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, snap.version);
  EXPECT_EQ(got->seed, snap.seed);
  EXPECT_EQ(got->step_count, snap.step_count);
  EXPECT_EQ(got->time_s, snap.time_s);
  EXPECT_EQ(got->mission_index, snap.mission_index);
  EXPECT_EQ(got->mission_name, snap.mission_name);
  EXPECT_EQ(got->config_digest, snap.config_digest);
  EXPECT_EQ(got->seed_base, snap.seed_base);
  EXPECT_EQ(got->has_fault, snap.has_fault);
  EXPECT_EQ(got->fault_type, snap.fault_type);
  EXPECT_EQ(got->fault_target, snap.fault_target);
  EXPECT_EQ(got->fault_start_s, snap.fault_start_s);
  EXPECT_EQ(got->fault_duration_s, snap.fault_duration_s);
  EXPECT_EQ(got->fault_magnitude, snap.fault_magnitude);
  ASSERT_EQ(got->sections.size(), snap.sections.size());
  for (std::size_t i = 0; i < snap.sections.size(); ++i) {
    EXPECT_EQ(got->sections[i].id, snap.sections[i].id) << i;
    EXPECT_EQ(got->sections[i].bytes, snap.sections[i].bytes) << i;
  }
  // Re-encoding the decode is byte-stable.
  EXPECT_EQ(Encode(*got), Encode(snap));
}

TEST(SnapshotCodec, EveryTruncationFailsCleanly) {
  // The trailing footer makes every proper prefix invalid, so the sweep can
  // demand rejection at every single byte boundary.
  const std::string full = Encode(MakeSample());
  ASSERT_GT(full.size(), 100u);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(Decode(full.substr(0, len)).has_value())
        << "prefix of " << len << "/" << full.size() << " bytes decoded";
  }
  EXPECT_TRUE(Decode(full).has_value());
}

TEST(SnapshotCodec, BadMagicIsRejected) {
  std::string bytes = Encode(MakeSample());
  bytes[0] = 'X';
  EXPECT_FALSE(Decode(bytes).has_value());
  EXPECT_FALSE(Decode(std::string("UVBS then garbage")).has_value());
  EXPECT_FALSE(Decode(std::string()).has_value());
}

TEST(SnapshotCodec, VersionZeroAndFutureVersionsAreRejected) {
  sim::Snapshot snap = MakeSample();
  snap.version = 0;
  EXPECT_FALSE(Decode(Encode(snap)).has_value());
  snap.version = sim::kSnapshotVersion + 1;
  EXPECT_FALSE(Decode(Encode(snap)).has_value());
  snap.version = 0xFFFFFFFFU;
  EXPECT_FALSE(Decode(Encode(snap)).has_value());
}

TEST(SnapshotCodec, HostileSectionHeadersAreRejected) {
  const std::string full = Encode(MakeSample());
  // The section count lives right after the fixed meta block; rather than
  // hand-compute its offset, corrupt by splicing: flip every 4-byte window
  // to an absurd value and require that no variant decodes into a snapshot
  // with an absurd section population. Decoders that trust a hostile
  // count/length would try to allocate or read gigabytes here.
  for (std::size_t off = 4; off + 4 <= full.size(); ++off) {
    std::string bytes = full;
    bytes[off] = '\xFF';
    bytes[off + 1] = '\xFF';
    bytes[off + 2] = '\xFF';
    bytes[off + 3] = '\x7F';
    const auto got = Decode(bytes);
    if (!got.has_value()) continue;  // rejected: fine
    EXPECT_LE(got->sections.size(), telemetry::kMaxSnapshotSections);
    for (const auto& s : got->sections) {
      EXPECT_LE(s.bytes.size(), telemetry::kMaxSnapshotSectionBytes);
    }
  }
}

TEST(SnapshotCodec, MissingFooterIsRejected) {
  std::string bytes = Encode(MakeSample());
  bytes[bytes.size() - 1] ^= 0x01;
  EXPECT_FALSE(Decode(bytes).has_value());
}

TEST(SnapshotCodec, FileRoundTrip) {
  const sim::Snapshot snap = MakeSample();
  const std::string path = "snapshot_codec_test.uvsnap";
  ASSERT_TRUE(telemetry::SaveSnapshotFile(path, snap));
  const auto got = telemetry::LoadSnapshotFile(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(Encode(*got), Encode(snap));
  EXPECT_FALSE(telemetry::LoadSnapshotFile("does_not_exist.uvsnap").has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uavres
