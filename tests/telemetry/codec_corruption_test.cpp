// Corruption sweep over every artifact layout: for each golden fixture
// (codec_fixtures.h), every truncation and every single-bit flip must either
// be rejected by its reader, or decode — with no byte left over — to a value
// that re-encodes to exactly the corrupted input. There is no third outcome:
// a reader that accepted a stray bool byte of 2, skipped trailing junk or
// trusted a count it could not back with bytes would re-encode differently.
//
// A flipped double that still decodes is the accepted case here; catching
// it needs a checksum over the artifact.
//
// The sweep runs under the sanitizer CI job, so an out-of-bounds read in any
// reader fails the suite.
#include <gtest/gtest.h>

#include <string>

#include "codec_fixtures.h"

namespace uavres {
namespace {

using codec_fixtures::Fixture;

/// Checks one corrupted input; returns true when the reader accepted it.
bool CheckVariant(const Fixture& f, const std::string& bytes, const std::string& what) {
  const auto reencoded = codec_fixtures::Reencode(f, bytes);
  if (!reencoded) return false;
  EXPECT_EQ(*reencoded, bytes) << f.name << ": " << what
                               << " decoded to a value that re-encodes differently";
  return true;
}

TEST(CodecCorruption, PristineFixturesRoundTrip) {
  for (const auto& f : codec_fixtures::All()) {
    const auto reencoded = codec_fixtures::Reencode(f, f.bytes);
    ASSERT_TRUE(reencoded.has_value()) << f.name << " does not decode";
    EXPECT_EQ(*reencoded, f.bytes) << f.name;
  }
}

TEST(CodecCorruption, EveryTruncationIsRejectedOrExact) {
  for (const auto& f : codec_fixtures::All()) {
    std::size_t accepted = 0;
    for (std::size_t len = 0; len < f.bytes.size(); ++len) {
      accepted += CheckVariant(f, f.bytes.substr(0, len), "prefix " + std::to_string(len));
    }
    // Only a bus log can stop early and stay whole: at a frame boundary.
    if (f.kind != codec_fixtures::Kind::kBusLog) {
      EXPECT_EQ(accepted, 0u) << f.name << ": a proper prefix decoded";
    }
  }
}

TEST(CodecCorruption, EverySingleBitFlipIsRejectedOrExact) {
  for (const auto& f : codec_fixtures::All()) {
    for (std::size_t byte = 0; byte < f.bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string bytes = f.bytes;
        bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
        CheckVariant(f, bytes, "byte " + std::to_string(byte) + " bit " + std::to_string(bit));
      }
    }
  }
}

TEST(CodecCorruption, BoolBytesAboveOneAreRejected) {
  // Every format reads a bool strictly: the faulty .uvrs entry ends with
  // recovery_success (false) and then the has_trajectory byte (absent).
  const auto fixtures = codec_fixtures::All();
  const Fixture& f = fixtures[1];
  ASSERT_EQ(f.name, "uvrs_faulty");
  const std::size_t footer = f.bytes.size() - 4;
  for (const std::size_t at : {footer - 2, footer - 1}) {
    std::string bytes = f.bytes;
    bytes[at] = 2;
    EXPECT_FALSE(codec_fixtures::Reencode(f, bytes).has_value()) << "offset " << at;
  }
}

}  // namespace
}  // namespace uavres
