// Golden codec bytes: every artifact layout the repository writes — a gold
// and a faulty .uvrs store entry, a .uvfl store file, a two-section .uvsnap,
// faulted and fault-free .uvbs bus logs with one frame per topic, a UVRL
// flight record and every serve wire payload in its frame — must reproduce
// a recorded FNV-1a hash and length. The fixtures (codec_fixtures.h) set
// every field to a distinct value, so a reordered, dropped or re-sized field
// shows up here even when the codec still round-trips its own output.
//
// The hashes live in tests/data/golden_codec.txt as `key value` lines. To
// regenerate after an intentional layout change (which also needs the
// matching version bump):
//
//   UAVRES_UPDATE_GOLDEN=1 ./test_codec --gtest_filter='CodecGolden.*'
//
// and commit the rewritten file with a note on why the bytes changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "codec_fixtures.h"

namespace uavres {
namespace {

using Golden = std::map<std::string, std::string>;

const std::string& GoldenPath() {
  static const std::string path = std::string(UAVRES_TEST_DATA_DIR) + "/golden_codec.txt";
  return path;
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

Golden LoadGolden() {
  Golden golden;
  std::ifstream is(GoldenPath());
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, value;
    if (ls >> key >> value) golden[key] = value;
  }
  return golden;
}

void SaveGolden(const Golden& golden) {
  std::ofstream os(GoldenPath(), std::ios::trunc);
  ASSERT_TRUE(os) << "cannot write " << GoldenPath();
  os << "# Golden codec bytes: length and FNV-1a of each codec_fixtures.h fixture.\n"
     << "# Regenerate with UAVRES_UPDATE_GOLDEN=1 (see codec_golden_test.cpp).\n";
  for (const auto& [key, value] : golden) os << key << " " << value << "\n";
}

TEST(CodecGolden, EveryFixtureMatchesRecordedBytes) {
  Golden actual;
  for (const auto& f : codec_fixtures::All()) {
    actual[f.name + ".bytes"] = std::to_string(f.bytes.size());
    actual[f.name + ".fnv1a"] = Hex(Fnv1a(f.bytes));
  }

  if (const char* update = std::getenv("UAVRES_UPDATE_GOLDEN");
      update && update[0] != '0') {
    SaveGolden(actual);
    GTEST_SKIP() << "rewrote " << GoldenPath();
  }
  const Golden golden = LoadGolden();
  EXPECT_EQ(golden.size(), actual.size()) << "fixture set differs from " << GoldenPath();
  for (const auto& [key, value] : actual) {
    ASSERT_TRUE(golden.count(key)) << "no '" << key << "' in " << GoldenPath()
                                   << " — run with UAVRES_UPDATE_GOLDEN=1 to record it";
    EXPECT_EQ(value, golden.at(key)) << "golden mismatch for '" << key << "'";
  }
}

}  // namespace
}  // namespace uavres
