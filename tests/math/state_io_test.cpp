// math::StateWriter / StateReader: a visited bool is one byte that reads
// back only as 0 or 1 — any other value latches ok() == false instead of
// loading an invalid bool.
#include "math/state_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace uavres::math {
namespace {

struct FlagAndValue {
  bool flag{false};
  double value{0.0};

  template <class Visitor>
  void VisitState(Visitor&& v) {
    v(flag, value);
  }
};

std::vector<std::uint8_t> Write(FlagAndValue s) {
  std::vector<std::uint8_t> bytes;
  StateWriter writer(&bytes);
  writer(s);
  return bytes;
}

TEST(StateIo, BoolRoundTripsAsOneByte) {
  const auto bytes = Write({true, 1.5});
  ASSERT_EQ(bytes.size(), 1u + sizeof(double));
  EXPECT_EQ(bytes[0], 1u);
  FlagAndValue back;
  StateReader reader(bytes);
  reader(back);
  EXPECT_TRUE(reader.fully_consumed());
  EXPECT_TRUE(back.flag);
  EXPECT_EQ(back.value, 1.5);
}

TEST(StateIo, BoolByteAboveOneLatchesNotOk) {
  auto bytes = Write({true, 1.5});
  for (const std::uint8_t corrupt : {std::uint8_t{2}, std::uint8_t{0xFF}}) {
    bytes[0] = corrupt;
    FlagAndValue back;
    StateReader reader(bytes);
    reader(back);
    EXPECT_FALSE(reader.ok()) << "bool byte " << int{corrupt};
  }
}

}  // namespace
}  // namespace uavres::math
