#include "app/command_line.h"

#include <gtest/gtest.h>

namespace uavres::app {
namespace {

TEST(CommandLine, EmptyArgs) {
  const auto cl = ParseCommandLine({});
  EXPECT_TRUE(cl.command.empty());
  EXPECT_TRUE(cl.positionals.empty());
  EXPECT_TRUE(cl.flags.empty());
}

TEST(CommandLine, CommandAndPositionals) {
  const auto cl = ParseCommandLine({"inject", "3", "gyro", "max", "10"});
  EXPECT_EQ(cl.command, "inject");
  ASSERT_EQ(cl.positionals.size(), 4u);
  EXPECT_EQ(cl.positionals[0], "3");
  EXPECT_EQ(cl.Positional(2), "max");
  EXPECT_EQ(cl.Positional(9, "fallback"), "fallback");
}

TEST(CommandLine, FlagWithValue) {
  const auto cl = ParseCommandLine({"fly", "0", "--seed", "99"});
  EXPECT_EQ(cl.command, "fly");
  EXPECT_EQ(cl.Positional(0), "0");
  ASSERT_TRUE(cl.HasFlag("seed"));
  EXPECT_EQ(*cl.Flag("seed"), "99");
  EXPECT_EQ(cl.FlagInt("seed", 0), 99);
}

TEST(CommandLine, BooleanFlagBeforeAnotherFlag) {
  const auto cl = ParseCommandLine({"campaign", "--verbose", "--missions", "3"});
  EXPECT_TRUE(cl.HasFlag("verbose"));
  EXPECT_EQ(*cl.Flag("verbose"), "");
  EXPECT_EQ(cl.FlagInt("missions", 0), 3);
}

TEST(CommandLine, TrailingBooleanFlag) {
  const auto cl = ParseCommandLine({"fly", "--fast"});
  EXPECT_TRUE(cl.HasFlag("fast"));
  EXPECT_EQ(*cl.Flag("fast"), "");
}

TEST(CommandLine, FlagDoubleParsing) {
  const auto cl = ParseCommandLine({"convoy", "--spacing", "12.5"});
  EXPECT_DOUBLE_EQ(cl.FlagDouble("spacing", 0.0), 12.5);
  EXPECT_DOUBLE_EQ(cl.FlagDouble("missing", 7.0), 7.0);
}

TEST(CommandLine, MalformedNumbersAreUsageErrors) {
  const auto cl = ParseCommandLine({"fly", "--seed", "abc", "--rate", "1.5x", "--drones",
                                    "3000000000", "--big", "4294967296", "--neg", "-1",
                                    "--bare"});
  EXPECT_THROW(cl.FlagInt("seed", 42), UsageError);
  EXPECT_THROW(cl.FlagDouble("rate", 2.0), UsageError);
  EXPECT_THROW(cl.FlagInt("drones", 10), UsageError);  // out of int range
  EXPECT_THROW(cl.FlagUint64("seed", 42), UsageError);
  EXPECT_THROW(cl.FlagUint64("neg", 42), UsageError);
  EXPECT_THROW(cl.FlagInt("bare", 1), UsageError);  // a flag with no value
  EXPECT_EQ(cl.FlagUint64("big", 0), 4294967296ULL);
  EXPECT_EQ(cl.FlagInt("neg", 0), -1);
  EXPECT_THROW(ParseDouble("ten", "duration"), UsageError);
  EXPECT_DOUBLE_EQ(ParseDouble("2.5", "duration"), 2.5);
}

TEST(CommandLine, OnOffAndWordFlagsAcceptOnlyTheirWords) {
  const auto cl = ParseCommandLine({"fleet", "--recovery", "--scenario", "valenca", "--a",
                                    "off", "--b", "1", "--c", "maybe"});
  EXPECT_TRUE(cl.FlagOnOff("recovery", false));  // bare means on
  EXPECT_FALSE(cl.FlagOnOff("a", true));
  EXPECT_TRUE(cl.FlagOnOff("b", false));
  EXPECT_TRUE(cl.FlagOnOff("absent", true));
  EXPECT_THROW(cl.FlagOnOff("c", false), UsageError);
  EXPECT_THROW(cl.FlagWord("scenario", {"convoy", "valencia"}), UsageError);
  EXPECT_EQ(cl.FlagWord("estimator", {"ekf", "comp"}), "ekf");
  EXPECT_EQ(ParseCommandLine({"x", "--scenario", "valencia"})
                .FlagWord("scenario", {"convoy", "valencia"}),
            "valencia");
}

TEST(CommandLine, CheckFlagsFollowsTheSynopsis) {
  constexpr const char* kSynopsis =
      "[mission] [--seed N] [--recovery [on|off]] [--oracle]\n       | --replay f.repro |";
  EXPECT_NO_THROW(ParseCommandLine({"x", "0", "--seed", "7", "--oracle"}).CheckFlags(kSynopsis));
  EXPECT_NO_THROW(ParseCommandLine({"x", "--recovery"}).CheckFlags(kSynopsis));
  EXPECT_NO_THROW(ParseCommandLine({"x", "--recovery", "off"}).CheckFlags(kSynopsis));
  EXPECT_NO_THROW(ParseCommandLine({"x", "--replay", "a.repro"}).CheckFlags(kSynopsis));
  EXPECT_THROW(ParseCommandLine({"x", "--sed", "7"}).CheckFlags(kSynopsis), UsageError);
  EXPECT_THROW(ParseCommandLine({"x", "--seed"}).CheckFlags(kSynopsis), UsageError);
  EXPECT_THROW(ParseCommandLine({"x", "--replay"}).CheckFlags(kSynopsis), UsageError);
  EXPECT_THROW(ParseCommandLine({"x", "--oracle", "0"}).CheckFlags(kSynopsis), UsageError);
}

TEST(CommandLine, MissingFlagIsNullopt) {
  const auto cl = ParseCommandLine({"fly"});
  EXPECT_FALSE(cl.Flag("seed").has_value());
  EXPECT_FALSE(cl.HasFlag("seed"));
}

TEST(CommandLine, RepeatedFlagLastWins) {
  const auto cl = ParseCommandLine({"fly", "--seed", "1", "--seed", "2"});
  EXPECT_EQ(cl.FlagInt("seed", 0), 2);
}

TEST(ParseDoubleList, ParsesCsv) {
  const auto v = ParseDoubleList("2,5,10,30");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
  EXPECT_DOUBLE_EQ(v[3], 30.0);
}

TEST(ParseDoubleList, RejectsInvalidAndEmptyCells) {
  EXPECT_THROW(ParseDoubleList("2,abc,5.5"), UsageError);
  EXPECT_THROW(ParseDoubleList("2,,5.5"), UsageError);
  EXPECT_THROW(ParseDoubleList("2,5.5,"), UsageError);
  EXPECT_THROW(ParseDoubleList(","), UsageError);
}

TEST(ParseDoubleList, EmptyString) {
  EXPECT_TRUE(ParseDoubleList("").empty());
}

}  // namespace
}  // namespace uavres::app
