// Campaign-level integration: grid construction, deterministic parallel
// execution, and end-to-end table building on a reduced grid.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/campaign.h"
#include "core/tables.h"

namespace uavres::core {
namespace {

CampaignConfig SmallConfig() {
  CampaignConfig cfg;
  cfg.mission_limit = 1;
  cfg.durations = {2.0};
  return cfg;
}

TEST(Campaign, GridIs21FaultsPerDuration) {
  CampaignConfig cfg;
  cfg.durations = {2.0, 5.0, 10.0, 30.0};
  const Campaign campaign(cfg);
  const auto grid = campaign.GridFaults();
  EXPECT_EQ(grid.size(), 84u);  // 7 types x 3 targets x 4 durations
  // Full study size: 10 missions x 84 + 10 gold = 850.
  EXPECT_EQ(campaign.fleet().size() * grid.size() + campaign.fleet().size(), 850u);
}

TEST(Campaign, GridCoversAllCombinations) {
  const Campaign campaign(SmallConfig());
  const auto grid = campaign.GridFaults();
  ASSERT_EQ(grid.size(), 21u);
  std::set<std::pair<int, int>> seen;
  for (const auto& f : grid) {
    seen.insert({static_cast<int>(f.target), static_cast<int>(f.type)});
    EXPECT_DOUBLE_EQ(f.start_time_s, kInjectionStartS);
    EXPECT_DOUBLE_EQ(f.duration_s, 2.0);
  }
  EXPECT_EQ(seen.size(), 21u);
}

TEST(Campaign, MissionLimitTruncatesFleet) {
  const Campaign campaign(SmallConfig());
  EXPECT_EQ(campaign.fleet().size(), 1u);
}

TEST(Campaign, RunProducesAllResults) {
  const Campaign campaign(SmallConfig());
  std::size_t last_done = 0;
  const auto results = campaign.Run([&](std::size_t done, std::size_t) { last_done = done; });
  EXPECT_EQ(results.gold.size(), 1u);
  EXPECT_EQ(results.faulty.size(), 21u);
  EXPECT_EQ(results.TotalRuns(), 22u);
  EXPECT_EQ(last_done, 22u);
  EXPECT_EQ(results.gold_trajectories.size(), 1u);
  EXPECT_GT(results.gold_trajectories[0].Size(), 100u);
  EXPECT_EQ(results.gold[0].outcome, MissionOutcome::kCompleted);
}

TEST(Campaign, ResultsIndexedByMissionAndFault) {
  const Campaign campaign(SmallConfig());
  const auto grid = campaign.GridFaults();
  const auto results = campaign.Run();
  for (std::size_t j = 0; j < results.faulty.size(); ++j) {
    EXPECT_EQ(results.faulty[j].mission_index, 0);
    EXPECT_EQ(static_cast<int>(results.faulty[j].fault.type),
              static_cast<int>(grid[j].type));
    EXPECT_EQ(static_cast<int>(results.faulty[j].fault.target),
              static_cast<int>(grid[j].target));
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  CampaignConfig one = SmallConfig();
  one.num_threads = 1;
  CampaignConfig four = SmallConfig();
  four.num_threads = 4;
  const auto a = Campaign(one).Run();
  const auto b = Campaign(four).Run();
  ASSERT_EQ(a.faulty.size(), b.faulty.size());
  for (std::size_t i = 0; i < a.faulty.size(); ++i) {
    EXPECT_EQ(a.faulty[i].outcome, b.faulty[i].outcome) << i;
    EXPECT_DOUBLE_EQ(a.faulty[i].flight_duration_s, b.faulty[i].flight_duration_s) << i;
    EXPECT_EQ(a.faulty[i].inner_violations, b.faulty[i].inner_violations) << i;
  }
}

TEST(Campaign, TablesBuildFromLiveResults) {
  const Campaign campaign(SmallConfig());
  const auto results = campaign.Run();

  const auto t2 = BuildTable2(results);
  ASSERT_EQ(t2.size(), 2u);  // gold + one duration
  EXPECT_DOUBLE_EQ(t2[0].completion_pct, 100.0);
  EXPECT_EQ(t2[1].runs, 21);

  const auto t3 = BuildTable3(results);
  EXPECT_EQ(t3.size(), 22u);  // gold + 21 fault rows

  const auto t4 = BuildTable4(results);
  ASSERT_EQ(t4.size(), 5u);  // gold + 1 duration + 3 targets
  for (const auto& row : t4) {
    if (row.failed_pct > 0.0) {
      EXPECT_NEAR(row.crash_pct + row.failsafe_pct, 100.0, 1e-9) << row.label;
    }
  }
}

TEST(Campaign, GoldRunsHaveNoViolations) {
  const Campaign campaign(SmallConfig());
  const auto results = campaign.Run();
  for (const auto& g : results.gold) {
    EXPECT_EQ(g.inner_violations, 0);
    EXPECT_EQ(g.outer_violations, 0);
    EXPECT_TRUE(g.is_gold);
  }
}

TEST(CampaignConfig, FromEnvironmentDefaults) {
  // No env vars set by the test harness: defaults apply.
  const auto cfg = CampaignConfig::FromEnvironment();
  EXPECT_EQ(cfg.seed_base, 2024u);
  EXPECT_EQ(cfg.durations.size(), 4u);
}

/// FromEnvironment with only `name` set to `value`; `*warning` gets stderr.
CampaignConfig FromEnvironmentWith(const char* name, const char* value, std::string* warning) {
  ::setenv(name, value, 1);
  ::testing::internal::CaptureStderr();
  CampaignConfig cfg = CampaignConfig::FromEnvironment();
  *warning = ::testing::internal::GetCapturedStderr();
  ::unsetenv(name);
  return cfg;
}

TEST(CampaignConfig, MalformedEnvironmentCountsWarnAndAreIgnored) {
  // Parsed in full like the CLI's flags: a trailing byte, a fraction or an
  // int overflow is a malformed count, not a prefix to keep.
  std::string warning;
  for (const char* bad : {"1x", "2.5", "99999999999"}) {
    EXPECT_EQ(FromEnvironmentWith("UAVRES_MISSIONS", bad, &warning).mission_limit, 0) << bad;
    EXPECT_NE(warning.find("UAVRES_MISSIONS"), std::string::npos) << bad;
    EXPECT_EQ(FromEnvironmentWith("UAVRES_THREADS", bad, &warning).num_threads, 0) << bad;
    EXPECT_NE(warning.find("UAVRES_THREADS"), std::string::npos) << bad;
  }
  EXPECT_EQ(FromEnvironmentWith("UAVRES_MISSIONS", "3", &warning).mission_limit, 3);
  EXPECT_EQ(warning, "");
  EXPECT_EQ(FromEnvironmentWith("UAVRES_THREADS", "2", &warning).num_threads, 2);
  EXPECT_EQ(warning, "");
}

}  // namespace
}  // namespace uavres::core
