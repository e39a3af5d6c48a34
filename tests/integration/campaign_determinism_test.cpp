// Scheduler determinism at campaign level: the same grid must produce
// byte-identical results and identical result-store keys no matter how many
// worker threads execute it, and the progress callback must honour its
// documented lock-free contract.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.h"

namespace uavres::core {
namespace {

namespace fs = std::filesystem;

CampaignConfig SmallConfig() {
  CampaignConfig cfg;
  cfg.mission_limit = 1;
  cfg.durations = {2.0};
  return cfg;
}

// Bit-exact fingerprint: doubles are appended as their raw 64-bit pattern,
// so "identical" here means byte-identical, not merely within tolerance.
void Append(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx,", static_cast<unsigned long long>(bits));
  out += buf;
}
void Append(std::string& out, int v) { out += std::to_string(v) + ","; }

void Append(std::string& out, const MissionResult& r) {
  Append(out, r.mission_index);
  out += r.mission_name + ",";
  Append(out, static_cast<int>(r.is_gold));
  Append(out, static_cast<int>(r.fault.target));
  Append(out, static_cast<int>(r.fault.type));
  Append(out, r.fault.start_time_s);
  Append(out, r.fault.duration_s);
  Append(out, static_cast<int>(r.outcome));
  Append(out, r.flight_duration_s);
  Append(out, r.distance_km);
  Append(out, r.inner_violations);
  Append(out, r.outer_violations);
  Append(out, r.max_deviation_m);
  Append(out, static_cast<int>(r.failsafe_reason));
  Append(out, r.failsafe_time_s);
  out += r.crash_reason + ",";
  Append(out, r.crash_time_s);
  out += "\n";
}

std::string Fingerprint(const CampaignResults& results) {
  std::string out;
  for (const auto& g : results.gold) Append(out, g);
  for (const auto& f : results.faulty) Append(out, f);
  for (const auto& path : results.gold_trajectories) {
    for (const auto& p : path.Points()) {
      Append(out, p.x);
      Append(out, p.y);
      Append(out, p.z);
    }
    out += "--\n";
  }
  return out;
}

std::set<std::string> StoreEntries(const fs::path& dir) {
  std::set<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) names.insert(e.path().filename().string());
  return names;
}

TEST(CampaignDeterminism, ByteIdenticalResultsAndStoreKeysAcrossThreadCounts) {
  const fs::path base = fs::temp_directory_path() / "uavres_sched_det_test";
  fs::remove_all(base);

  std::string reference_fp;
  std::set<std::string> reference_keys;
  for (int threads : {1, 2, 7, 16}) {
    CampaignConfig cfg = SmallConfig();
    cfg.num_threads = threads;
    // A fresh cache dir per thread count: every run is computed (nothing is
    // loaded), and the file names ARE the result-store keys.
    fs::path dir = base / "t";
    dir += std::to_string(threads);
    cfg.cache_dir = dir.string();

    const auto results = Campaign(cfg).Run();
    const std::string fp = Fingerprint(results);
    const auto keys = StoreEntries(dir);
    EXPECT_EQ(results.cache.hits, 0u) << threads << " threads";
    EXPECT_EQ(keys.size(), results.TotalRuns()) << threads << " threads";

    if (threads == 1) {
      reference_fp = fp;
      reference_keys = keys;
      ASSERT_FALSE(reference_fp.empty());
    } else {
      EXPECT_EQ(fp, reference_fp) << "results diverge at " << threads << " threads";
      EXPECT_EQ(keys, reference_keys) << "store keys diverge at " << threads << " threads";
    }
  }
  fs::remove_all(base);
}

// The documented progress contract (campaign.h): values are unique, cover
// 1..total exactly once, and each call is a fresh atomic increment — so a
// mutex-free observer sees a complete, gap-free sequence.
TEST(CampaignDeterminism, ProgressContractHoldsWithoutMutex) {
  CampaignConfig cfg = SmallConfig();
  cfg.num_threads = 4;
  const Campaign campaign(cfg);

  static constexpr std::size_t kMax = 64;
  std::array<std::atomic<std::uint32_t>, kMax> seen{};
  std::atomic<std::size_t> reported_total{0};
  std::atomic<std::size_t> max_completed{0};

  const auto results = campaign.Run([&](std::size_t completed, std::size_t total) {
    reported_total.store(total, std::memory_order_relaxed);
    ASSERT_GE(completed, 1u);
    ASSERT_LE(completed, kMax);
    seen[completed - 1].fetch_add(1, std::memory_order_relaxed);
    std::size_t prev = max_completed.load(std::memory_order_relaxed);
    while (prev < completed &&
           !max_completed.compare_exchange_weak(prev, completed, std::memory_order_relaxed)) {
    }
  });

  const std::size_t total = results.TotalRuns();
  EXPECT_EQ(reported_total.load(), total);
  EXPECT_EQ(max_completed.load(), total);
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(seen[i].load(), 1u) << "completed value " << i + 1;
  }
  for (std::size_t i = total; i < kMax; ++i) {
    EXPECT_EQ(seen[i].load(), 0u) << "completed value " << i + 1;
  }
}

}  // namespace
}  // namespace uavres::core
