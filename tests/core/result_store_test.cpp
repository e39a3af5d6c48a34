// Result-store unit tests: key stability/sensitivity, bit-exact round trips
// for MissionResult and Trajectory payloads, and the corruption contract —
// a truncated or garbage cache file must surface as a (counted) miss and be
// recomputable, never as silent wrong data or a crash.
#include "core/result_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/scenario.h"
#include "telemetry/trajectory.h"

namespace uavres::core {
namespace {

namespace fs = std::filesystem;

MissionResult SampleResult() {
  MissionResult r;
  r.mission_index = 7;
  r.mission_name = "VLC-08 diagonal turn";
  r.is_gold = false;
  r.fault.type = FaultType::kRandom;
  r.fault.target = FaultTarget::kGyrometer;
  r.fault.start_time_s = 90.0;
  r.fault.duration_s = 30.0;
  r.outcome = MissionOutcome::kFailsafe;
  r.flight_duration_s = 123.456789012345;
  r.distance_km = 0.987654321;
  r.inner_violations = 3;
  r.outer_violations = 11;
  r.max_deviation_m = 42.125;
  r.failsafe_reason = nav::FailsafeReason::kSensorFault;
  r.failsafe_time_s = 95.5;
  r.crash_reason = "impact 12.3 m/s";
  r.crash_time_s = 101.25;
  return r;
}

telemetry::Trajectory SampleTrajectory(std::size_t n = 25) {
  telemetry::Trajectory tr;
  for (std::size_t i = 0; i < n; ++i) {
    telemetry::TrajectorySample s;
    s.t = 0.5 * static_cast<double>(i);
    s.pos_true = {1.0 + static_cast<double>(i), -2.0, -15.0};
    s.pos_est = s.pos_true + math::Vec3{0.01, -0.02, 0.03};
    s.vel_true = {3.4, 0.0, -0.1};
    s.vel_est = {3.38, 0.01, -0.09};
    s.att_true = {1.0, 0.0, 0.0, 0.0};
    s.att_est = {0.999, 0.01, 0.02, 0.03};
    s.airspeed_est = 3.4;
    s.fault_active = (i % 7 == 0);
    tr.Add(s);
  }
  return tr;
}

std::string Serialize(const MissionResult& r) {
  std::ostringstream os(std::ios::binary);
  WriteMissionResult(os, r);
  return os.str();
}

void ExpectResultsEqual(const MissionResult& a, const MissionResult& b) {
  // Bit-exact equality via the canonical serialization.
  EXPECT_EQ(Serialize(a), Serialize(b));
}

/// Fresh empty directory under the test temp dir.
std::string MakeCacheDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "uavres_store_" + tag;
  fs::remove_all(dir);
  return dir;
}

TEST(CacheKey, StableAndSensitive) {
  const auto fleet = BuildValenciaScenario();
  const uav::RunConfig run;
  FaultSpec fault;
  fault.type = FaultType::kMax;
  fault.target = FaultTarget::kImu;

  const auto key = ExperimentCacheKey(run, fleet[0], 0, 2024, fault);
  EXPECT_EQ(key, ExperimentCacheKey(run, fleet[0], 0, 2024, fault));  // stable

  // Every input the outcome depends on must perturb the key.
  EXPECT_NE(key, ExperimentCacheKey(run, fleet[1], 0, 2024, fault));   // spec
  EXPECT_NE(key, ExperimentCacheKey(run, fleet[0], 1, 2024, fault));   // mission idx
  EXPECT_NE(key, ExperimentCacheKey(run, fleet[0], 0, 2025, fault));   // seed
  EXPECT_NE(key, ExperimentCacheKey(run, fleet[0], 0, 2024, std::nullopt));  // gold
  FaultSpec other = fault;
  other.duration_s = 2.0;
  EXPECT_NE(key, ExperimentCacheKey(run, fleet[0], 0, 2024, other));   // fault
  uav::RunConfig dense = run;
  dense.record_rate_hz = 5.0;
  EXPECT_NE(key, ExperimentCacheKey(dense, fleet[0], 0, 2024, fault));  // harness
}

TEST(ResultStoreSerialization, MissionResultRoundTrip) {
  const MissionResult original = SampleResult();
  MissionResult decoded;
  ASSERT_TRUE(ReadMissionResult(Serialize(original), decoded));
  ExpectResultsEqual(original, decoded);
  EXPECT_EQ(decoded.mission_name, original.mission_name);
  EXPECT_EQ(decoded.outcome, original.outcome);
  EXPECT_EQ(decoded.crash_reason, original.crash_reason);
  EXPECT_EQ(decoded.failsafe_reason, original.failsafe_reason);
}

TEST(ResultStoreSerialization, TrajectoryRoundTrip) {
  const auto original = SampleTrajectory();
  telemetry::Trajectory round_trip;
  ASSERT_TRUE(telemetry::Decode(telemetry::Encode(original), round_trip));
  const telemetry::Trajectory* decoded = &round_trip;
  ASSERT_EQ(decoded->Size(), original.Size());
  for (std::size_t i = 0; i < original.Size(); ++i) {
    EXPECT_EQ(decoded->Samples()[i].t, original.Samples()[i].t);
    EXPECT_EQ(decoded->Samples()[i].pos_true.x, original.Samples()[i].pos_true.x);
    EXPECT_EQ(decoded->Samples()[i].att_est.w, original.Samples()[i].att_est.w);
    EXPECT_EQ(decoded->Samples()[i].fault_active, original.Samples()[i].fault_active);
  }
}

TEST(ResultStoreSerialization, TruncatedTrajectoryFails) {
  const auto original = SampleTrajectory();
  const std::string bytes = telemetry::Encode(original);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                                bytes.size() - 1}) {
    telemetry::Trajectory decoded;
    EXPECT_FALSE(telemetry::Decode(bytes.substr(0, cut), decoded)) << "cut=" << cut;
  }
}

TEST(ResultStore, StoreLoadRoundTripWithTrajectory) {
  ResultStore store(MakeCacheDir("roundtrip"));
  ASSERT_TRUE(store.enabled());
  StoredRun run{SampleResult(), SampleTrajectory()};

  EXPECT_TRUE(store.Store(77, run));
  const auto loaded = store.Load(77, /*require_trajectory=*/true);
  ASSERT_TRUE(loaded.has_value());
  ExpectResultsEqual(loaded->result, run.result);
  ASSERT_TRUE(loaded->trajectory.has_value());
  EXPECT_EQ(loaded->trajectory->Size(), run.trajectory->Size());

  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(ResultStore, AbsentKeyIsMiss) {
  ResultStore store(MakeCacheDir("absent"));
  EXPECT_FALSE(store.Load(123).has_value());
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.corrupt, 0u);
}

TEST(ResultStore, DisabledStoreNeverHitsOrWrites) {
  ResultStore store("");
  EXPECT_FALSE(store.enabled());
  EXPECT_FALSE(store.Load(1).has_value());
  EXPECT_FALSE(store.Store(1, {SampleResult(), std::nullopt}));
  const auto stats = store.stats();
  EXPECT_EQ(stats.Lookups(), 0u);
  EXPECT_EQ(stats.stores, 0u);
}

TEST(ResultStore, TruncatedEntryIsCorruptMissAndRecomputable) {
  const std::string dir = MakeCacheDir("truncated");
  ResultStore store(dir);
  ASSERT_TRUE(store.Store(42, {SampleResult(), SampleTrajectory()}));

  // Truncate the entry to half its size (simulates a crash mid-write of a
  // non-atomic writer, or disk corruption).
  const fs::path entry = store.EntryPath(42);
  ASSERT_TRUE(fs::exists(entry));
  const auto full_size = fs::file_size(entry);
  fs::resize_file(entry, full_size / 2);

  EXPECT_FALSE(store.Load(42).has_value());
  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_FALSE(fs::exists(entry));  // corrupt entry discarded

  // The recompute path: a fresh store replaces the entry and hits again.
  ASSERT_TRUE(store.Store(42, {SampleResult(), SampleTrajectory()}));
  EXPECT_TRUE(store.Load(42).has_value());
  stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ResultStore, GarbageEntryIsCorruptMiss) {
  const std::string dir = MakeCacheDir("garbage");
  ResultStore store(dir);
  {
    const fs::path entry = store.EntryPath(0xFF);
    fs::create_directories(entry.parent_path());
    std::ofstream os(entry, std::ios::binary);
    os << "this is not a result store entry at all, but it is long enough "
          "to exercise the framing checks past the magic comparison";
  }
  EXPECT_FALSE(store.Load(0xFF).has_value());
  const auto stats = store.stats();
  EXPECT_EQ(stats.corrupt, 1u);
}

TEST(ResultStore, TrailingJunkIsCorrupt) {
  const std::string dir = MakeCacheDir("trailing");
  ResultStore store(dir);
  ASSERT_TRUE(store.Store(9, {SampleResult(), std::nullopt}));
  {
    std::ofstream os(store.EntryPath(9), std::ios::binary | std::ios::app);
    os << "junk";
  }
  EXPECT_FALSE(store.Load(9).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(ResultStore, KeyMismatchedEntryIsCorrupt) {
  const std::string dir = MakeCacheDir("keymismatch");
  ResultStore store(dir);
  ASSERT_TRUE(store.Store(0xA, {SampleResult(), std::nullopt}));
  // Simulate a renamed/moved file: content for key 0xA under key 0xB's name
  // (both land in shard 00 — the shard byte is the key's TOP byte).
  fs::rename(store.EntryPath(0xA), store.EntryPath(0xB));
  EXPECT_FALSE(store.Load(0xB).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(ResultStore, MetricsOnlyEntryMissesWhenTrajectoryRequired) {
  ResultStore store(MakeCacheDir("notraj"));
  ASSERT_TRUE(store.Store(5, {SampleResult(), std::nullopt}));
  EXPECT_TRUE(store.Load(5).has_value());
  EXPECT_FALSE(store.Load(5, /*require_trajectory=*/true).has_value());
}

TEST(ResultStore, EntriesShardByTopKeyByte) {
  ResultStore store(MakeCacheDir("shards"));
  const std::uint64_t low = 0x0000000000000001ULL;   // shard 00
  const std::uint64_t high = 0xAB00000000000001ULL;  // shard ab
  ASSERT_TRUE(store.Store(low, {SampleResult(), std::nullopt}));
  ASSERT_TRUE(store.Store(high, {SampleResult(), std::nullopt}));
  EXPECT_EQ(fs::path(store.EntryPath(low)).parent_path().filename(), "00");
  EXPECT_EQ(fs::path(store.EntryPath(high)).parent_path().filename(), "ab");
  EXPECT_TRUE(fs::exists(store.EntryPath(low)));
  EXPECT_TRUE(fs::exists(store.EntryPath(high)));
  EXPECT_TRUE(store.Load(low).has_value());
  EXPECT_TRUE(store.Load(high).has_value());
}

TEST(ResultStore, ConcurrentWritersSameKeyCommitAtomically) {
  // Two-writer stress for the rename-on-commit contract: many threads
  // hammer the SAME key through separate ResultStore instances (as the
  // serve daemon and an offline campaign would) while readers poll. Every
  // observed load must be a fully formed entry — never a torn write, never
  // a leftover temp file visible as the entry.
  const std::string dir = MakeCacheDir("twowriter");
  constexpr int kWriters = 4;
  constexpr int kRounds = 50;
  std::atomic<bool> start{false};
  std::atomic<int> torn{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      ResultStore store(dir);
      while (!start.load()) {
      }
      for (int r = 0; r < kRounds; ++r) {
        ASSERT_TRUE(store.Store(7, {SampleResult(), SampleTrajectory()}));
        if (auto loaded = store.Load(7)) {
          if (Serialize(loaded->result) != Serialize(SampleResult())) {
            torn.fetch_add(1);
          }
        } else if (store.stats().corrupt > 0) {
          torn.fetch_add(1);  // a committed entry must never read corrupt
        }
        (void)w;
      }
    });
  }
  start.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);

  // Commit left exactly the entry behind — no stray temp files.
  ResultStore store(dir);
  EXPECT_TRUE(store.Load(7).has_value());
  int files = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    files += e.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(files, 1);
}

TEST(SingleFlight, SecondCallerWaitsForLeader) {
  SingleFlight flight;
  ASSERT_EQ(flight.Begin(1), SingleFlight::Role::kLeader);

  std::atomic<bool> leader_done{false};
  std::atomic<bool> waiter_returned{false};
  std::thread waiter([&] {
    EXPECT_EQ(flight.Begin(1), SingleFlight::Role::kWaited);
    // Begin must not return to a waiter before the leader finished.
    EXPECT_TRUE(leader_done.load());
    waiter_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(waiter_returned.load());
  leader_done.store(true);
  flight.Finish(1);
  waiter.join();
  EXPECT_TRUE(waiter_returned.load());

  // The key is free again: the next caller leads.
  EXPECT_EQ(flight.Begin(1), SingleFlight::Role::kLeader);
  flight.Finish(1);
}

TEST(SingleFlight, DistinctKeysDoNotBlockEachOther) {
  SingleFlight flight;
  EXPECT_EQ(flight.Begin(1), SingleFlight::Role::kLeader);
  EXPECT_EQ(flight.Begin(2), SingleFlight::Role::kLeader);
  flight.Finish(2);
  flight.Finish(1);
}

TEST(ResultStore, SchemaMismatchIsCorruptMiss) {
  const std::string dir = MakeCacheDir("schema");
  ResultStore store(dir);
  ASSERT_TRUE(store.Store(3, {SampleResult(), std::nullopt}));
  const std::string path = store.EntryPath(3);
  // Bump the on-disk schema version field (bytes 4..7, little-endian).
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  const char bumped[4] = {(char)(kResultStoreSchemaVersion + 1), 0, 0, 0};
  f.write(bumped, 4);
  f.close();
  EXPECT_FALSE(store.Load(3).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
}

}  // namespace
}  // namespace uavres::core
