#include "core/result_store.h"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "telemetry/binary_io.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"

namespace uavres::core {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMaxNameLen = 4096;

/// Process-unique token for temp-file names: two writers — threads of one
/// process or distinct processes sharing the directory — must never collide
/// on a temp path, or one could rename the other's half-written file into
/// place. pid disambiguates processes deterministically (the previous
/// ASLR-address salt could collide); the monotone counter disambiguates
/// threads within a process.
std::uint64_t TempToken() {
  static std::atomic<std::uint64_t> counter{0};
  const auto pid = static_cast<std::uint64_t>(::getpid());
  return (pid << 40) ^ counter.fetch_add(1, std::memory_order_relaxed);
}

std::string KeyHex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace

CacheKeyHasher& CacheKeyHasher::Mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ULL;  // FNV-1a prime
  }
  return *this;
}

CacheKeyHasher& CacheKeyHasher::Mix(double v) {
  return Mix(std::bit_cast<std::uint64_t>(v));
}

CacheKeyHasher& CacheKeyHasher::Mix(const std::string& s) {
  Mix(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  return *this;
}

std::uint64_t ExperimentCacheKey(const uav::RunConfig& run, const DroneSpec& spec,
                                 int mission_index, std::uint64_t seed_base,
                                 const std::optional<FaultSpec>& fault) {
  CacheKeyHasher h;
  h.Mix(static_cast<std::uint64_t>(kResultStoreSchemaVersion));

  // Harness configuration (gold sample density feeds the faulty-run bubble
  // reference, so recording parameters are outcome inputs too).
  h.Mix(run.tracking_interval_s)
      .Mix(run.bubble_risk_factor)
      .Mix(run.record_rate_hz)
      .Mix(run.extra_time_s)
      .Mix(static_cast<std::uint64_t>(run.record_trajectory));

  // Recovery axis: mixed only when ON, so recovery-off keys stay bit-
  // identical to every pre-recovery build of this repo (asserted against
  // hardcoded historical keys in the campaign determinism tests).
  if (run.recovery) h.Mix(static_cast<std::uint64_t>(0xD37EC7EDFA170BADULL));

  // Full drone spec, including the mission geometry.
  h.Mix(spec.name)
      .Mix(spec.cruise_speed_kmh)
      .Mix(spec.mass_kg)
      .Mix(spec.wingspan_m)
      .Mix(spec.safety_distance_m)
      .Mix(spec.top_speed_factor)
      .Mix(static_cast<std::uint64_t>(spec.has_turning_points))
      .Mix(spec.home_geo.lat_deg)
      .Mix(spec.home_geo.lon_deg)
      .Mix(spec.home_geo.alt_m);
  h.Mix(spec.plan.cruise_speed_ms)
      .Mix(spec.plan.acceptance_radius_m)
      .Mix(spec.plan.takeoff_altitude_m)
      .Mix(spec.plan.home.x)
      .Mix(spec.plan.home.y)
      .Mix(spec.plan.home.z)
      .Mix(static_cast<std::uint64_t>(spec.plan.waypoints.size()));
  for (const auto& wp : spec.plan.waypoints) h.Mix(wp.x).Mix(wp.y).Mix(wp.z);

  // Seed inputs (mission index is folded into ExperimentSeed) and fault.
  h.Mix(static_cast<std::uint64_t>(mission_index)).Mix(seed_base);
  h.Mix(static_cast<std::uint64_t>(fault.has_value()));
  if (fault) {
    h.Mix(static_cast<std::uint64_t>(fault->type))
        .Mix(static_cast<std::uint64_t>(fault->target))
        .Mix(fault->start_time_s)
        .Mix(fault->duration_s);
    // Magnitude axis (bisection sweeps): mixed only when not the full-strength
    // default, so every pre-magnitude key stays bit-identical to the pinned
    // historical keys in the campaign determinism tests.
    if (fault->magnitude != 1.0) {
      h.Mix(static_cast<std::uint64_t>(0xB15EC7B15EC7ULL)).Mix(fault->magnitude);
    }
  }
  return h.digest();
}

template <class V>
void Fields(V& v, MissionResult& r) {
  using telemetry::Capped;
  using telemetry::InRange;
  v(r.mission_index, Capped{r.mission_name, kMaxNameLen}, r.is_gold,
    InRange{r.fault.type, FaultType::kFixed, FaultType::kDrift},
    InRange{r.fault.target, FaultTarget::kAccelerometer, FaultTarget::kImu},
    r.fault.start_time_s, r.fault.duration_s,
    InRange{r.outcome, MissionOutcome::kCompleted, MissionOutcome::kTimeout},
    r.flight_duration_s, r.distance_km, r.inner_violations, r.outer_violations,
    r.max_deviation_m,
    InRange{r.failsafe_reason, nav::FailsafeReason::kNone,
            nav::FailsafeReason::kEstimatorFailure},
    r.failsafe_time_s, Capped{r.crash_reason, kMaxNameLen}, r.crash_time_s,
    // Recovery fields (appended; entries written before they existed fail the
    // footer check on read and are recomputed — the store is self-invalidating).
    r.detector_enabled, r.detection_time_s, r.detection_latency_s, r.false_positives,
    r.recovery_engaged, r.recovery_success);
}

namespace {

using telemetry::Expect;

/// `.uvrs` entry layout.
auto RunEntry(std::uint64_t key, auto& run) {
  return [key, &run](auto& v) {
    v(Expect{telemetry::Magic("UVRS")}, Expect{kResultStoreSchemaVersion}, Expect{key},
      run.result, run.trajectory, Expect{telemetry::kArtifactFooter});
  };
}

/// `.uvfl` entry layout: the key, then the self-framed record.
auto FleetEntry(std::uint64_t key, auto& record) {
  return [key, &record](auto& v) { v(Expect{key}, record); };
}

}  // namespace

void WriteMissionResult(std::ostream& os, const MissionResult& r) {
  os << telemetry::Encode(r);
}

bool ReadMissionResult(std::string_view bytes, MissionResult& r) {
  return telemetry::Decode(bytes, r);
}

void WriteStoredRun(std::ostream& os, std::uint64_t key, const StoredRun& run) {
  os << telemetry::Encode(RunEntry(key, run));
}

std::optional<StoredRun> ReadStoredRun(std::string_view bytes, std::uint64_t expected_key) {
  StoredRun run;
  if (!telemetry::Decode(bytes, RunEntry(expected_key, run))) return std::nullopt;
  return run;
}

std::optional<telemetry::FleetRecord> ReadFleetEntry(std::string_view bytes,
                                                     std::uint64_t expected_key) {
  telemetry::FleetRecord record;
  if (!telemetry::Decode(bytes, FleetEntry(expected_key, record))) return std::nullopt;
  return record;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_, ec)) {
    std::fprintf(stderr, "result store: cannot open %s (%s); caching disabled\n",
                 dir_.c_str(), ec.message().c_str());
    dir_.clear();
  }
}

std::string ResultStore::EntryPath(std::uint64_t key, std::string_view ext) const {
  // Shard by the top byte, the first two hex digits: FNV-1a output is
  // uniform, so 256 subdirectories split a million-entry store into ~4k
  // files each and spread same-instant commits from many serve clients
  // across distinct directory inodes.
  const std::string hex = KeyHex(key);
  return dir_ + "/" + hex.substr(0, 2) + "/" + hex + std::string(ext);
}

bool ResultStore::EnsureShard(std::uint64_t key) {
  const std::size_t shard = static_cast<std::size_t>(key >> 56);
  if (shard_ready_[shard].load(std::memory_order_acquire)) return true;
  std::error_code ec;
  fs::create_directories(fs::path(EntryPath(key)).parent_path(), ec);
  if (ec) return false;
  shard_ready_[shard].store(true, std::memory_order_release);
  return true;
}

template <class Read>
auto ResultStore::LoadEntry(std::uint64_t key, std::string_view ext, Read&& read)
    -> decltype(read(std::string_view{})) {
  if (!enabled()) return std::nullopt;
  UAVRES_TRACE_SCOPE("cache/load");
  const std::string path = EntryPath(key, ext);
  const std::optional<std::string> bytes = telemetry::ReadFileBytes(path);
  auto entry = bytes ? read(*bytes) : std::nullopt;
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry) {
    ++stats_.hits;
    UAVRES_COUNT("cache.hits");
    return entry;
  }
  ++stats_.misses;
  UAVRES_COUNT("cache.misses");
  if (bytes) {
    ++stats_.corrupt;
    UAVRES_COUNT("cache.corrupt");
    std::error_code ec;
    fs::remove(path, ec);  // make room for the recomputed entry
  }
  return std::nullopt;
}

bool ResultStore::Commit(std::uint64_t key, std::string_view ext, const std::string& bytes) {
  UAVRES_TRACE_SCOPE("cache/store");
  if (!EnsureShard(key)) return false;
  // The temp lives in the destination shard so the final rename never
  // crosses a directory (and stays atomic on every POSIX filesystem).
  const std::string path = EntryPath(key, ext);
  const std::string tmp = path + ".tmp-" + KeyHex(TempToken());
  std::error_code ec;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.close();
    if (!os) {
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stores;
  UAVRES_COUNT("cache.stores");
  return true;
}

std::optional<StoredRun> ResultStore::Load(std::uint64_t key, bool require_trajectory) {
  return LoadEntry(key, kRunEntryExt, [&](std::string_view bytes) {
    auto run = ReadStoredRun(bytes, key);
    if (run && require_trajectory && !run->trajectory) run.reset();
    return run;
  });
}

std::optional<telemetry::FleetRecord> ResultStore::LoadFleet(std::uint64_t key) {
  return LoadEntry(key, kFleetEntryExt,
                   [&](std::string_view bytes) { return ReadFleetEntry(bytes, key); });
}

bool ResultStore::Store(std::uint64_t key, const StoredRun& run) {
  return enabled() && Commit(key, kRunEntryExt, telemetry::Encode(RunEntry(key, run)));
}

bool ResultStore::Store(std::uint64_t key, const telemetry::FleetRecord& record) {
  return enabled() &&
         Commit(key, kFleetEntryExt, telemetry::Encode(FleetEntry(key, record)));
}

CacheStats ResultStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

SingleFlight::Role SingleFlight::Begin(std::uint64_t key) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = in_flight_.find(key);
  if (it == in_flight_.end()) {
    in_flight_.emplace(key, 0);
    return Role::kLeader;
  }
  ++it->second;
  cv_.wait(lock, [&] { return !in_flight_.contains(key); });
  return Role::kWaited;
}

void SingleFlight::Finish(std::uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    in_flight_.erase(key);
  }
  cv_.notify_all();
}

}  // namespace uavres::core
