// Persistent, content-addressed campaign result store.
//
// Every experiment in the 850-run grid is a pure function of (run harness
// config, drone spec, optional fault spec, seed base). This store keys each
// completed run by a stable 64-bit FNV-1a hash of those inputs plus a schema
// version, and persists the MissionResult (plus, for gold/reference runs,
// the recorded Trajectory) to one file per key in a cache directory.
//
// Properties:
//   * Writes are atomic (unique temp file + rename), so a campaign killed
//     mid-run leaves only complete entries behind and simply resumes on
//     restart, and two writers — threads OR processes — committing the same
//     key can never expose a partial file: each writes its own temp and the
//     final rename is all-or-nothing (last committer wins with identical
//     deterministic content).
//   * Entries are sharded across 256 subdirectories by the top byte of the
//     key (v3 layout), so a serve daemon fed by many clients never funnels
//     every commit through one directory inode.
//   * Corrupt, truncated or schema-mismatched entries are detected via
//     framing checks, deleted, counted, and reported as misses — the run is
//     recomputed rather than trusted.
//   * All bench/table/figure binaries pointed at one directory (e.g. via
//     UAVRES_CACHE_DIR) share a single cache instead of re-simulating.
//
// Entries live at <dir>/<hh>/<16-hex-key><ext>, hh = top byte of the key:
// `.uvrs` (magic, schema, key, MissionResult, optional trajectory, footer)
// and `.uvfl` (key, FleetRecord), declared once as field lists in
// result_store.cpp (telemetry/binary_io.h). Both kinds share one load path
// (read, decode strictly, delete on failure) and one commit path.
//
// Schema-version bump rules: the store's version IS the experiment-identity
// schema telemetry::kSpecSchemaVersion (core/api.h documents the contract).
// Bump that constant whenever the serialized layout changes OR any
// simulation-affecting semantics change that the key inputs cannot express
// (physics step, controller constants, fault injection semantics, ...). Old
// entries then read as mismatched and are recomputed; mixing schema
// versions in one directory is safe (v2 flat-layout files are simply never
// looked up by the v3 sharded paths).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/metrics.h"
#include "core/scenario.h"
#include "telemetry/fleet_codec.h"
#include "telemetry/spec_codec.h"
#include "telemetry/trajectory.h"
#include "uav/simulation_runner.h"

namespace uavres::core {

// v3: the serve wire API + sharded store layout. Aliases the spec schema so
// the wire protocol, the cache keys and the on-disk entries can never skew
// (history in telemetry/spec_codec.h).
inline constexpr std::uint32_t kResultStoreSchemaVersion = telemetry::kSpecSchemaVersion;

/// Streaming FNV-1a over typed fields. Stable across platforms and builds
/// (doubles are mixed by IEEE-754 bit pattern, strings byte-wise).
class CacheKeyHasher {
 public:
  CacheKeyHasher& Mix(std::uint64_t v);
  CacheKeyHasher& Mix(double v);
  CacheKeyHasher& Mix(const std::string& s);
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_{14695981039346656037ULL};  // FNV-1a offset basis
};

/// Stable cache key for one experiment. Covers everything the simulation
/// outcome depends on: schema version, harness config, the full drone spec
/// (including mission waypoints), mission index (a seed input), seed base,
/// and the fault spec (or its absence, for gold runs).
///
/// `run.uav_config_mutator` is an opaque callable and CANNOT be hashed —
/// callers that set it must bypass the cache (Campaign::Run does).
std::uint64_t ExperimentCacheKey(const uav::RunConfig& run, const DroneSpec& spec,
                                 int mission_index, std::uint64_t seed_base,
                                 const std::optional<FaultSpec>& fault);

/// ExperimentSpec form: hashes the spec's identity tuple (drone, mission
/// index, fault, seed base) — `spec.gold` is derived data and excluded, so
/// a spec with and without its reference attached keys identically.
inline std::uint64_t ExperimentCacheKey(const uav::RunConfig& run,
                                        const uav::ExperimentSpec& spec) {
  return ExperimentCacheKey(run, spec.drone, spec.mission_index, spec.seed_base,
                            spec.fault);
}

/// Hit/miss accounting; `corrupt` counts entries that existed but failed
/// validation (also reported as misses).
struct CacheStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t corrupt{0};
  std::uint64_t stores{0};

  std::uint64_t Lookups() const { return hits + misses; }
};

/// One cached experiment. Gold entries carry their trajectory so dependent
/// faulty runs (bubble-violation references) and the figure benches can
/// reuse it; metrics-only entries leave it empty.
struct StoredRun {
  MissionResult result;
  std::optional<telemetry::Trajectory> trajectory;
};

/// Thread-safe persistent store. All methods may be called concurrently
/// from campaign worker threads AND from several processes sharing the
/// directory (the serve daemon plus offline campaigns): distinct keys map
/// to distinct files inside 256 key-sharded subdirectories, and same-key
/// writers each commit a uniquely named temp file with an atomic rename, so
/// a reader can never observe a partially written entry (last committer
/// wins with identical deterministic content).
class ResultStore {
 public:
  /// Opens the store over `dir`, creating the directory if needed. An empty
  /// `dir` (or an uncreatable one) disables the store: every lookup misses
  /// and every write is dropped.
  explicit ResultStore(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// Loads the entry for `key`. Returns nullopt on absence, corruption, or
  /// (when `require_trajectory`) an entry without trajectory data; corrupt
  /// entries are deleted so the recomputed run can replace them.
  std::optional<StoredRun> Load(std::uint64_t key, bool require_trajectory = false);

  /// Fleet entries (DESIGN.md §18) share the directory, sharding and
  /// commit path but hold a telemetry::FleetRecord under `.uvfl`, keyed by
  /// core::FleetCacheKey (a disjoint key domain). Same contract as Load.
  std::optional<telemetry::FleetRecord> LoadFleet(std::uint64_t key);

  /// Atomically persists the entry (unique temp file in the key's shard +
  /// rename). Returns false — never throws — on IO failure; the campaign
  /// still completes.
  bool Store(std::uint64_t key, const StoredRun& run);
  bool Store(std::uint64_t key, const telemetry::FleetRecord& record);

  CacheStats stats() const;

  /// Sharded entry path `<dir>/<hh>/<16-hex><ext>` (exposed for tests).
  std::string EntryPath(std::uint64_t key, std::string_view ext = kRunEntryExt) const;

  static constexpr std::string_view kRunEntryExt = ".uvrs";
  static constexpr std::string_view kFleetEntryExt = ".uvfl";

 private:
  /// The one load path: a hit when `read` returns a value for the entry's
  /// bytes, else a miss — and a corrupt entry, deleted, when it existed.
  template <class Read>
  auto LoadEntry(std::uint64_t key, std::string_view ext, Read&& read)
      -> decltype(read(std::string_view{}));
  /// The one commit path: temp file in the key's shard, then rename.
  bool Commit(std::uint64_t key, std::string_view ext, const std::string& bytes);
  bool EnsureShard(std::uint64_t key);

  std::string dir_;
  mutable std::mutex mutex_;
  CacheStats stats_;
  /// Lazily created shard directories (one syscall per shard lifetime, not
  /// per store).
  std::array<std::atomic<bool>, 256> shard_ready_{};
};

/// In-process single-flight guard keyed by cache key: the first caller to
/// Begin() a key becomes its LEADER and must eventually Finish() it; every
/// caller that arrives while the key is in flight blocks in Begin() until
/// the leader finishes, then returns kWaited. Pair with a ResultStore:
/// leaders compute-and-Store, waiters re-Load — N concurrent identical
/// requests cost exactly one simulation (the serve daemon's asynchronous
/// flight table builds on the same store contract but notifies waiters via
/// callbacks instead of blocking; see serve/server.cpp).
class SingleFlight {
 public:
  enum class Role { kLeader, kWaited };

  /// Blocks while `key` is held by another leader. Returns kLeader when the
  /// caller must produce the value (and later call Finish), kWaited when a
  /// leader completed the key while we waited.
  Role Begin(std::uint64_t key);

  /// Releases `key` and wakes every waiter. Only the leader may call it.
  void Finish(std::uint64_t key);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, int> in_flight_;  ///< key -> waiter count
};

/// Serialization of one MissionResult (exposed for tests and for comparing
/// results bit-exactly across thread schedules). The reader takes the whole
/// byte string and rejects trailing bytes.
void WriteMissionResult(std::ostream& os, const MissionResult& r);
bool ReadMissionResult(std::string_view bytes, MissionResult& r);

/// Serialization of a full `.uvrs` entry (exposed for tests).
void WriteStoredRun(std::ostream& os, std::uint64_t key, const StoredRun& run);
std::optional<StoredRun> ReadStoredRun(std::string_view bytes, std::uint64_t expected_key);

/// Reader of a full `.uvfl` entry: the key, then the record.
std::optional<telemetry::FleetRecord> ReadFleetEntry(std::string_view bytes,
                                                     std::uint64_t expected_key);

}  // namespace uavres::core
