// `uavres loadgen` — multi-client load generator and latency bench for the
// serve daemon.
//
// Spawns N client threads, each with its own connection, and deals a spec
// stream across them round-robin. The stream enumerates the campaign grid
// in offline order (gold per mission, then the mission-major faulty grid)
// but cycles through a deliberately truncated unique universe, so distinct
// clients submit overlapping specs and the daemon's single-flight/store
// dedup paths are exercised, not just its compute path.
//
// Reports p50/p99/mean/max request latency, throughput, and the daemon's
// dedup accounting as one JSON object (BENCH_serve.json by default; layout
// in loadgen.cpp). With `verify`, re-runs the requested specs
// offline through core::Campaign::Run and byte-compares the serialized
// MissionResults — the serve path must be indistinguishable from the
// library path.
#pragma once

#include <cstdint>
#include <string>

#include "core/api.h"

namespace uavres::serve {

struct LoadgenConfig {
  std::string host{"127.0.0.1"};
  std::uint16_t port{7745};
  /// Client connections; at least 1.
  int clients{8};
  /// Total requests across all clients; at least 1.
  int specs{500};
  /// Requests per SubmitBatch frame.
  int batch{16};
  /// Unique experiment universe size; 0 = auto (half the request count,
  /// clamped to the grid) so every spec is requested ~twice.
  int unique{0};
  /// The grid the requests are drawn from (missions, durations, seed base,
  /// recovery), built by CampaignConfig::Builder. With no cache dir set,
  /// `verify` recomputes every result.
  api::CampaignConfig grid;
  /// Offline Campaign::Run byte-comparison of every received result.
  bool verify{false};
  /// Send kShutdown once done (CI teardown).
  bool shutdown{false};
  std::string out_path{"BENCH_serve.json"};
};

/// Runs the load generation; returns a process exit code (0 = success, and
/// — when `verify` — zero byte mismatches).
int RunLoadgen(const LoadgenConfig& cfg);

}  // namespace uavres::serve
