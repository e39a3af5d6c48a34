#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/stats.h"
#include "serve/client.h"

namespace uavres::serve {

namespace {

using telemetry::WireSpec;

/// The request stream in offline-campaign enumeration order: gold spec per
/// mission first, then the mission-major faulty grid. `universe_index`
/// identifies the spec for the offline verify lookup.
struct PlannedSpec {
  WireSpec wire;
  std::size_t universe_index{0};
};

std::vector<PlannedSpec> BuildUniverse(const api::Campaign& campaign,
                                       const LoadgenConfig& cfg) {
  const auto& fleet = campaign.fleet();
  const auto grid = campaign.GridFaults();
  std::vector<PlannedSpec> universe;
  universe.reserve(fleet.size() * (1 + grid.size()));
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    WireSpec w;
    w.mission_index = static_cast<std::int32_t>(m);
    w.seed_base = cfg.grid.seed_base;
    w.recovery = cfg.grid.run.recovery;
    w.has_fault = false;
    universe.push_back({w, universe.size()});
  }
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    for (const auto& f : grid) {
      WireSpec w;
      w.mission_index = static_cast<std::int32_t>(m);
      w.seed_base = cfg.grid.seed_base;
      w.recovery = cfg.grid.run.recovery;
      w.has_fault = true;
      w.fault_type = static_cast<std::uint8_t>(f.type);
      w.fault_target = static_cast<std::uint8_t>(f.target);
      w.start_time_s = f.start_time_s;
      w.duration_s = f.duration_s;
      w.magnitude = f.magnitude;
      universe.push_back({w, universe.size()});
    }
  }
  return universe;
}

struct ClientTally {
  std::vector<double> latencies_ms;
  std::size_t ok{0};
  std::size_t rejected{0};
  std::size_t overloaded{0};
  std::size_t attached{0};
  std::size_t store_hits{0};
  /// (universe_index, serialized result) pairs for the verify pass.
  std::vector<std::pair<std::size_t, std::string>> results;
  std::string error;
};

void RunClient(const LoadgenConfig& cfg, const std::vector<PlannedSpec>& stream,
               int client_index, ClientTally& tally) {
  // Deal: client k owns stream positions k, k+clients, ...
  std::vector<PlannedSpec> mine;
  for (std::size_t i = static_cast<std::size_t>(client_index); i < stream.size();
       i += static_cast<std::size_t>(cfg.clients)) {
    mine.push_back(stream[i]);
  }
  if (mine.empty()) return;

  Client::Options copts;
  copts.host = cfg.host;
  copts.port = cfg.port;
  copts.name = "loadgen-" + std::to_string(client_index);
  Client client(copts);
  if (!client.Connect(&tally.error)) return;

  const std::size_t batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(cfg.batch));
  for (std::size_t begin = 0; begin < mine.size(); begin += batch) {
    const std::size_t end = std::min(begin + batch, mine.size());
    std::vector<WireSpec> specs;
    specs.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) specs.push_back(mine[i].wire);
    std::vector<Client::Outcome> outcomes;
    if (!client.SubmitAndWait(specs, outcomes, &tally.error)) return;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Client::Outcome& o = outcomes[i];
      tally.latencies_ms.push_back(o.latency_ms);
      if (o.ok) {
        ++tally.ok;
        if (o.attached) ++tally.attached;
        if (o.source == telemetry::ResultSource::kStoreHit) ++tally.store_hits;
        tally.results.emplace_back(mine[begin + i].universe_index, o.result_bytes);
      } else {
        ++tally.rejected;
        if (o.reject == telemetry::RejectReason::kRejectedOverload) {
          ++tally.overloaded;
        }
      }
    }
  }
}

}  // namespace

int RunLoadgen(const LoadgenConfig& cfg) {
  // The grid the daemon and the offline verify pass share.
  const api::Campaign campaign(cfg.grid);

  const std::vector<PlannedSpec> universe = BuildUniverse(campaign, cfg);
  // Truncate the universe so the stream cycles: with `unique` ~ specs/2,
  // every experiment is requested about twice and — dealt round-robin —
  // its repeats land on different clients, forcing cross-client dedup.
  std::size_t unique = cfg.unique > 0 ? static_cast<std::size_t>(cfg.unique)
                                      : static_cast<std::size_t>((cfg.specs + 1) / 2);
  unique = std::clamp<std::size_t>(unique, 1, universe.size());
  std::vector<PlannedSpec> stream;
  stream.reserve(static_cast<std::size_t>(cfg.specs));
  for (int i = 0; i < cfg.specs; ++i) {
    stream.push_back(universe[static_cast<std::size_t>(i) % unique]);
  }

  std::fprintf(stderr,
               "loadgen: %d clients, %d requests over %zu unique specs "
               "(grid: %zu missions x %zu faults) -> %s:%u\n",
               cfg.clients, cfg.specs, unique, campaign.fleet().size(),
               campaign.GridFaults().size(), cfg.host.c_str(), cfg.port);

  std::vector<ClientTally> tallies(static_cast<std::size_t>(cfg.clients));
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(cfg.clients));
    for (int c = 0; c < cfg.clients; ++c) {
      threads.emplace_back(RunClient, std::cref(cfg), std::cref(stream), c,
                           std::ref(tallies[static_cast<std::size_t>(c)]));
    }
    for (auto& t : threads) t.join();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::vector<double> latencies;
  std::size_t ok = 0, rejected = 0, overloaded = 0, attached = 0, store_hits = 0;
  bool client_failed = false;
  for (const auto& t : tallies) {
    latencies.insert(latencies.end(), t.latencies_ms.begin(), t.latencies_ms.end());
    ok += t.ok;
    rejected += t.rejected;
    overloaded += t.overloaded;
    attached += t.attached;
    store_hits += t.store_hits;
    if (!t.error.empty()) {
      std::fprintf(stderr, "loadgen: client error: %s\n", t.error.c_str());
      client_failed = true;
    }
  }

  // Daemon-side accounting (and the CI teardown handshake) on a fresh
  // control connection.
  telemetry::ServeStats stats;
  {
    Client::Options copts;
    copts.host = cfg.host;
    copts.port = cfg.port;
    copts.name = "loadgen-control";
    Client control(copts);
    std::string err;
    if (control.Connect(&err)) {
      std::string metrics_json;
      if (!control.QueryStats(stats, metrics_json, &err)) {
        std::fprintf(stderr, "loadgen: stats query failed: %s\n", err.c_str());
      }
      if (cfg.shutdown && !control.Shutdown(&err)) {
        std::fprintf(stderr, "loadgen: shutdown send failed: %s\n", err.c_str());
      }
    } else {
      std::fprintf(stderr, "loadgen: control connection failed: %s\n", err.c_str());
    }
  }

  // Offline verify: recompute the requested grid through Campaign::Run
  // (store disabled — a genuine recomputation, not a readback of the
  // daemon's own cache) and byte-compare serialized results.
  std::size_t verified = 0, mismatches = 0;
  if (cfg.verify && ok > 0) {
    std::fprintf(stderr, "loadgen: verifying against offline Campaign::Run...\n");
    const api::CampaignResults offline = campaign.Run();
    const std::size_t n_missions = campaign.fleet().size();
    auto offline_bytes = [&](std::size_t universe_index) {
      std::ostringstream os;
      if (universe_index < n_missions) {
        core::WriteMissionResult(os, offline.gold[universe_index]);
      } else {
        core::WriteMissionResult(os, offline.faulty[universe_index - n_missions]);
      }
      return os.str();
    };
    for (const auto& t : tallies) {
      for (const auto& [universe_index, bytes] : t.results) {
        ++verified;
        if (bytes != offline_bytes(universe_index)) ++mismatches;
      }
    }
    std::fprintf(stderr, "loadgen: verified %zu results, %zu mismatches\n",
                 verified, mismatches);
  }

  double mean = 0.0, max = 0.0;
  for (double v : latencies) {
    mean += v;
    max = std::max(max, v);
  }
  if (!latencies.empty()) mean /= static_cast<double>(latencies.size());
  const double p50 = core::Quantile(latencies, 0.50);
  const double p99 = core::Quantile(std::move(latencies), 0.99);
  const std::uint64_t dedup_hits = stats.store_hits + stats.singleflight;
  const double hit_rate =
      stats.completed > 0
          ? static_cast<double>(dedup_hits) / static_cast<double>(stats.completed)
          : 0.0;

  std::FILE* f = std::fopen(cfg.out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "loadgen: cannot write %s\n", cfg.out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"serve_latency\",\n"
               "  \"schema\": 1,\n"
               "  \"environment\": {\n"
               "    \"clients\": %d,\n"
               "    \"specs\": %d,\n"
               "    \"unique\": %zu,\n"
               "    \"batch\": %d,\n"
               "    \"missions\": %zu,\n"
               "    \"durations\": %zu,\n"
               "    \"spec_schema\": %u\n"
               "  },\n"
               "  \"requests\": {\n"
               "    \"sent\": %d,\n"
               "    \"ok\": %zu,\n"
               "    \"rejected\": %zu,\n"
               "    \"overloaded\": %zu\n"
               "  },\n"
               "  \"latency_ms\": {\n"
               "    \"p50\": %.3f,\n"
               "    \"p99\": %.3f,\n"
               "    \"mean\": %.3f,\n"
               "    \"max\": %.3f\n"
               "  },\n"
               "  \"throughput\": {\n"
               "    \"wall_s\": %.3f,\n"
               "    \"requests_per_sec\": %.3f\n"
               "  },\n"
               "  \"dedup\": {\n"
               "    \"computed\": %llu,\n"
               "    \"gold_computed\": %llu,\n"
               "    \"store_hits\": %llu,\n"
               "    \"singleflight\": %llu,\n"
               "    \"attached_seen\": %zu,\n"
               "    \"hit_rate\": %.4f\n"
               "  },\n"
               "  \"verified\": {\n"
               "    \"compared\": %zu,\n"
               "    \"mismatches\": %zu\n"
               "  }\n"
               "}\n",
               cfg.clients, cfg.specs, unique, cfg.batch, campaign.fleet().size(),
               cfg.grid.durations.size(), telemetry::kSpecSchemaVersion,
               cfg.specs, ok, rejected, overloaded, p50, p99, mean, max, wall_s,
               wall_s > 0.0 ? static_cast<double>(ok) / wall_s : 0.0,
               static_cast<unsigned long long>(stats.computed),
               static_cast<unsigned long long>(stats.gold_computed),
               static_cast<unsigned long long>(stats.store_hits),
               static_cast<unsigned long long>(stats.singleflight),
               attached, hit_rate, verified, mismatches);
  std::fclose(f);
  std::fprintf(stderr,
               "loadgen: %zu ok / %zu rejected, p50 %.1f ms, p99 %.1f ms, "
               "dedup hit rate %.1f%% -> %s\n",
               ok, rejected, p50, p99, 100.0 * hit_rate, cfg.out_path.c_str());

  if (client_failed) return 1;
  if (cfg.verify && mismatches > 0) return 1;
  return ok + rejected == static_cast<std::size_t>(cfg.specs) ? 0 : 1;
}

}  // namespace uavres::serve
