// Shared types of the benchmark: options, the per-run outcome, the
// per-layer report, and the layer probes every workload can call.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/fleet.h"
#include "serve/client.h"
#include "serve/server.h"
#include "spans.h"
#include "stats.h"
#include "telemetry/fleet_codec.h"
#include "vehicle_profile.h"

namespace perfbench {

/// Worker threads, daemon workers and client connections: the benchmark
/// never uses more than this, nor more than the machine has.
int Threads();

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  int seconds{10};
  bool trace{false};
  std::string work_dir{".bench_build/perfbench/work"};
};

/// Per-layer numbers of one traced run (see README.md for the layer map).
struct Layers {
  VehicleProfile vehicle;
  double cpu_s{0.0};
  double parallel_eff{0.0};
  double gold_phase_s{0.0};
  double tail_s{0.0};
  double store_load_us{0.0};
  double store_put_us{0.0};
  double store_entry_bytes{0.0};
  double stats_rtt_us{0.0};
  double hit_p50_ms{0.0};
  double miss_p50_ms{0.0};
  std::uint64_t store_hits{0};
  std::uint64_t computed{0};
  std::uint64_t attached{0};
  double fleet_1t_s{0.0};
  double scaling_eff{0.0};
  std::int64_t pairs_evaluated{0};
  std::int64_t reports_published{0};
};

/// Everything one run of a workload measured.
struct Outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;  ///< what failed (first few)

  double setup_s{0.0};
  double peak_rss_mb{0.0};
  double results_per_s{0.0};
  double steps_per_s{0.0};
  double p50_ms{0.0};
  double p99_ms{0.0};
  std::size_t latency_samples{0};
  std::vector<double> rep_wall_s;  ///< wall time of each measured repetition

  Layers layers;

  void Fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (errors.size() < 8) errors.push_back(why);
  }
};

std::vector<Metric> EndToEndMetrics(const Outcome& o);
std::vector<Metric> LayerMetrics(const Layers& l);

// --- helpers -------------------------------------------------------------

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point t0);
double ProcessCpuS();
double PeakRssMb();
/// The experiments' seed base for a benchmark seed.
std::uint64_t SeedBase(std::uint64_t seed);
/// core::WriteMissionResult bytes: the comparison form of a result.
std::string ResultBytes(const uavres::core::MissionResult& r);
/// Simulated control steps of a result (flight time over the control period).
double ResultSteps(const uavres::core::MissionResult& r);

// --- timed layer calls and probes -----------------------------------------

/// One Campaign::Run with its progress timeline.
struct CampaignTiming {
  uavres::core::CampaignResults results;
  double wall_s{0.0};
  double cpu_s{0.0};
  double gold_phase_s{0.0};        ///< start -> last gold result
  double tail_s{0.0};              ///< first idle worker -> last result
};
CampaignTiming TimeCampaign(const uavres::core::Campaign& campaign, int threads,
                            SpanRecorder& spans);

/// One FleetRunner::Run and its serialized record.
struct FleetTiming {
  uavres::telemetry::FleetRecord record;
  std::string bytes;
  double wall_s{0.0};
  double cpu_s{0.0};
  double drone_steps{0.0};
  std::int64_t pairs_evaluated{0};
  std::int64_t reports_published{0};
};
FleetTiming TimeFleet(const uavres::core::FleetExperimentSpec& spec, int threads,
                      SpanRecorder& spans);

/// Campaign-recipe results of `specs` computed from scratch with
/// SimulationRunner::Run, in parallel. Faulty specs are referenced against a
/// from-scratch gold run of their mission (`specs[i].gold` is ignored).
std::vector<uavres::core::MissionResult> FromScratch(
    const std::vector<uavres::uav::ExperimentSpec>& specs);

/// An in-process `uavres serve` daemon on an ephemeral loopback port with
/// `clients` connected blocking clients. Stops and joins on destruction.
class Daemon {
 public:
  Daemon(const std::string& cache_dir, int workers, int clients);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  uavres::serve::Client& client(std::size_t i) { return *clients_[i]; }

 private:
  std::unique_ptr<uavres::serve::Server> server_;
  std::thread loop_;
  std::vector<std::unique_ptr<uavres::serve::Client>> clients_;
  std::string error_;
};

/// The wire form of an experiment spec.
uavres::telemetry::WireSpec ToWire(const uavres::uav::ExperimentSpec& spec);

/// ResultStore::Store / Load round trips of the profile's outputs.
void ProbeStore(const std::vector<uavres::uav::ExperimentSpec>& specs,
                const std::vector<uavres::uav::RunOutput>& outputs, const std::string& dir,
                SpanRecorder& spans, Layers& layers, Outcome& outcome);

/// A small in-process daemon: one miss, one hit and QueryStats round trips.
void ProbeServe(const std::string& dir, std::uint64_t seed_base, SpanRecorder& spans,
                Layers& layers, Outcome& outcome);

/// A small convoy at one thread and at Threads().
void ProbeFleet(std::uint64_t seed_base, SpanRecorder& spans, Layers& layers,
                Outcome& outcome);

/// A one-mission, one-duration campaign: the gold-phase barrier and tail.
void ProbeCampaign(std::uint64_t seed_base, SpanRecorder& spans, Layers& layers);

// --- workloads ------------------------------------------------------------

Outcome RunPaperGrid(const Options& opt, SpanRecorder& spans);
Outcome RunFleet(const Options& opt, SpanRecorder& spans);
Outcome RunServe(const Options& opt, SpanRecorder& spans);

}  // namespace perfbench
