// Helpers, timed layer calls and the small layer probes a traced run uses
// for the layers its workload does not exercise.
#include <algorithm>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.h"
#include "core/result_store.h"
#include "core/scheduler.h"
#include "uspace/fleet_experiment.h"

namespace perfbench {

using namespace uavres;

int Threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuS() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so it would report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return std::nan("");
}

std::uint64_t SeedBase(std::uint64_t seed) {
  // SplitMix64 finalizer: neighbouring benchmark seeds give unrelated bases.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string ResultBytes(const core::MissionResult& r) {
  std::ostringstream os;
  core::WriteMissionResult(os, r);
  return os.str();
}

double ResultSteps(const core::MissionResult& r) {
  return r.flight_duration_s * uav::UavConfig{}.control_rate_hz;
}

telemetry::WireSpec ToWire(const uav::ExperimentSpec& spec) {
  telemetry::WireSpec w;
  w.mission_index = spec.mission_index;
  w.seed_base = spec.seed_base;
  w.has_fault = spec.fault.has_value();
  if (spec.fault) {
    w.fault_type = static_cast<std::uint8_t>(spec.fault->type);
    w.fault_target = static_cast<std::uint8_t>(spec.fault->target);
    w.start_time_s = spec.fault->start_time_s;
    w.duration_s = spec.fault->duration_s;
    w.magnitude = spec.fault->magnitude;
  }
  return w;
}

std::vector<Metric> EndToEndMetrics(const Outcome& o) {
  return {{"setup_s", "s", o.setup_s},
          {"peak_rss_mb", "MB", o.peak_rss_mb},
          {"results_per_s", "1/s", o.results_per_s},
          {"steps_per_s", "1/s", o.steps_per_s},
          {"p50_ms", "ms", o.p50_ms},
          {"p99_ms", "ms", o.p99_ms}};
}

std::vector<Metric> LayerMetrics(const Layers& l) {
  const VehicleProfile& v = l.vehicle;
  std::vector<Metric> m{{"uav.step_ns", "ns", v.step_ns},
                        {"uav.traced_step_ns", "ns", v.traced_step_ns},
                        {"trace.overhead_ns", "ns", v.tracing_overhead_ns}};
  for (int i = 0; i < kModules; ++i) m.push_back({kModuleMetricNames[i], "ns", v.module_ns[i]});
  const std::vector<Metric> rest{
      {"bus.dispatch_ns", "ns", v.dispatch_ns},
      {"uav.harness_ns", "ns", v.harness_ns},
      {"core.cpu_s", "s", l.cpu_s},
      {"core.parallel_eff", "ratio", l.parallel_eff},
      {"core.gold_phase_s", "s", l.gold_phase_s},
      {"core.tail_s", "s", l.tail_s},
      {"core.store_load_us", "us", l.store_load_us},
      {"core.store_put_us", "us", l.store_put_us},
      {"core.store_entry_bytes", "bytes", l.store_entry_bytes},
      {"serve.stats_rtt_us", "us", l.stats_rtt_us},
      {"serve.hit_p50_ms", "ms", l.hit_p50_ms},
      {"serve.miss_p50_ms", "ms", l.miss_p50_ms},
      {"serve.store_hits", "count", static_cast<double>(l.store_hits)},
      {"serve.computed", "count", static_cast<double>(l.computed)},
      {"serve.attached", "count", static_cast<double>(l.attached)},
      {"uspace.fleet_1t_s", "s", l.fleet_1t_s},
      {"uspace.scaling_eff", "ratio", l.scaling_eff},
      {"uspace.pairs_evaluated", "count", static_cast<double>(l.pairs_evaluated)},
      {"uspace.reports_published", "count", static_cast<double>(l.reports_published)}};
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

CampaignTiming TimeCampaign(const core::Campaign& campaign, int threads, SpanRecorder& spans) {
  const std::size_t n_gold = campaign.fleet().size();
  const std::size_t total = n_gold * (1 + campaign.GridFaults().size());
  // Each completion count is handed to exactly one callback, so every slot
  // has one writer; Run() joins its workers before returning.
  std::vector<double> stamps(total, 0.0);
  CampaignTiming t;
  {
    const SpanRecorder::Scope span(spans, "core.campaign_run");
    const double cpu0 = ProcessCpuS();
    const auto t0 = Clock::now();
    t.results = campaign.Run([&](std::size_t done, std::size_t) {
      if (done >= 1 && done <= total) stamps[done - 1] = SecondsSince(t0);
    });
    t.wall_s = SecondsSince(t0);
    t.cpu_s = ProcessCpuS() - cpu0;
  }
  // Gold runs are the first n_gold completions (phase 1 ends before any
  // faulty run starts). Once the (total - threads + 1)-th run completes, its
  // worker finds no work left: from there on at least one thread idles.
  t.gold_phase_s = *std::max_element(stamps.begin(), stamps.begin() + n_gold);
  const double last = *std::max_element(stamps.begin(), stamps.end());
  const std::size_t idle = total > static_cast<std::size_t>(threads)
                               ? total - static_cast<std::size_t>(threads)
                               : 0;
  t.tail_s = last - stamps[idle];
  return t;
}

namespace {

std::string FleetRecordBytes(const telemetry::FleetRecord& r) {
  std::ostringstream os;
  telemetry::WriteFleetRecord(os, r);
  return os.str();
}

}  // namespace

FleetTiming TimeFleet(const core::FleetExperimentSpec& spec, int threads, SpanRecorder& spans) {
  const std::vector<core::DroneSpec> fleet = uspace::BuildFleetScenario(spec);
  uspace::FleetExecutionKnobs knobs;
  knobs.num_threads = threads;
  const uspace::FleetRunner runner(uspace::MakeFleetRunConfig(spec, knobs));
  FleetTiming t;
  uspace::FleetRunOutput out;
  {
    const SpanRecorder::Scope span(spans, threads == 1 ? "uspace.fleet_run_1t"
                                                       : "uspace.fleet_run");
    const double cpu0 = ProcessCpuS();
    const auto t0 = Clock::now();
    out = runner.Run(fleet, spec.seed_base);
    t.wall_s = SecondsSince(t0);
    t.cpu_s = ProcessCpuS() - cpu0;
  }
  t.record = uspace::ToFleetRecord(spec, out);
  t.bytes = FleetRecordBytes(t.record);
  const double rate_hz = uav::UavConfig{}.control_rate_hz;
  for (const auto& d : out.drones) t.drone_steps += d.flight_duration_s * rate_hz;
  t.pairs_evaluated = out.conflicts.pairs_evaluated;
  t.reports_published = out.reports_published;
  return t;
}

std::vector<core::MissionResult> FromScratch(const std::vector<uav::ExperimentSpec>& specs) {
  // Gold references first: one per (mission, seed base) the specs use.
  std::map<std::pair<int, std::uint64_t>, std::size_t> gold_index;
  std::vector<uav::ExperimentSpec> golds;
  for (const auto& s : specs) {
    const auto key = std::make_pair(s.mission_index, s.seed_base);
    if (gold_index.emplace(key, golds.size()).second) {
      golds.push_back({s.drone, s.mission_index, std::nullopt, s.seed_base, nullptr});
    }
  }
  core::SchedulerOptions sched;
  sched.num_threads = Threads();
  std::vector<uav::RunOutput> gold_out(golds.size());
  core::ParallelFor(
      golds.size(),
      [&](std::size_t i) { gold_out[i] = uav::SimulationRunner(uav::RunConfig{}).Run(golds[i]); },
      sched);

  std::vector<core::MissionResult> results(specs.size());
  core::ParallelFor(
      specs.size(),
      [&](std::size_t i) {
        uav::ExperimentSpec s = specs[i];
        const std::size_t g = gold_index.at({s.mission_index, s.seed_base});
        if (s.IsGold()) {
          results[i] = gold_out[g].result;
          return;
        }
        s.gold = &gold_out[g].trajectory;
        results[i] = uav::SimulationRunner(RecipeFor(s, uav::RunConfig{})).Run(s).result;
      },
      sched);
  return results;
}

Daemon::Daemon(const std::string& cache_dir, int workers, int clients) {
  serve::ServerConfig cfg;
  cfg.port = 0;  // ephemeral
  cfg.num_threads = workers;
  cfg.cache_dir = cache_dir;
  server_ = std::make_unique<serve::Server>(cfg);
  if (!server_->Start(&error_)) {
    if (error_.empty()) error_ = "serve: start failed";
    return;
  }
  loop_ = std::thread([this] { server_->Run(); });
  for (int c = 0; c < clients; ++c) {
    serve::Client::Options copts;
    copts.port = server_->port();
    copts.name = "perfbench-" + std::to_string(c);
    clients_.push_back(std::make_unique<serve::Client>(copts));
    std::string err;
    if (!clients_.back()->Connect(&err)) {
      error_ = "serve: connect failed: " + err;
      return;
    }
  }
}

Daemon::~Daemon() {
  clients_.clear();  // close our ends first so the handlers see EOF
  server_->Stop();
  if (loop_.joinable()) loop_.join();
}

void ProbeStore(const std::vector<uav::ExperimentSpec>& specs,
                const std::vector<uav::RunOutput>& outputs, const std::string& dir,
                SpanRecorder& spans, Layers& layers, Outcome& outcome) {
  constexpr int kReps = 10;
  std::filesystem::remove_all(dir);
  core::ResultStore store(dir);
  std::vector<double> put_us, load_us;
  double bytes = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const bool gold = specs[i].IsGold();
      const std::uint64_t key =
          core::ExperimentCacheKey(RecipeFor(specs[i], uav::RunConfig{}), specs[i]);
      core::StoredRun run{outputs[i].result, std::nullopt};
      if (gold) run.trajectory = outputs[i].trajectory;

      const std::uint64_t put_span = spans.Begin("core.store_put", 0, i + 1);
      auto t0 = Clock::now();
      const bool stored = store.Store(key, run);
      put_us.push_back(1e6 * SecondsSince(t0));
      spans.End(put_span);

      const std::uint64_t load_span = spans.Begin("core.store_load", 0, i + 1);
      t0 = Clock::now();
      const auto loaded = store.Load(key, gold);
      load_us.push_back(1e6 * SecondsSince(t0));
      spans.End(load_span);

      ++outcome.attempted;
      if (!stored || !loaded || ResultBytes(loaded->result) != ResultBytes(run.result) ||
          (gold && loaded->trajectory->Size() != run.trajectory->Size())) {
        outcome.Fail(1, "store probe: entry did not round-trip");
      }
      if (rep == 0) bytes += static_cast<double>(std::filesystem::file_size(store.EntryPath(key)));
    }
  }
  layers.store_put_us = Median(put_us);
  layers.store_load_us = Median(load_us);
  layers.store_entry_bytes = specs.empty() ? 0.0 : bytes / static_cast<double>(specs.size());
  std::filesystem::remove_all(dir);
}

void ProbeServe(const std::string& dir, std::uint64_t seed_base, SpanRecorder& spans,
                Layers& layers, Outcome& outcome) {
  constexpr int kStatsRoundTrips = 20;
  std::filesystem::remove_all(dir);
  {
    Daemon daemon(dir, 1, 1);
    if (!daemon.ok()) {
      outcome.Fail(1, daemon.error());
      return;
    }
    serve::Client& client = daemon.client(0);
    const auto& fleet = core::SharedValenciaScenario();
    const uav::ExperimentSpec gold{fleet[0], 0, std::nullopt, seed_base, nullptr};
    const std::vector<telemetry::WireSpec> request{ToWire(gold)};
    std::vector<std::string> bytes;
    for (const auto expected :
         {telemetry::ResultSource::kComputed, telemetry::ResultSource::kStoreHit}) {
      std::vector<serve::Client::Outcome> out;
      std::string err;
      ++outcome.attempted;
      const SpanRecorder::Scope span(spans, "serve.request");
      if (!client.SubmitAndWait(request, out, &err) || out.size() != 1 || !out[0].ok ||
          out[0].source != expected) {
        outcome.Fail(1, "serve probe: request failed " + err);
        return;
      }
      (expected == telemetry::ResultSource::kComputed ? layers.miss_p50_ms
                                                      : layers.hit_p50_ms) = out[0].latency_ms;
      bytes.push_back(out[0].result_bytes);
    }
    if (bytes[0] != bytes[1]) outcome.Fail(1, "serve probe: hit differs from miss");

    std::vector<double> rtt_us;
    telemetry::ServeStats stats;
    for (int i = 0; i < kStatsRoundTrips; ++i) {
      std::string metrics_json, err;
      const SpanRecorder::Scope span(spans, "serve.stats");
      const auto t0 = Clock::now();
      if (!client.QueryStats(stats, metrics_json, &err)) {
        outcome.Fail(1, "serve probe: stats failed " + err);
        return;
      }
      rtt_us.push_back(1e6 * SecondsSince(t0));
    }
    layers.stats_rtt_us = Median(rtt_us);
    layers.store_hits = stats.store_hits;
    layers.computed = stats.computed + stats.gold_computed;
    layers.attached = stats.singleflight;
  }
  std::filesystem::remove_all(dir);
}

void ProbeFleet(std::uint64_t seed_base, SpanRecorder& spans, Layers& layers,
                Outcome& outcome) {
  core::FleetExperimentSpec spec;
  spec.num_drones = 8;
  spec.leg_length_m = 600.0;
  spec.seed_base = seed_base;
  spec.fault = core::FaultSpec{core::FaultType::kFixed, core::FaultTarget::kAccelerometer,
                               core::kInjectionStartS, 30.0, 1.0};
  spec.faulted_drone = 5;
  const FleetTiming one = TimeFleet(spec, 1, spans);
  const FleetTiming many = TimeFleet(spec, Threads(), spans);
  ++outcome.attempted;
  if (one.bytes != many.bytes) outcome.Fail(1, "fleet probe: thread counts disagree");
  layers.fleet_1t_s = one.wall_s;
  layers.scaling_eff = ScalingEff(one.wall_s, many.wall_s, Threads());
  layers.pairs_evaluated = many.pairs_evaluated;
  layers.reports_published = many.reports_published;
}

void ProbeCampaign(std::uint64_t seed_base, SpanRecorder& spans, Layers& layers) {
  const core::Campaign campaign(core::CampaignConfig::Builder()
                                    .SeedBase(seed_base)
                                    .Missions(1)
                                    .Durations({2.0})
                                    .Threads(Threads())
                                    .CacheDir("")
                                    .Build());
  const CampaignTiming t = TimeCampaign(campaign, Threads(), spans);
  layers.gold_phase_s = t.gold_phase_s;
  layers.tail_s = t.tail_s;
}

}  // namespace perfbench
