// The three workloads. Each sets up (several times, reporting the median),
// measures, checks its outputs against an oracle outside the timed region
// and, when traced, adds the per-layer numbers.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>

#include "bench.h"
#include "core/fault_model.h"
#include "uspace/fleet_experiment.h"

namespace perfbench {

using namespace uavres;

namespace {

constexpr int kSetupReps = 5;         // set-ups per run; the median is reported
constexpr int kMinReps = 3;           // measured campaign or fleet runs, at least
constexpr std::size_t kWarmUpFlights = 8;  // gold flights in a warm-up
constexpr int kHitsPerSecond = 80;    // serve_mixed warm requests per second asked
constexpr int kOracleSamples = 8;     // campaign results recomputed from scratch
constexpr int kProfileFaulty = 2;     // faulty specs in the vehicle profile

std::string WorkPath(const Options& opt, const std::string& name) {
  return (std::filesystem::path(opt.work_dir) / name).string();
}

/// Calls `rep` until `opt.seconds` have passed, and at least kMinReps times.
template <class Rep>
void Repeat(const Options& opt, Rep&& rep) {
  const auto t0 = Clock::now();
  for (int i = 0; i < kMinReps || SecondsSince(t0) < opt.seconds; ++i) rep();
}

/// A gold spec and its recorded trajectory, for faulty profile specs.
struct GoldReference {
  uav::ExperimentSpec spec;
  telemetry::Trajectory trajectory;
};

GoldReference RunGold(const core::DroneSpec& drone, int mission, std::uint64_t seed_base) {
  GoldReference g{{drone, mission, std::nullopt, seed_base, nullptr}, {}};
  g.trajectory = uav::SimulationRunner(uav::RunConfig{}).Run(g.spec).trajectory;
  return g;
}

/// The vehicle profile over `profile` (a traced vehicle that drifts from
/// uav::Uav fails the run), then the store round trips of its results.
void ProfileVehicleAndStore(const Options& opt, SpanRecorder& spans,
                            const std::vector<uav::ExperimentSpec>& profile, Outcome& o) {
  o.layers.vehicle = ProfileVehicle(profile, uav::RunConfig{}, spans);
  o.attempted += profile.size();
  if (!o.layers.vehicle.bit_identical()) {
    o.Fail(1, o.layers.vehicle.first_mismatch.empty() ? "vehicle profile: no specs"
                                                       : o.layers.vehicle.first_mismatch);
  }
  ProbeStore(profile, o.layers.vehicle.outputs, WorkPath(opt, "store-probe"), spans, o.layers, o);
}

/// The warm-up that ends a paper_grid or fleet_n100 set-up: the gold flights
/// of the first kWarmUpFlights drones, in parallel on Threads() like the
/// measured work, so that the set-up time averages over the same cores.
void WarmUp(const std::vector<core::DroneSpec>& drones, std::uint64_t seed_base) {
  std::vector<uav::ExperimentSpec> golds;
  for (std::size_t m = 0; m < drones.size() && golds.size() < kWarmUpFlights; ++m) {
    golds.push_back({drones[m], static_cast<int>(m), std::nullopt, seed_base, nullptr});
  }
  FromScratch(golds);
}

/// Median time of kSetupReps set-ups. Each is a fraction of a second of
/// steady work rather than microseconds that read differently from one
/// process to the next.
template <class SetUp>
double MedianSetUpS(SetUp&& set_up) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    set_up();
    samples.push_back(SecondsSince(t0));
  }
  return Median(samples);
}

std::string AllResultBytes(const core::CampaignResults& r) {
  std::string s;
  for (const auto& g : r.gold) s += ResultBytes(g);
  for (const auto& f : r.faulty) s += ResultBytes(f);
  return s;
}

}  // namespace

Outcome RunPaperGrid(const Options& opt, SpanRecorder& spans) {
  Outcome o;
  const int threads = Threads();
  const std::uint64_t base = SeedBase(opt.seed);
  // One repetition: a cold campaign over the first two missions of the
  // paper grid, every fault type, target and duration plus gold (170 runs).
  const core::CampaignConfig cfg = core::CampaignConfig::Builder()
                                       .SeedBase(base)
                                       .Missions(2)
                                       .Threads(threads)
                                       .CacheDir("")
                                       .Build();

  // Set-up: the scenario, the campaign over it, and a warm-up.
  std::optional<core::Campaign> campaign;
  o.setup_s = MedianSetUpS([&] {
    const std::vector<core::DroneSpec> scenario = core::BuildValenciaScenario();
    campaign.emplace(cfg);
    const std::vector<core::FaultSpec> grid = campaign->GridFaults();
    WarmUp(scenario, base);
  });

  std::vector<CampaignTiming> timed;
  std::vector<double> rate, step_rate, wall_ms, cpu, eff, gold_phase, tail;
  Repeat(opt, [&] {
    timed.push_back(TimeCampaign(*campaign, threads, spans));
    const CampaignTiming& t = timed.back();
    double steps = 0.0;
    for (const auto& g : t.results.gold) steps += ResultSteps(g);
    for (const auto& f : t.results.faulty) steps += ResultSteps(f);
    rate.push_back(static_cast<double>(t.results.TotalRuns()) / t.wall_s);
    step_rate.push_back(steps / t.wall_s);
    wall_ms.push_back(1e3 * t.wall_s);
    cpu.push_back(t.cpu_s);
    eff.push_back(ParallelEff(t.cpu_s, threads, t.wall_s));
    o.rep_wall_s.push_back(t.wall_s);
    gold_phase.push_back(t.gold_phase_s);
    tail.push_back(t.tail_s);
  });
  o.peak_rss_mb = PeakRssMb();
  o.results_per_s = Median(rate);
  o.steps_per_s = Median(step_rate);
  o.p50_ms = Percentile(wall_ms, 0.50);
  o.p99_ms = Percentile(wall_ms, 0.99);
  o.latency_samples = wall_ms.size();

  // Oracle: every repetition gives the same bytes, and every gold run plus a
  // seeded sample of faulty runs equals a from-scratch run of its spec.
  const core::CampaignResults& r = timed.front().results;
  const std::string first = AllResultBytes(r);
  for (const CampaignTiming& t : timed) {
    o.attempted += t.results.TotalRuns();
    if (&t != &timed.front() && AllResultBytes(t.results) != first) {
      o.Fail(t.results.TotalRuns(), "campaign repetition differs from the first");
    }
  }
  const std::vector<core::FaultSpec> grid = campaign->GridFaults();
  const auto& fleet = campaign->fleet();
  std::mt19937_64 rng(opt.seed);
  std::vector<std::size_t> faulty(r.faulty.size());
  for (std::size_t j = 0; j < faulty.size(); ++j) faulty[j] = j;
  std::shuffle(faulty.begin(), faulty.end(), rng);
  faulty.resize(std::min<std::size_t>(kOracleSamples, faulty.size()));
  const auto faulty_spec = [&](std::size_t j) {
    const std::size_t m = j / grid.size();
    return uav::ExperimentSpec{fleet[m], static_cast<int>(m), grid[j % grid.size()], base,
                               &r.gold_trajectories[m]};
  };
  std::vector<uav::ExperimentSpec> specs;
  std::vector<const core::MissionResult*> got;
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    specs.push_back({fleet[m], static_cast<int>(m), std::nullopt, base, nullptr});
    got.push_back(&r.gold[m]);
  }
  for (std::size_t j : faulty) {
    specs.push_back(faulty_spec(j));
    got.push_back(&r.faulty[j]);
  }
  const std::vector<core::MissionResult> expected = FromScratch(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (ResultBytes(*got[i]) != ResultBytes(expected[i])) {
      std::ostringstream os;
      os << "campaign result differs from a from-scratch run: " << specs[i];
      o.Fail(1, os.str());
    }
  }

  if (opt.trace) {
    Layers& l = o.layers;
    l.cpu_s = Median(cpu);
    l.parallel_eff = Median(eff);
    l.gold_phase_s = Median(gold_phase);
    l.tail_s = Median(tail);
    std::vector<uav::ExperimentSpec> profile{specs.front()};
    for (int k = 0; k < kProfileFaulty && k < static_cast<int>(faulty.size()); ++k) {
      profile.push_back(faulty_spec(faulty[static_cast<std::size_t>(k)]));
    }
    ProfileVehicleAndStore(opt, spans, profile, o);
    ProbeServe(WorkPath(opt, "serve-probe"), base, spans, l, o);
    ProbeFleet(base, spans, l, o);
  }
  return o;
}

Outcome RunFleet(const Options& opt, SpanRecorder& spans) {
  Outcome o;
  const int threads = Threads();
  const std::uint64_t base = SeedBase(opt.seed);
  // The EXPERIMENTS.md convoy:
  //   uavres fleet --drones 100 --leg 600 --fault acc:fixed:30 --faulted-drone 5
  core::FleetExperimentSpec spec;
  spec.num_drones = 100;
  spec.leg_length_m = 600.0;
  spec.fault = core::FaultSpec{core::FaultType::kFixed, core::FaultTarget::kAccelerometer,
                               core::kInjectionStartS, 30.0, 1.0};
  spec.faulted_drone = 5;
  spec.seed_base = base;

  // Set-up: the convoy scenario, the runner configured for it, and a warm-up.
  o.setup_s = MedianSetUpS([&] {
    const std::vector<core::DroneSpec> fleet = uspace::BuildFleetScenario(spec);
    uspace::FleetExecutionKnobs knobs;
    knobs.num_threads = threads;
    const uspace::FleetRunner runner(uspace::MakeFleetRunConfig(spec, knobs));
    WarmUp(fleet, base);
  });

  std::vector<FleetTiming> timed;
  std::vector<double> rate, step_rate, wall_ms, wall_s, cpu, eff;
  Repeat(opt, [&] {
    timed.push_back(TimeFleet(spec, threads, spans));
    const FleetTiming& f = timed.back();
    rate.push_back(static_cast<double>(f.record.drones.size()) / f.wall_s);
    step_rate.push_back(f.drone_steps / f.wall_s);
    wall_ms.push_back(1e3 * f.wall_s);
    wall_s.push_back(f.wall_s);
    o.rep_wall_s.push_back(f.wall_s);
    cpu.push_back(f.cpu_s);
    eff.push_back(ParallelEff(f.cpu_s, threads, f.wall_s));
  });
  o.peak_rss_mb = PeakRssMb();
  o.results_per_s = Median(rate);
  o.steps_per_s = Median(step_rate);
  o.p50_ms = Percentile(wall_ms, 0.50);
  o.p99_ms = Percentile(wall_ms, 0.99);
  o.latency_samples = wall_ms.size();

  // Oracle: the same experiment on one thread, byte for byte.
  const FleetTiming reference = TimeFleet(spec, 1, spans);
  for (const FleetTiming& f : timed) {
    o.attempted += f.record.drones.size();
    if (f.bytes != reference.bytes) {
      o.Fail(f.record.drones.size(), "fleet record differs from the one-thread run");
    }
  }

  if (opt.trace) {
    Layers& l = o.layers;
    l.cpu_s = Median(cpu);
    l.parallel_eff = Median(eff);
    l.fleet_1t_s = reference.wall_s;
    l.scaling_eff = ScalingEff(reference.wall_s, Median(wall_s), threads);
    l.pairs_evaluated = timed.front().pairs_evaluated;
    l.reports_published = timed.front().reports_published;
    // The faulted drone, flown alone, with and without its fault.
    const std::vector<core::DroneSpec> fleet = uspace::BuildFleetScenario(spec);
    const int k = spec.faulted_drone;
    const core::DroneSpec& drone = fleet[static_cast<std::size_t>(k)];
    const GoldReference gold = RunGold(drone, k, base);
    const std::vector<uav::ExperimentSpec> profile{
        gold.spec, {drone, k, spec.fault, base, &gold.trajectory}};
    ProfileVehicleAndStore(opt, spans, profile, o);
    ProbeServe(WorkPath(opt, "serve-probe"), base, spans, l, o);
    ProbeCampaign(base, spans, l);
  }
  return o;
}

Outcome RunServe(const Options& opt, SpanRecorder& spans) {
  Outcome o;
  const int threads = Threads();
  const std::uint64_t base = SeedBase(opt.seed);

  // One mission: every fault type and target warm at 5 s, and cold at each
  // of the grid's other durations. The seed sets the experiments' seed base
  // and the request order.
  constexpr int mission = 0;
  constexpr double kWarmDurationS = 5.0;
  const core::DroneSpec& drone = core::SharedValenciaScenario()[mission];
  std::vector<uav::ExperimentSpec> warm, cold;
  for (double duration : core::kInjectionDurations) {
    for (core::FaultTarget target : core::kAllFaultTargets) {
      for (core::FaultType type : core::kAllFaultTypes) {
        (duration == kWarmDurationS ? warm : cold)
            .push_back({drone, mission,
                        core::FaultSpec{type, target, core::kInjectionStartS, duration, 1.0},
                        base, nullptr});
      }
    }
  }
  const uav::ExperimentSpec gold{drone, mission, std::nullopt, base, nullptr};

  // The request plan: every warm spec `repeats` times, every cold spec once,
  // in seeded order. Index u < warm.size() is warm spec u, else cold.
  const std::size_t hits = static_cast<std::size_t>(kHitsPerSecond) *
                           static_cast<std::size_t>(opt.seconds);
  const std::size_t repeats = (hits + warm.size() - 1) / warm.size();
  std::vector<std::size_t> plan;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t u = 0; u < warm.size(); ++u) plan.push_back(u);
  }
  for (std::size_t u = 0; u < cold.size(); ++u) plan.push_back(warm.size() + u);
  std::mt19937_64 rng(opt.seed);
  std::shuffle(plan.begin(), plan.end(), rng);
  const auto unique_spec = [&](std::size_t u) -> const uav::ExperimentSpec& {
    return u < warm.size() ? warm[u] : cold[u - warm.size()];
  };

  // The oracle's offline results, computed before anything is timed. The
  // pre-warm asks for the longest warm flights first, so that how the
  // daemon's workers happen to pick them up barely moves the set-up time.
  std::vector<uav::ExperimentSpec> unique(warm);
  unique.insert(unique.end(), cold.begin(), cold.end());
  const std::vector<core::MissionResult> expected = FromScratch(unique);
  std::vector<std::string> expected_bytes;
  for (const auto& e : expected) expected_bytes.push_back(ResultBytes(e));
  std::vector<std::size_t> longest_first(warm.size());
  for (std::size_t u = 0; u < warm.size(); ++u) longest_first[u] = u;
  std::stable_sort(longest_first.begin(), longest_first.end(), [&](std::size_t a, std::size_t b) {
    return expected[a].flight_duration_s > expected[b].flight_duration_s;
  });

  // Set-up: start the daemon, connect the clients, pre-warm the store.
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupReps; ++k) {
    daemon.reset();
    const std::string dir = WorkPath(opt, "serve-store");
    std::filesystem::remove_all(dir);
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(dir, threads, threads);
    if (!daemon->ok()) {
      o.Fail(1, daemon->error());
      return o;
    }
    std::vector<telemetry::WireSpec> prewarm{ToWire(gold)};
    for (std::size_t u : longest_first) prewarm.push_back(ToWire(warm[u]));
    std::vector<serve::Client::Outcome> out;
    std::string err;
    if (!daemon->client(0).SubmitAndWait(prewarm, out, &err) || out.size() != prewarm.size() ||
        !std::all_of(out.begin(), out.end(), [](const auto& x) { return x.ok; })) {
      o.Fail(1, "serve: pre-warm failed " + err);
      return o;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  o.setup_s = Median(setup_s);

  // Measure: `threads` closed-loop clients; each takes the next request of
  // the plan and waits for its reply before taking another.
  struct Reply {
    bool done{false};
    serve::Client::Outcome out;
    std::string error;
  };
  std::vector<Reply> replies(plan.size());
  telemetry::ServeStats before, after;
  std::string metrics_json, err;
  if (!daemon->client(0).QueryStats(before, metrics_json, &err)) o.Fail(1, "serve: stats " + err);
  const double cpu0 = ProcessCpuS();
  const auto t0 = Clock::now();
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < threads; ++c) {
      clients.emplace_back([&, c] {
        serve::Client& client = daemon->client(static_cast<std::size_t>(c));
        for (std::size_t i = next++; i < plan.size(); i = next++) {
          std::vector<serve::Client::Outcome> out;
          std::string error;
          const std::uint64_t span = spans.Begin("serve.request", 0, i + 1);
          const bool sent = client.SubmitAndWait({ToWire(unique_spec(plan[i]))}, out, &error);
          spans.End(span);
          if (!sent || out.size() != 1) {
            replies[i].error = "transport: " + error;
            return;  // this connection is unusable; the others take the rest
          }
          replies[i].out = std::move(out[0]);
          replies[i].done = true;
        }
      });
    }
    for (auto& c : clients) c.join();
  }
  const double wall = SecondsSince(t0);
  const double cpu = ProcessCpuS() - cpu0;
  o.peak_rss_mb = PeakRssMb();
  if (!daemon->client(0).QueryStats(after, metrics_json, &err)) o.Fail(1, "serve: stats " + err);
  if (opt.trace) {
    std::vector<double> rtt_us;
    telemetry::ServeStats scratch;
    for (int i = 0; i < 20; ++i) {
      const SpanRecorder::Scope span(spans, "serve.stats");
      const auto s0 = Clock::now();
      if (!daemon->client(0).QueryStats(scratch, metrics_json, &err)) break;
      rtt_us.push_back(1e6 * SecondsSince(s0));
    }
    o.layers.stats_rtt_us = Median(rtt_us);
  }
  daemon.reset();
  std::filesystem::remove_all(WorkPath(opt, "serve-store"));

  // Oracle: every reply against the offline result of its spec; warm specs
  // must come back without a simulation, cold ones from one.
  std::vector<double> all_ms, hit_ms, miss_ms;
  double steps = 0.0;
  o.attempted = plan.size();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Reply& rep = replies[i];
    const bool is_warm = plan[i] < warm.size();
    if (!rep.done) {
      o.Fail(1, rep.error.empty() ? "transport: no reply" : rep.error);
      continue;
    }
    if (!rep.out.ok) {
      o.Fail(1, rep.out.reject == telemetry::RejectReason::kRejectedOverload
                    ? "rejected: overload"
                    : "rejected: " + rep.out.reject_detail);
      continue;
    }
    const bool computed = rep.out.source == telemetry::ResultSource::kComputed;
    if (rep.out.result_bytes != expected_bytes[plan[i]]) {
      o.Fail(1, "reply differs from the offline result");
      continue;
    }
    if (computed == is_warm) {
      o.Fail(1, is_warm ? "warm spec was simulated again" : "cold spec was not simulated");
      continue;
    }
    all_ms.push_back(rep.out.latency_ms);
    (computed ? miss_ms : hit_ms).push_back(rep.out.latency_ms);
    if (computed) steps += ResultSteps(rep.out.result);
  }
  o.results_per_s = static_cast<double>(all_ms.size()) / wall;
  o.steps_per_s = steps / wall;
  o.p50_ms = Percentile(all_ms, 0.50);
  o.p99_ms = Percentile(all_ms, 0.99);
  o.latency_samples = all_ms.size();

  if (opt.trace) {
    Layers& l = o.layers;
    l.cpu_s = cpu;
    l.parallel_eff = ParallelEff(cpu, threads, wall);
    l.hit_p50_ms = Median(hit_ms);
    l.miss_p50_ms = Median(miss_ms);
    l.store_hits = after.store_hits - before.store_hits;
    l.computed =
        (after.computed + after.gold_computed) - (before.computed + before.gold_computed);
    l.attached = after.singleflight - before.singleflight;
    const GoldReference ref = RunGold(drone, mission, base);
    std::vector<uav::ExperimentSpec> profile{ref.spec};
    for (int k = 0; k < kProfileFaulty; ++k) {
      profile.push_back(cold[static_cast<std::size_t>(k) * cold.size() / kProfileFaulty]);
      profile.back().gold = &ref.trajectory;
    }
    ProfileVehicleAndStore(opt, spans, profile, o);
    ProbeFleet(base, spans, l, o);
    ProbeCampaign(base, spans, l);
  }
  return o;
}

}  // namespace perfbench
