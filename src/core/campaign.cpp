#include "core/campaign.h"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/scheduler.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"

namespace uavres::core {

namespace {

/// Campaign-level tallies cover every result — computed AND cache-loaded —
/// so the metrics JSON matches the reported run/outcome totals exactly.
void CountCampaignResult(const MissionResult& r) {
  UAVRES_COUNT("campaign.runs");
  switch (r.outcome) {
    case MissionOutcome::kCompleted:
      UAVRES_COUNT("campaign.outcome.completed");
      break;
    case MissionOutcome::kCrashed:
      UAVRES_COUNT("campaign.outcome.crashed");
      break;
    case MissionOutcome::kFailsafe:
      UAVRES_COUNT("campaign.outcome.failsafe");
      break;
    case MissionOutcome::kTimeout:
      UAVRES_COUNT("campaign.outcome.timeout");
      break;
  }
}

void WarnIneffectiveEnv(const char* name, const std::string& why) {
  std::cerr << "uavres: warning: " << name << " is set but has no effect (" << why
            << ")\n";
}

/// `base` as the grid runs `spec`: a faulty run only needs its metrics, so
/// it records no trajectory (bounding memory; part of its key).
uav::RunConfig HarnessFor(const uav::RunConfig& base, const uav::ExperimentSpec& spec) {
  uav::RunConfig run = base;
  if (!spec.IsGold()) run.record_trajectory = false;
  return run;
}

}  // namespace

CampaignConfig CampaignConfig::FromEnvironment() {
  CampaignConfig cfg;
  if (const char* fast = std::getenv("UAVRES_FAST")) {
    if (fast[0] != '0') {
      cfg.mission_limit = 3;
    } else {
      WarnIneffectiveEnv("UAVRES_FAST", "value '0' disables it; unset it instead");
    }
  }
  if (const char* missions = std::getenv("UAVRES_MISSIONS")) {
    const int limit = std::atoi(missions);
    if (limit > 0) {
      cfg.mission_limit = limit;
    } else {
      WarnIneffectiveEnv("UAVRES_MISSIONS",
                         "expects a positive mission count, got '" +
                             std::string(missions) + "'");
    }
  }
  if (const char* threads = std::getenv("UAVRES_THREADS")) {
    const int n = std::atoi(threads);
    if (n > 0) {
      cfg.num_threads = n;
    } else {
      WarnIneffectiveEnv("UAVRES_THREADS", "expects a positive thread count, got '" +
                                               std::string(threads) + "'");
    }
  }
  if (const char* cache = std::getenv("UAVRES_CACHE_DIR")) {
    if (cache[0] != '\0') {
      cfg.cache_dir = cache;
    } else {
      WarnIneffectiveEnv("UAVRES_CACHE_DIR", "empty path disables caching, the default");
    }
  }
  if (const char* recovery = std::getenv("UAVRES_RECOVERY")) {
    const std::string v(recovery);
    if (v == "1" || v == "on") {
      cfg.run.recovery = true;
    } else if (v == "0" || v == "off") {
      WarnIneffectiveEnv("UAVRES_RECOVERY", "'" + v + "' is the default; unset it instead");
    } else {
      WarnIneffectiveEnv("UAVRES_RECOVERY", "expects 1/on or 0/off, got '" + v + "'");
    }
  }
  return cfg;
}

std::optional<std::string> CampaignConfig::Validate() const {
  if (num_threads < 0) {
    return "num_threads must be >= 0 (0 = hardware concurrency), got " +
           std::to_string(num_threads);
  }
  if (mission_limit < 0) {
    return "mission_limit must be >= 0 (0 = all missions), got " +
           std::to_string(mission_limit);
  }
  if (durations.empty()) {
    return std::string("durations must not be empty (the fault grid needs at least "
                       "one injection duration)");
  }
  for (double d : durations) {
    if (!(d > 0.0)) {
      return "injection durations must be positive, got " + std::to_string(d);
    }
  }
  if (!(injection_start_s >= 0.0)) {
    return "injection_start_s must be >= 0, got " + std::to_string(injection_start_s);
  }
  return std::nullopt;
}

CampaignConfig CampaignConfig::Builder::Build() const {
  if (auto error = cfg_.Validate()) {
    throw std::invalid_argument("CampaignConfig: " + *error);
  }
  return cfg_;
}

Campaign::Campaign(const CampaignConfig& cfg) : cfg_(cfg), fleet_(SharedValenciaScenario()) {
  if (auto error = cfg_.Validate()) {
    throw std::invalid_argument("CampaignConfig: " + *error);
  }
  if (cfg_.mission_limit > 0 &&
      static_cast<std::size_t>(cfg_.mission_limit) < fleet_.size()) {
    fleet_.resize(static_cast<std::size_t>(cfg_.mission_limit));
  }
}

std::vector<FaultSpec> Campaign::GridFaults() const {
  std::vector<FaultSpec> grid;
  grid.reserve(cfg_.durations.size() * kAllFaultTypes.size() * kAllFaultTargets.size());
  for (double duration : cfg_.durations) {
    for (FaultTarget target : kAllFaultTargets) {
      for (FaultType type : kAllFaultTypes) {
        FaultSpec f;
        f.type = type;
        f.target = target;
        f.start_time_s = cfg_.injection_start_s;
        f.duration_s = duration;
        grid.push_back(f);
      }
    }
  }
  return grid;
}

std::uint64_t ExperimentKey(const uav::RunConfig& base, const uav::ExperimentSpec& spec) {
  return ExperimentCacheKey(HarnessFor(base, spec), spec);
}

ExperimentEntry RunExperiment(ResultStore& store, const uav::RunConfig& base,
                              uav::ExperimentSpec spec,
                              const std::function<const telemetry::Trajectory*()>& gold) {
  const std::uint64_t key = ExperimentKey(base, spec);
  if (auto cached = store.Load(key, /*require_trajectory=*/spec.IsGold())) {
    return {std::move(*cached), true};
  }
  // Resolve the reference before the scratch is used: a lazy `gold` may
  // simulate the mission's gold run on this same thread.
  if (!spec.IsGold() && gold) spec.gold = gold();
  // Per-worker scratch: RunInto clears but keeps buffer capacity, so each
  // worker pays the output allocations once, not per run.
  thread_local uav::RunOutput scratch;
  uav::SimulationRunner(HarnessFor(base, spec)).RunInto(spec, scratch);
  ExperimentEntry entry{{scratch.result, std::nullopt}, false};
  if (spec.IsGold()) entry.run.trajectory = std::move(scratch.trajectory);
  if (store.enabled()) store.Store(key, entry.run);
  return entry;
}

CampaignResults Campaign::Run(
    const std::function<void(std::size_t, std::size_t)>& progress) const {
  UAVRES_TRACE_SCOPE("campaign/run");
  const auto grid = GridFaults();

  // The mutator is an opaque callable the cache key cannot cover; a store
  // fed by mutated runs would poison every other consumer of the directory.
  ResultStore store(cfg_.run.uav_config_mutator ? std::string{} : cfg_.cache_dir);

  CampaignResults results;
  results.gold.resize(fleet_.size());
  results.gold_trajectories.resize(fleet_.size());
  results.faulty.resize(fleet_.size() * grid.size());

  const std::size_t total = results.gold.size() + results.faulty.size();
  std::atomic<std::size_t> done{0};
  auto report = [&] {
    const std::size_t d = done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (progress) progress(d, total);
  };

  SchedulerOptions sched;
  sched.num_threads = cfg_.num_threads;

  // A run's wall time tracks its flight time, and a mission flies for (at
  // most) its expected duration plus the grace window — a cost model the
  // scheduler uses to deal long missions first so they can't straggle.
  std::vector<double> mission_cost(fleet_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    mission_cost[i] = fleet_[i].plan.ExpectedDuration() + cfg_.run.extra_time_s;
  }

  // Phase 1: gold runs (references needed before any faulty run).
  {
    UAVRES_TRACE_SCOPE("campaign/gold-phase");
    ParallelFor(
        fleet_.size(), mission_cost,
        [&](std::size_t i) {
          UAVRES_TRACE_SCOPE("campaign/gold-run");
          ExperimentEntry gold = RunExperiment(
              store, cfg_.run,
              {fleet_[i], static_cast<int>(i), std::nullopt, cfg_.seed_base, nullptr});
          results.gold[i] = std::move(gold.run.result);
          results.gold_trajectories[i] = std::move(*gold.run.trajectory);
          CountCampaignResult(results.gold[i]);
          report();
        },
        sched);
  }

  // Phase 2: faulty runs, flat (mission, fault) grid. Each entry is
  // persisted as its worker finishes (checkpointing), so a killed campaign
  // resumes with only the missing runs recomputed.
  {
    UAVRES_TRACE_SCOPE("campaign/faulty-phase");
    const std::size_t n_jobs = results.faulty.size();
    std::vector<double> costs(n_jobs);
    for (std::size_t j = 0; j < n_jobs; ++j) costs[j] = mission_cost[j / grid.size()];

    ParallelFor(
        n_jobs, costs,
        [&](std::size_t j) {
          UAVRES_TRACE_SCOPE("campaign/faulty-run");
          const std::size_t mission = j / grid.size();
          results.faulty[j] =
              RunExperiment(store, cfg_.run,
                            {fleet_[mission], static_cast<int>(mission),
                             grid[j % grid.size()], cfg_.seed_base, nullptr},
                            [&] { return &results.gold_trajectories[mission]; })
                  .run.result;
          CountCampaignResult(results.faulty[j]);
          report();
        },
        sched);
  }

  results.cache = store.stats();
  return results;
}

}  // namespace uavres::core
