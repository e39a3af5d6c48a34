#include "core/campaign.h"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/scheduler.h"
#include "math/num.h"
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

/// A positive int from environment variable `name`, parsed in full as the
/// CLI parses its flags; otherwise a warning and nullopt.
std::optional<int> PositiveEnvInt(const char* name, const char* value, const char* what) {
  const std::optional<int> n = math::ParseNumber<int>(value);
  if (n && *n > 0) return n;
  WarnIneffectiveEnv(name, std::string("expects a positive ") + what + ", got '" + value + "'");
  return std::nullopt;
}

/// `base` as the grid runs `spec`: a faulty run only needs its metrics, so
/// it records no trajectory (bounding memory; part of its key).
uav::RunConfig HarnessFor(const uav::RunConfig& base, const uav::ExperimentSpec& spec) {
  uav::RunConfig run = base;
  if (!spec.IsGold()) run.record_trajectory = false;
  return run;
}

/// Per-worker scratch: RunInto clears but keeps buffer capacity, so each
/// worker pays the output allocations once, not per run.
uav::RunOutput& Scratch() {
  thread_local uav::RunOutput scratch;
  return scratch;
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
    if (auto n = PositiveEnvInt("UAVRES_MISSIONS", missions, "mission count")) {
      cfg.mission_limit = *n;
    }
  }
  if (const char* threads = std::getenv("UAVRES_THREADS")) {
    if (auto n = PositiveEnvInt("UAVRES_THREADS", threads, "thread count")) cfg.num_threads = *n;
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

GoldReference::GoldReference(telemetry::GoldPath path, std::optional<sim::Snapshot> onset,
                             const uav::RunConfig& run, uav::ExperimentSpec spec, double onset_s)
    : path_(std::move(path)),
      run_(run),
      spec_(std::move(spec)),
      onset_s_(onset_s),
      onset_(std::move(onset)) {
  // A fork records no trajectory, so the recapture records none either: the
  // snapshot digest does not cover recording.
  run_.record_trajectory = false;
}

const sim::Snapshot* GoldReference::Onset() const {
  std::call_once(recaptured_, [this] {
    if (onset_) return;
    sim::Snapshot snap;
    if (uav::SimulationRunner(run_).CaptureSnapshot(spec_, onset_s_, snap)) {
      onset_ = std::move(snap);
    }
  });
  return onset_ ? &*onset_ : nullptr;
}

GoldRun RunGold(ResultStore& store, const uav::RunConfig& base, const uav::ExperimentSpec& spec,
                double onset_s) {
  const std::uint64_t key = ExperimentKey(base, spec);
  if (auto cached = store.Load(key, /*require_trajectory=*/true)) {
    return {std::move(cached->result), true,
            std::make_unique<GoldReference>(telemetry::GoldPath(*cached->trajectory),
                                            std::nullopt, base, spec, onset_s)};
  }
  uav::RunOutput& out = Scratch();
  std::optional<sim::Snapshot> onset{std::in_place};
  if (uav::SimulationRunner(base).RunWithCheckpoint(spec, onset_s, *onset, out)) {
    // The snapshot's largest section is the trajectory recorded so far; no
    // fork reads it.
    std::erase_if(onset->sections, [](const sim::SnapshotSection& s) {
      return s.id == static_cast<std::uint32_t>(uav::SnapshotSectionId::kTrajectory);
    });
  } else {
    onset.reset();
  }
  // Taken out of the scratch, so the recording is freed once it is stored.
  telemetry::Trajectory trajectory = std::move(out.trajectory);
  GoldRun gold{out.result, false,
               std::make_unique<GoldReference>(telemetry::GoldPath(trajectory),
                                               std::move(onset), base, spec, onset_s)};
  if (store.enabled()) store.Store(key, {out.result, std::move(trajectory)});
  return gold;
}

ExperimentEntry RunExperiment(ResultStore& store, const uav::RunConfig& base,
                              uav::ExperimentSpec spec,
                              const std::function<const GoldReference*()>& gold) {
  const std::uint64_t key = ExperimentKey(base, spec);
  if (auto cached = store.Load(key)) return {std::move(cached->result), true};
  // Resolve the reference before the scratch is used: a lazy `gold` may
  // simulate the mission's gold run on this same thread.
  const GoldReference* ref = gold ? gold() : nullptr;
  const sim::Snapshot* onset = ref != nullptr ? ref->Onset() : nullptr;
  spec.gold = ref != nullptr ? &ref->path() : nullptr;
  const uav::SimulationRunner runner(HarnessFor(base, spec));
  uav::RunOutput& out = Scratch();
  // A refused fork (the fault opens before the snapshot) flies the prefix.
  if (onset == nullptr || !runner.RunFromSnapshot(spec, *onset, out)) {
    runner.RunInto(spec, out);
  }
  if (store.enabled()) store.Store(key, {out.result, std::nullopt});
  return {out.result, false};
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

  const auto gold_spec = [&](std::size_t mission) {
    return uav::ExperimentSpec{fleet_[mission], static_cast<int>(mission), std::nullopt,
                               cfg_.seed_base, nullptr};
  };

  // Phase 1: gold runs (references needed before any faulty run).
  std::vector<std::unique_ptr<GoldReference>> references(fleet_.size());
  {
    UAVRES_TRACE_SCOPE("campaign/gold-phase");
    ParallelFor(
        fleet_.size(), mission_cost,
        [&](std::size_t i) {
          UAVRES_TRACE_SCOPE("campaign/gold-run");
          GoldRun gold = RunGold(store, cfg_.run, gold_spec(i), cfg_.injection_start_s);
          results.gold[i] = std::move(gold.result);
          references[i] = std::move(gold.reference);
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
          uav::ExperimentSpec spec = gold_spec(mission);
          spec.fault = grid[j % grid.size()];
          results.faulty[j] =
              RunExperiment(store, cfg_.run, spec, [&] { return references[mission].get(); })
                  .result;
          CountCampaignResult(results.faulty[j]);
          report();
        },
        sched);
  }

  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    results.gold_trajectories[i] = references[i]->TakePath();
  }
  results.cache = store.stats();
  return results;
}

}  // namespace uavres::core
