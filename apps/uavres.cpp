// uavres — command-line front end for the drone-resilience library.
//
//   uavres fly [mission] [--seed N]
//   uavres inject [mission] [target] [type] [duration] [--seed N]
//   uavres campaign [--missions N] [--durations 2,5,10,30] [--threads N]
//   uavres fleet [--scenario convoy|valencia] [--drones N] [--fault tgt:type:dur]
//                [--faulted-drone K] [--recovery [on|off]] [--relaunch-horizon S]
//                [--threads N] [--oracle] [--cache-dir DIR]
//   uavres convoy [--spacing M] [--drones N]
//   uavres export [mission] [file.csv] [--rate HZ]
//   uavres record [mission] [file.uvrl] [--rate HZ] [--seed N] [--recovery [on|off]]
//                 [--target acc|gyro|imu --type <fault> --duration S]
//   uavres record [mission] [file.uvbs] [--bus]   (full bus-topic log)
//   uavres replay [file.uvrl]
//   uavres replay [file.uvbs] [--estimator ekf|comp]
//   uavres fuzz [--runs N] [--seed N] [--out DIR] [--replay file.repro]
//   uavres fuzz --fork-from file.uvsnap [--runs N] [--seed N]
//   uavres snapshot [mission] [target] [type] [duration] [--at T] [--out f.uvsnap]
//   uavres bisect [mission] [target] [type] [duration] [--tol X] [--duration-axis]
//   uavres serve [--port N] [--threads N] [--queue N] [--cache-dir DIR]
//   uavres loadgen [--port N] [--clients N] [--specs N] [--verify] [--shutdown]
//   uavres list
//   uavres help [command]
//
// Every subcommand lives in the registry table (kCommands) below: one row
// binds its name, synopsis, help text, and handler, and the dispatch, the
// flags each command accepts and the generated `uavres help [command]`
// output all derive from that single table — adding a command is adding a
// row. A malformed number, an unknown word or flag, or a flag missing its
// value exits 2 before anything runs.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/bisect.h"
#include "app/command_line.h"
#include "app/fuzzer.h"
#include "core/api.h"
#include "core/scenario.h"
#include "core/tables.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "telemetry/csv_writer.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/snapshot_codec.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"
#include "uav/bus_replay.h"
#include "uav/simulation_runner.h"
#include "uspace/fleet_experiment.h"

namespace {

using namespace uavres;

core::FaultTarget ParseTarget(const std::string& s) {
  if (const auto target = core::ParseFaultTarget(s)) return *target;
  throw app::UsageError("unknown fault target '" + s + "'");
}

core::FaultType ParseType(const std::string& s) {
  if (const auto type = core::ParseFaultType(s)) return *type;
  throw app::UsageError("unknown fault type '" + s + "'");
}

int MissionIndex(const app::CommandLine& cl, std::size_t pos) {
  const std::string s = cl.Positional(pos, "0");
  const int count = static_cast<int>(core::SharedValenciaScenario().size());
  int m = -1;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), m);
  if (ec != std::errc{} || end != s.data() + s.size() || m < 0 || m >= count) {
    throw app::UsageError("unknown mission index '" + s + "', expected 0-" +
                          std::to_string(count - 1));
  }
  return m;
}

void PrintResult(const core::MissionResult& r) {
  std::printf("outcome    : %s\n", core::ToString(r.outcome));
  std::printf("duration   : %.1f s\n", r.flight_duration_s);
  std::printf("distance   : %.2f km (EKF)\n", r.distance_km);
  std::printf("violations : %d inner, %d outer (max deviation %.1f m)\n",
              r.inner_violations, r.outer_violations, r.max_deviation_m);
  if (!r.crash_reason.empty()) {
    std::printf("crash      : %s at t=%.1f s\n", r.crash_reason.c_str(), r.crash_time_s);
  }
  if (r.failsafe_reason != nav::FailsafeReason::kNone) {
    std::printf("failsafe   : %s at t=%.1f s\n", nav::ToString(r.failsafe_reason),
                r.failsafe_time_s);
  }
}

int CmdList() {
  const auto& fleet = core::SharedValenciaScenario();
  std::printf("%-4s %-22s %8s %8s %8s %6s\n", "id", "name", "km/h", "path[m]", "~dur[s]",
              "turns");
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto& s = fleet[i];
    std::printf("%-4zu %-22s %8.0f %8.0f %8.0f %6s\n", i, s.name.c_str(),
                s.cruise_speed_kmh, s.plan.PathLength(), s.plan.ExpectedDuration(),
                s.has_turning_points ? "yes" : "no");
  }
  return 0;
}

int CmdFly(const app::CommandLine& cl) {
  const auto& fleet = core::SharedValenciaScenario();
  const int mission = MissionIndex(cl, 0);
  const std::uint64_t seed = cl.FlagUint64("seed", 2024);
  const uav::SimulationRunner runner;
  const auto out = runner.Run({fleet[static_cast<std::size_t>(mission)], mission, std::nullopt, seed});
  std::printf("mission    : %s\n", fleet[static_cast<std::size_t>(mission)].name.c_str());
  PrintResult(out.result);
  return out.result.Completed() ? 0 : 1;
}

int CmdInject(const app::CommandLine& cl) {
  const auto& fleet = core::SharedValenciaScenario();
  const int mission = MissionIndex(cl, 0);
  core::FaultSpec fault;
  fault.target = ParseTarget(cl.Positional(1, "imu"));
  fault.type = ParseType(cl.Positional(2, "random"));
  fault.duration_s = app::ParseDouble(cl.Positional(3, "10"), "duration");
  fault.magnitude = cl.FlagDouble("magnitude", 1.0);
  const std::uint64_t seed = cl.FlagUint64("seed", 2024);

  const auto& spec = fleet[static_cast<std::size_t>(mission)];
  const uav::SimulationRunner runner;
  const auto gold = runner.Run({spec, mission, std::nullopt, seed});
  const auto out = runner.Run({spec, mission, fault, seed, &gold.trajectory});
  std::printf("mission    : %s\n", spec.name.c_str());
  std::printf("fault      : %s for %.0f s at t=%.0f s\n",
              core::FaultLabel(fault.target, fault.type).c_str(), fault.duration_s,
              fault.start_time_s);
  PrintResult(out.result);
  return 0;
}

/// Shared by `snapshot` and `bisect`: inject-style positionals -> spec.
uav::ExperimentSpec ParseFaultedSpec(const app::CommandLine& cl) {
  const auto& fleet = core::SharedValenciaScenario();
  const int mission = MissionIndex(cl, 0);
  core::FaultSpec fault;
  fault.target = ParseTarget(cl.Positional(1, "imu"));
  fault.type = ParseType(cl.Positional(2, "random"));
  fault.duration_s = app::ParseDouble(cl.Positional(3, "10"), "duration");
  return {fleet[static_cast<std::size_t>(mission)], mission, fault,
          cl.FlagUint64("seed", 2024)};
}

int CmdSnapshot(const app::CommandLine& cl) {
  uav::ExperimentSpec spec = ParseFaultedSpec(cl);
  const double t_snap = cl.FlagDouble("at", spec.fault->start_time_s);
  const std::string path = cl.Flag("out").value_or("checkpoint.uvsnap");
  const uav::SimulationRunner runner;
  sim::Snapshot snap;
  if (!runner.CaptureSnapshot(spec, t_snap, snap)) {
    std::fprintf(stderr, "run terminated before t=%.1f s; no snapshot\n", t_snap);
    return 1;
  }
  if (!telemetry::SaveSnapshotFile(path, snap)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::size_t bytes = 0;
  for (const auto& s : snap.sections) bytes += s.bytes.size();
  std::printf("snapshot   : step %lld (t=%.3f s), %zu sections, %zu state bytes -> %s\n",
              static_cast<long long>(snap.step_count), snap.time_s,
              snap.sections.size(), bytes, path.c_str());
  std::printf("fault      : %s for %.0f s at t=%.0f s (not yet applied at capture)\n",
              core::FaultLabel(spec.fault->target, spec.fault->type).c_str(),
              spec.fault->duration_s, spec.fault->start_time_s);
  return 0;
}

void PrintBisectAxis(const char* axis, const std::vector<app::BisectProbe>& probes) {
  std::printf("%-9s %10s %-10s %12s\n", axis, "value", "outcome", "fork steps");
  for (const auto& p : probes) {
    std::printf("%-9s %10.4f %-10s %12llu\n", "", p.value, core::ToString(p.outcome),
                static_cast<unsigned long long>(p.fork_steps));
  }
}

int CmdBisect(const app::CommandLine& cl) {
  uav::ExperimentSpec spec = ParseFaultedSpec(cl);
  app::BisectOptions opts;
  opts.magnitude_tol = cl.FlagDouble("tol", opts.magnitude_tol);
  opts.settle_s = cl.FlagDouble("settle", opts.settle_s);
  opts.max_probes = cl.FlagInt("probes", opts.max_probes);
  opts.bisect_duration = cl.HasFlag("duration-axis");
  const auto rep = app::RunBisect({}, spec, opts);
  if (!rep.ok) {
    std::fprintf(stderr, "bisect: %s\n", rep.error.c_str());
    return 1;
  }
  std::printf("mission    : %s\n", spec.drone.name.c_str());
  std::printf("fault      : %s for %.0f s at t=%.0f s\n",
              core::FaultLabel(spec.fault->target, spec.fault->type).c_str(),
              spec.fault->duration_s, spec.fault->start_time_s);
  std::printf("full run   : %s (%llu steps; snapshot at step %lld)\n",
              core::ToString(rep.full_outcome),
              static_cast<unsigned long long>(rep.full_run_steps),
              static_cast<long long>(rep.snapshot_step));
  if (!rep.full_strength_crashes) {
    std::printf("no crash at full strength — no magnitude boundary to bisect\n");
    return 0;
  }
  PrintBisectAxis("magnitude", rep.magnitude_probes);
  std::printf("boundary   : magnitude in (%.4f, %.4f]\n", rep.magnitude_lo,
              rep.magnitude_hi);
  if (rep.duration_bisected) {
    PrintBisectAxis("duration", rep.duration_probes);
    std::printf("boundary   : duration in (%.2f, %.2f] s\n", rep.duration_lo_s,
                rep.duration_hi_s);
  }
  std::printf("cost       : %d probes, %llu fork steps vs %llu from-scratch steps"
              " (%.1fx fewer)\n",
              rep.total_probes(),
              static_cast<unsigned long long>(rep.fork_steps_total),
              static_cast<unsigned long long>(rep.scratch_equiv_steps),
              rep.savings_factor);
  return 0;
}

int CmdCampaign(const app::CommandLine& cl) {
  // Precedence: CLI flag > environment variable > built-in default (see
  // src/app/command_line.cpp). FromEnvironment() layers the env values over
  // the defaults; explicit flags are applied on top via the validating
  // builder, which rejects ill-formed combinations before any run starts.
  const api::CampaignConfig env = api::CampaignConfig::FromEnvironment();
  api::CampaignConfig::Builder builder(env);
  builder.Missions(cl.FlagInt("missions", env.mission_limit))
      .Threads(cl.FlagInt("threads", env.num_threads));
  if (const auto d = cl.Flag("durations")) builder.Durations(app::ParseDoubleList(*d));
  if (const auto dir = cl.Flag("cache-dir")) builder.CacheDir(*dir);
  if (cl.HasFlag("no-cache")) builder.CacheDir("");
  // `--recovery off|0` forces recovery off, overriding UAVRES_RECOVERY.
  builder.Recovery(cl.FlagOnOff("recovery", env.run.recovery));
  api::CampaignConfig cfg;
  try {
    cfg = builder.Build();
  } catch (const std::invalid_argument& e) {
    throw app::UsageError(e.what());
  }
  const api::Campaign campaign(cfg);

  // Progress reporting: `--progress` updates a live line on every completed
  // run (percentage + wall-clock ETA); the default only prints milestones.
  const bool live_progress = cl.HasFlag("progress");
  const auto campaign_start = std::chrono::steady_clock::now();
  const auto results =
      campaign.Run([live_progress, campaign_start](std::size_t done, std::size_t total) {
        if (live_progress) {
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            campaign_start)
                  .count();
          const double eta =
              done > 0 ? elapsed * static_cast<double>(total - done) / done : 0.0;
          std::fprintf(stderr, "\r[campaign] %zu/%zu runs (%.1f%%) eta %.0fs   ", done,
                       total, 100.0 * static_cast<double>(done) / total, eta);
          if (done == total) std::fprintf(stderr, "\n");
        } else if (done % 50 == 0 || done == total) {
          std::fprintf(stderr, "\r%zu / %zu runs", done, total);
          if (done == total) std::fprintf(stderr, "\n");
        }
      });
  if (!cfg.cache_dir.empty() || cl.HasFlag("cache-stats")) {
    std::fprintf(stderr,
                 "cache [%s]: %llu hits, %llu misses (%llu corrupt), %llu stored\n",
                 cfg.cache_dir.empty() ? "disabled" : cfg.cache_dir.c_str(),
                 static_cast<unsigned long long>(results.cache.hits),
                 static_cast<unsigned long long>(results.cache.misses),
                 static_cast<unsigned long long>(results.cache.corrupt),
                 static_cast<unsigned long long>(results.cache.stores));
  }
  std::fputs(core::FormatSummaryTable("\nTable II form (by duration)", "Injection Duration",
                                      core::BuildTable2(results))
                 .c_str(),
             stdout);
  std::fputs(core::FormatSummaryTable("\nTable III form (by fault)", "Injection Type",
                                      core::BuildTable3(results))
                 .c_str(),
             stdout);
  std::fputs(core::FormatFailureTable("\nTable IV form (failure analysis)",
                                      core::BuildTable4(results))
                 .c_str(),
             stdout);
  if (cfg.run.recovery) {
    std::fputs(core::FormatRecoveryTable("\nRecovery (IMU-fault detection + failover)",
                                         core::BuildRecoveryTable(results))
                   .c_str(),
               stdout);
  }
  std::printf("\n%s", telemetry::MetricsRegistry::Global().FormatSummaryTable().c_str());
  return 0;
}

int CmdConvoy(const app::CommandLine& cl) {
  const double spacing = cl.FlagDouble("spacing", 15.0);
  const int drones = cl.FlagInt("drones", 3);
  const auto fleet = uspace::BuildConvoyScenario(drones, spacing);
  uspace::FleetRunConfig cfg;
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.duration_s = 30.0;
  cfg.fault = fault;
  cfg.faulted_drone = drones / 2;
  const auto out = uspace::FleetRunner(cfg).Run(fleet, 2024);
  for (const auto& d : out.drones) {
    std::printf("%-10s %-10s %7.1f s\n", d.name.c_str(), core::ToString(d.outcome),
                d.flight_duration_s);
  }
  std::printf("conflicts: %d  alerts: %d  min separation: %.1f m  quarantined: %d\n",
              out.conflicts.conflicts, out.conflicts.alerts, out.conflicts.min_separation_m,
              out.reports_quarantined);
  return 0;
}

int CmdExport(const app::CommandLine& cl) {
  const auto& fleet = core::SharedValenciaScenario();
  const int mission = MissionIndex(cl, 0);
  const std::string path = cl.Positional(1, "trajectory.csv");
  uav::RunConfig run_cfg;
  run_cfg.record_rate_hz = cl.FlagDouble("rate", 5.0);
  const uav::SimulationRunner runner(run_cfg);
  const auto out = runner.Run({fleet[static_cast<std::size_t>(mission)], mission, std::nullopt, 2024});

  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  telemetry::CsvWriter csv(os);
  csv.WriteRow({"t", "north_m", "east_m", "alt_m", "est_north_m", "est_east_m", "est_alt_m"});
  for (const auto& s : out.trajectory.Samples()) {
    csv.WriteNumericRow({s.t, s.pos_true.x, s.pos_true.y, -s.pos_true.z, s.pos_est.x,
                         s.pos_est.y, -s.pos_est.z});
  }
  std::printf("wrote %d rows to %s\n", csv.rows_written(), path.c_str());
  return 0;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Bus-stream recording (`--bus` or a .uvbs path): every topic the modules
/// publish, replayable offline with `uavres replay file.uvbs`.
int CmdRecordBus(const app::CommandLine& cl, const core::DroneSpec& spec, int mission,
                 const std::string& path) {
  uav::ExperimentSpec espec{spec, mission, std::nullopt, cl.FlagUint64("seed", 2024)};
  if (cl.HasFlag("target") || cl.HasFlag("type")) {
    core::FaultSpec fault;
    fault.target = ParseTarget(cl.Flag("target").value_or("imu"));
    fault.type = ParseType(cl.Flag("type").value_or("random"));
    fault.duration_s = cl.FlagDouble("duration", 10.0);
    espec.fault = fault;
  }
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  const bool recovery = cl.FlagOnOff("recovery", false);
  const auto stats = uav::RecordBusLog(espec, os, recovery);
  if (!stats) {
    std::fprintf(stderr, "bus recording failed writing %s\n", path.c_str());
    return 1;
  }
  std::printf("recorded %llu bus frames over %llu steps%s -> %s\n",
              static_cast<unsigned long long>(stats->frames),
              static_cast<unsigned long long>(stats->steps),
              recovery ? " (recovery on)" : "", path.c_str());
  std::printf("outcome    : %s after %.1f s\n", core::ToString(stats->outcome),
              stats->end_time_s);
  return 0;
}

/// Offline estimator re-run from a bus-topic log.
int CmdReplayBus(const app::CommandLine& cl, const std::string& path) {
  const auto kind = cl.FlagWord("estimator", {"ekf", "comp"}) == "comp"
                        ? uav::ReplayEstimatorKind::kComplementary
                        : uav::ReplayEstimatorKind::kEkf;
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  bus::BusLogHeader header;
  if (!bus::ReadBusLogHeader(is, header)) {
    std::fprintf(stderr, "cannot read %s (not a bus log?)\n", path.c_str());
    return 1;
  }
  is.seekg(0);
  const auto& fleet = core::SharedValenciaScenario();
  if (header.mission_index < 0 || header.mission_index >= static_cast<int>(fleet.size())) {
    std::fprintf(stderr, "bus log names unknown mission %d\n", header.mission_index);
    return 1;
  }
  const auto& spec = fleet[static_cast<std::size_t>(header.mission_index)];
  const auto stats = uav::ReplayEstimator(is, spec, kind);
  if (!stats) {
    std::fprintf(stderr, "cannot replay %s\n", path.c_str());
    return 1;
  }
  std::printf("bus log    : mission %d '%s', seed base %llu%s\n", header.mission_index,
              spec.name.c_str(), static_cast<unsigned long long>(header.seed_base),
              header.has_fault ? " (fault injected)" : " (gold)");
  std::printf("replayed   : %llu steps, %llu frames (%s estimator)\n",
              static_cast<unsigned long long>(stats->steps),
              static_cast<unsigned long long>(stats->frames),
              kind == uav::ReplayEstimatorKind::kEkf ? "ekf" : "complementary");
  if (header.recovery) {
    if (stats->detection_time_s >= 0.0) {
      std::printf("detector   : %llu frames verified, %llu mismatches; confirmed at t=%.3f s\n",
                  static_cast<unsigned long long>(stats->detector_frames),
                  static_cast<unsigned long long>(stats->detector_mismatches),
                  stats->detection_time_s);
    } else {
      std::printf("detector   : %llu frames verified, %llu mismatches; no confirm\n",
                  static_cast<unsigned long long>(stats->detector_frames),
                  static_cast<unsigned long long>(stats->detector_mismatches));
    }
  }
  if (kind == uav::ReplayEstimatorKind::kEkf) {
    std::printf("pos error  : max %.3g m, final %.3g m vs online EKF\n", stats->max_pos_err_m,
                stats->final_pos_err_m);
    std::printf("att error  : max %.3g rad vs online EKF\n", stats->max_att_err_rad);
    // The offline EKF consumes the exact sensor stream the online one did,
    // so any divergence at all — estimate or detector decision — is a
    // determinism defect.
    return stats->max_pos_err_m <= 1e-9 && stats->detector_mismatches == 0 ? 0 : 1;
  }
  std::printf("att error  : max %.3g rad vs online EKF\n", stats->max_att_err_rad);
  return stats->detector_mismatches == 0 ? 0 : 1;
}

int CmdRecord(const app::CommandLine& cl) {
  const auto& fleet = core::SharedValenciaScenario();
  const int mission = MissionIndex(cl, 0);
  const std::string path = cl.Positional(1, "flight.uvrl");
  if (cl.HasFlag("bus") || HasSuffix(path, ".uvbs")) {
    return CmdRecordBus(cl, fleet[static_cast<std::size_t>(mission)], mission, path);
  }
  uav::RunConfig run_cfg;
  run_cfg.record_rate_hz = cl.FlagDouble("rate", 5.0);
  run_cfg.recovery = cl.FlagOnOff("recovery", false);
  const uav::SimulationRunner runner(run_cfg);
  const auto& spec = fleet[static_cast<std::size_t>(mission)];
  const std::uint64_t seed = cl.FlagUint64("seed", 2024);

  uav::RunOutput out;
  if (cl.HasFlag("target") || cl.HasFlag("type")) {
    core::FaultSpec fault;
    fault.target = ParseTarget(cl.Flag("target").value_or("imu"));
    fault.type = ParseType(cl.Flag("type").value_or("random"));
    fault.duration_s = cl.FlagDouble("duration", 10.0);
    const auto gold = runner.Run({spec, mission, std::nullopt, seed});
    out = runner.Run({spec, mission, fault, seed, &gold.trajectory});
  } else {
    out = runner.Run({spec, mission, std::nullopt, seed});
  }

  telemetry::FlightRecord record;
  record.trajectory = std::move(out.trajectory);
  record.log = std::move(out.log);
  if (!telemetry::SaveFlightRecord(path, record)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("recorded %zu samples, %zu events -> %s\n", record.trajectory.Size(),
              record.log.Events().size(), path.c_str());
  PrintResult(out.result);
  return 0;
}

int CmdReplay(const app::CommandLine& cl) {
  const std::string path = cl.Positional(0, "flight.uvrl");
  if (HasSuffix(path, ".uvbs")) return CmdReplayBus(cl, path);
  const auto record = telemetry::LoadFlightRecord(path);
  if (!record) {
    std::fprintf(stderr, "cannot read %s (missing or corrupt)\n", path.c_str());
    return 1;
  }
  const auto& tr = record->trajectory;
  std::printf("flight record: %zu samples, %zu events\n", tr.Size(),
              record->log.Events().size());
  if (!tr.Empty()) {
    std::printf("  time span     : %.1f .. %.1f s\n", tr[0].t, tr[tr.Size() - 1].t);
    std::printf("  true distance : %.2f km\n", tr.TruePathLength() / 1000.0);
    std::printf("  EKF distance  : %.2f km\n", tr.EstimatedPathLength() / 1000.0);
    double worst_err = 0.0;
    int fault_samples = 0;
    for (const auto& s : tr.Samples()) {
      worst_err = std::max(worst_err, (s.pos_true - s.pos_est).Norm());
      fault_samples += s.fault_active;
    }
    std::printf("  worst est err : %.2f m\n", worst_err);
    std::printf("  fault window  : %d of %zu samples\n", fault_samples, tr.Size());
  }
  for (const auto& e : record->log.Events()) {
    std::printf("  [%7.1fs] %s %s\n", e.t, telemetry::ToString(e.level), e.message.c_str());
  }
  return 0;
}

int CmdFuzz(const app::CommandLine& cl) {
  if (const auto file = cl.Flag("fork-from")) {
    const auto snap = telemetry::LoadSnapshotFile(*file);
    if (!snap) throw app::UsageError("cannot read " + *file + ": missing or corrupt snapshot");
    const int runs = cl.FlagInt("runs", 16);
    const std::uint64_t seed = cl.FlagUint64("seed", 1);
    const auto rep = app::RunForkFuzz(*snap, runs, seed);
    if (!rep.ok) {
      std::fprintf(stderr, "fuzz: %s\n", rep.error.c_str());
      return 2;
    }
    std::printf("fork fuzz  : %d probes off %s\n", rep.probes, file->c_str());
    std::printf("oracles    : %d determinism failures, %d invariant failures\n",
                rep.determinism_failures, rep.invariant_failures);
    for (const auto& d : rep.failure_details) {
      std::printf("FAILURE    : %s\n", d.c_str());
    }
    return rep.determinism_failures == 0 && rep.invariant_failures == 0 ? 0 : 1;
  }
  if (const auto file = cl.Flag("replay")) {
    std::string err;
    const auto c = app::LoadRepro(*file, &err);
    if (!c) throw app::UsageError(err);
    app::FuzzOptions opts;
    opts.out_dir.clear();  // a replay never re-minimizes
    const app::Fuzzer fuzzer(opts);
    const auto res = fuzzer.RunCase(*c, /*with_determinism=*/true);
    std::printf("replay     : %s\n", file->c_str());
    std::printf("fault      : %s for %.2f s at t=%.2f s\n",
                core::FaultLabel(c->fault.target, c->fault.type).c_str(),
                c->fault.duration_s, c->fault.start_time_s);
    PrintResult(res.result);
    for (const auto& f : res.failures) {
      std::printf("FAILURE    : [%s] %s\n", app::ToString(f.kind), f.detail.c_str());
    }
    if (res.failures.empty()) std::printf("no oracle failures reproduced\n");
    return res.failed() ? 1 : 0;
  }

  app::FuzzOptions opts;
  opts.base_seed = cl.FlagUint64("seed", 1);
  opts.runs = cl.FlagInt("runs", 100);
  opts.out_dir = cl.Flag("out").value_or("fuzz-repros");
  opts.shrink_budget = cl.FlagInt("shrink-budget", 32);
  opts.determinism_every = cl.FlagInt("determinism-every", 8);
  opts.num_threads = cl.FlagInt("threads", 0);
  opts.verbose = cl.HasFlag("verbose");
  const app::Fuzzer fuzzer(opts);
  const auto rep = fuzzer.Run();
  std::printf("fuzz       : %d cases, %d failed (%d shrink runs)\n", rep.cases,
              rep.failed_cases, rep.shrink_runs);
  for (const auto& path : rep.repro_files) {
    std::printf("repro      : %s\n", path.c_str());
  }
  return rep.failed_cases == 0 ? 0 : 1;
}

/// `--fault target:type:duration` (e.g. `acc:fixed:30`); any tail part may
/// be omitted and defaults to imu:random:30.
core::FaultSpec ParseFleetFault(const std::string& s) {
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kImu;
  fault.type = core::FaultType::kRandom;
  fault.duration_s = 30.0;
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t colon = s.find(':', begin);
    parts.push_back(s.substr(begin, colon == std::string::npos ? colon : colon - begin));
    if (colon == std::string::npos) break;
    begin = colon + 1;
  }
  if (!parts.empty() && !parts[0].empty()) fault.target = ParseTarget(parts[0]);
  if (parts.size() > 1 && !parts[1].empty()) fault.type = ParseType(parts[1]);
  if (parts.size() > 2 && !parts[2].empty()) {
    fault.duration_s = app::ParseDouble(parts[2], "fault duration");
  }
  return fault;
}

void PrintFleetRecord(const char* label, const telemetry::FleetRecord& r) {
  std::printf("%s\n", label);
  std::printf("  conflicts           : %d (%d alerts, %d instants in conflict)\n",
              r.conflicts, r.alerts, r.instants_in_conflict);
  std::printf("  cascade             : largest component %d drones, %d secondary conflicts\n",
              r.cascade_size, r.secondary_conflicts);
  if (r.separation_samples > 0) {
    std::printf("  min separation      : %.1f m (p5 %.1f m, p50 %.1f m over %d instants)\n",
                r.min_separation_m, r.separation_p5_m, r.separation_p50_m,
                r.separation_samples);
  } else {
    std::printf("  min separation      : %.1f m\n", r.min_separation_m);
  }
  std::printf("  tracking            : %d published, %d dropped, %d quarantined\n",
              r.reports_published, r.reports_dropped, r.reports_quarantined);
  std::printf("  throughput          : %d missions in %.0f s (%.1f missions/sim-hour"
              ", %d relaunches)\n",
              r.missions_completed, r.sim_time_s, r.throughput_missions_per_hour,
              r.relaunches);
}

int CmdFleet(const app::CommandLine& cl) {
  core::FleetExperimentSpec spec;
  spec.scenario = cl.FlagWord("scenario", {"convoy", "valencia"}) == "valencia"
                      ? core::FleetScenario::kValencia
                      : core::FleetScenario::kConvoy;
  spec.num_drones = cl.FlagInt("drones", 10);
  spec.lane_spacing_m = cl.FlagDouble("spacing", spec.lane_spacing_m);
  spec.speed_kmh = cl.FlagDouble("speed", spec.speed_kmh);
  spec.leg_length_m = cl.FlagDouble("leg", spec.leg_length_m);
  spec.tracking_interval_s = cl.FlagDouble("interval", spec.tracking_interval_s);
  spec.drop_probability = cl.FlagDouble("drop", 0.0);
  spec.link_delay_s = cl.FlagDouble("delay", 0.0);
  spec.relaunch_horizon_s = cl.FlagDouble("relaunch-horizon", 0.0);
  spec.seed_base = cl.FlagUint64("seed", 2024);
  if (const auto f = cl.Flag("fault")) spec.fault = ParseFleetFault(*f);
  spec.faulted_drone = cl.FlagInt("faulted-drone", spec.num_drones / 2);
  spec.recovery = cl.FlagOnOff("recovery", false);
  if (spec.num_drones <= 0) throw app::UsageError("--drones must be positive");
  // Each check is written so that a NaN fails it too.
  if (!(spec.speed_kmh > 0.0)) throw app::UsageError("--speed must be positive");
  if (!(spec.leg_length_m > 0.0)) throw app::UsageError("--leg must be positive");
  if (!(spec.tracking_interval_s > 0.0)) throw app::UsageError("--interval must be positive");
  if (!(spec.drop_probability >= 0.0 && spec.drop_probability <= 1.0)) {
    throw app::UsageError("--drop must be within [0, 1]");
  }
  if (!(spec.link_delay_s >= 0.0)) throw app::UsageError("--delay must not be negative");
  if (spec.fault && (spec.faulted_drone < 0 || spec.faulted_drone >= spec.num_drones)) {
    throw app::UsageError("--faulted-drone " + std::to_string(spec.faulted_drone) +
                          " outside fleet of " + std::to_string(spec.num_drones));
  }

  uspace::FleetCampaignConfig cfg;
  cfg.knobs.num_threads = cl.FlagInt("threads", 0);
  if (const char* env = std::getenv("UAVRES_CACHE_DIR")) cfg.cache_dir = env;
  if (const auto dir = cl.Flag("cache-dir")) cfg.cache_dir = *dir;
  if (cl.HasFlag("no-cache")) cfg.cache_dir.clear();

  // The faulted run is always compared against its fault-free twin — the
  // systemic-impact delta is the experiment.
  std::vector<core::FleetExperimentSpec> specs;
  if (spec.fault && !cl.HasFlag("no-baseline")) {
    core::FleetExperimentSpec baseline = spec;
    baseline.fault.reset();
    specs.push_back(baseline);
  }
  specs.push_back(spec);

  uspace::FleetCampaign campaign(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = campaign.Run(specs);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const telemetry::FleetRecord& rec = results.back().record;

  std::printf("fleet      : %s, %d drones, seed %llu (%.1fs wall%s)\n",
              core::ToString(spec.scenario), spec.num_drones,
              static_cast<unsigned long long>(spec.seed_base), wall,
              results.back().from_cache ? ", cached" : "");
  if (spec.fault) {
    std::printf("fault      : %s for %.0f s on drone %d%s\n",
                core::FaultLabel(spec.fault->target, spec.fault->type).c_str(),
                spec.fault->duration_s, spec.faulted_drone,
                spec.recovery ? " (recovery on)" : "");
  }

  // Per-drone outcomes: full table for small fleets, histogram + the
  // interesting rows (faulted or non-completed) for big ones.
  const bool small = rec.drones.size() <= 24;
  int completed = 0;
  for (const auto& d : rec.drones) {
    const auto outcome = static_cast<core::MissionOutcome>(d.outcome);
    completed += outcome == core::MissionOutcome::kCompleted;
    const bool interesting =
        outcome != core::MissionOutcome::kCompleted ||
        (spec.fault && d.drone_id == spec.faulted_drone);
    if (small || interesting) {
      std::printf("  #%-4d %-14s %-10s %7.1f s%s\n", d.drone_id, d.name.c_str(),
                  core::ToString(outcome), d.flight_duration_s,
                  d.launch_time_s > 0.0 ? " (relaunched)" : "");
    }
  }
  if (!small) {
    std::printf("  (%d of %zu flights completed; non-completed rows shown)\n",
                completed, rec.drones.size());
  }

  PrintFleetRecord(spec.fault ? "systemic impact (faulted)" : "systemic metrics", rec);
  if (specs.size() > 1) {
    PrintFleetRecord("fault-free baseline", results.front().record);
  }

  if (campaign.store().enabled()) {
    const auto cs = campaign.cache_stats();
    std::fprintf(stderr, "cache [%s]: %llu hits, %llu misses (%llu corrupt), %llu stored\n",
                 cfg.cache_dir.c_str(), static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.corrupt),
                 static_cast<unsigned long long>(cs.stores));
  }

  // --oracle: re-run the experiment on one thread, the independent check on
  // the parallel schedule (and, for a cached record, on the store): the two
  // records' WriteFleetRecord bytes must be equal.
  if (cl.HasFlag("oracle")) {
    const telemetry::FleetRecord ref = uspace::RunFleetExperiment(spec, {.num_threads = 1});
    const bool ok = telemetry::Encode(ref) == telemetry::Encode(rec);
    std::printf("oracle     : one-thread run %s\n",
                ok ? "MATCH (record bytes)" : "MISMATCH");
    if (!ok) return 1;
  }
  return 0;
}

/// `--port`, which must name a TCP port (0 lets the kernel pick one).
std::uint16_t FlagPort(const app::CommandLine& cl, std::uint16_t def) {
  const int port = cl.FlagInt("port", def);
  if (port < 0 || port > 65535) {
    throw app::UsageError("--port " + std::to_string(port) + " outside 0-65535");
  }
  return static_cast<std::uint16_t>(port);
}

int CmdServe(const app::CommandLine& cl) {
  serve::ServerConfig cfg;
  cfg.host = cl.Flag("host").value_or(cfg.host);
  cfg.port = FlagPort(cl, cfg.port);
  cfg.num_threads = cl.FlagInt("threads", 0);
  const int queue = cl.FlagInt("queue", static_cast<int>(cfg.queue_capacity));
  if (queue < 1) throw app::UsageError("--queue must be at least 1");
  cfg.queue_capacity = static_cast<std::size_t>(queue);
  cfg.cache_dir = cl.Flag("cache-dir").value_or("");
  if (cl.HasFlag("no-remote-shutdown")) cfg.allow_remote_shutdown = false;

  serve::Server server(cfg);
  std::string err;
  if (!server.Start(&err)) {
    std::fprintf(stderr, "serve: %s\n", err.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serve: listening on %s:%u (spec schema v%u, queue %zu, cache %s)\n",
               cfg.host.c_str(), server.port(), api::kSpecSchemaVersion,
               cfg.queue_capacity,
               cfg.cache_dir.empty() ? "disabled" : cfg.cache_dir.c_str());
  server.Run();
  const auto s = server.stats();
  std::fprintf(stderr,
               "serve: done — %llu accepted, %llu rejected, %llu completed "
               "(%llu computed, %llu gold, %llu store hits, %llu single-flight)\n",
               static_cast<unsigned long long>(s.accepted),
               static_cast<unsigned long long>(s.rejected),
               static_cast<unsigned long long>(s.completed),
               static_cast<unsigned long long>(s.computed),
               static_cast<unsigned long long>(s.gold_computed),
               static_cast<unsigned long long>(s.store_hits),
               static_cast<unsigned long long>(s.singleflight));
  return 0;
}

int CmdLoadgen(const app::CommandLine& cl) {
  serve::LoadgenConfig cfg;
  cfg.host = cl.Flag("host").value_or(cfg.host);
  cfg.port = FlagPort(cl, cfg.port);
  cfg.clients = cl.FlagInt("clients", cfg.clients);
  cfg.specs = cl.FlagInt("specs", cfg.specs);
  cfg.batch = cl.FlagInt("batch", cfg.batch);
  cfg.unique = cl.FlagInt("unique", cfg.unique);
  if (cfg.clients < 1) throw app::UsageError("--clients must be at least 1");
  if (cfg.specs < 1) throw app::UsageError("--specs must be at least 1");
  api::CampaignConfig::Builder grid;
  grid.Missions(cl.FlagInt("missions", 0))
      .SeedBase(cl.FlagUint64("seed", 2024))
      .Recovery(cl.FlagOnOff("recovery", false));
  if (const auto d = cl.Flag("durations")) grid.Durations(app::ParseDoubleList(*d));
  try {
    cfg.grid = grid.Build();
  } catch (const std::invalid_argument& e) {
    throw app::UsageError(e.what());
  }
  cfg.verify = cl.HasFlag("verify");
  cfg.shutdown = cl.HasFlag("shutdown");
  cfg.out_path = cl.Flag("out").value_or(cfg.out_path);
  return serve::RunLoadgen(cfg);
}

}  // namespace

namespace {

/// One registry row per subcommand: dispatch, the flags it accepts, the
/// command index, and `uavres help <cmd>` all read from this table.
struct Command {
  const char* name;
  const char* args;     ///< synopsis after `uavres <name>`
  const char* summary;  ///< one line for the command index
  const char* details;  ///< extra paragraph for `help <cmd>` ("" = none)
  int (*run)(const uavres::app::CommandLine&);
};

/// Flags every command takes besides its synopsis' (see DESIGN.md §10).
constexpr const char* kGlobalFlags = "[--trace-out FILE] [--metrics-out FILE] [--progress]";

const Command kCommands[] = {
    {"list", "", "show the ten-mission scenario", "",
     [](const uavres::app::CommandLine&) { return CmdList(); }},
    {"fly", "[mission] [--seed N]", "fly one fault-free mission", "", CmdFly},
    {"inject",
     "[mission] [acc|gyro|imu] [fixed|zeros|freeze|random|min|max|noise]\n"
     "       [duration_s] [--seed N] [--magnitude X]",
     "inject one fault against its gold reference", "", CmdInject},
    {"campaign",
     "[--missions N] [--durations 2,5,10,30] [--threads N] [--cache-dir DIR]\n"
     "       [--no-cache] [--cache-stats] [--recovery [on|off]]",
     "run the grid, print Tables II-IV",
     "Completed runs persist to the cache (also via UAVRES_CACHE_DIR) so an\n"
     "interrupted campaign resumes. --recovery on adds the IMU-fault detector\n"
     "+ estimator failover and prints the recovery table.",
     CmdCampaign},
    {"serve",
     "[--host H] [--port N] [--threads N] [--queue N] [--cache-dir DIR]\n"
     "       [--no-remote-shutdown]",
     "campaign-as-a-service daemon over the spec wire API",
     "Accepts batches of ExperimentSpecs from concurrent clients over local\n"
     "TCP (versioned wire protocol, telemetry/spec_codec.h), dedupes\n"
     "identical specs through the shared result store with single-flight\n"
     "semantics, schedules across a bounded worker pool with per-client\n"
     "round-robin fairness (full queue => overload reject), and streams\n"
     "progress + MissionResults back. --queue bounds admitted work;\n"
     "--cache-dir shares entries with offline campaigns. See DESIGN.md §17.",
     CmdServe},
    {"loadgen",
     "[--host H] [--port N] [--clients N] [--specs N] [--batch N] [--unique N]\n"
     "       [--missions N] [--durations LIST] [--recovery [on|off]] [--seed N]\n"
     "       [--verify] [--shutdown] [--out FILE]",
     "multi-client load/latency bench against a running serve daemon",
     "Deals a cycling spec stream across N client connections so distinct\n"
     "clients submit overlapping specs (exercising dedup), then reports\n"
     "p50/p99 request latency and the daemon's dedup accounting into\n"
     "BENCH_serve.json. --verify recomputes the grid offline through\n"
     "Campaign::Run and byte-compares every received MissionResult;\n"
     "--shutdown stops the daemon afterwards (CI teardown).",
     CmdLoadgen},
    {"fleet",
     "[--scenario convoy|valencia] [--drones N] [--spacing M] [--speed KMH]\n"
     "       [--leg M] [--interval S] [--fault acc|gyro|imu:type:duration]\n"
     "       [--faulted-drone K] [--recovery [on|off]] [--drop P] [--delay S]\n"
     "       [--relaunch-horizon S] [--seed N] [--threads N] [--oracle]\n"
     "       [--no-baseline] [--cache-dir DIR] [--no-cache]",
     "fleet-scale airspace experiment",
     "Runs N drones, one vehicle each, stepped per tracking interval on the\n"
     "shared-cursor scheduler, checks every drone pair for conflicts at each\n"
     "tracking instant, and reports systemic impact vs the fault-free\n"
     "baseline: conflict/alert counts, cascade size, min-separation\n"
     "distribution and airspace throughput. --relaunch-horizon S keeps the\n"
     "airspace full by relaunching ended flights until T=S (continuous\n"
     "traffic). Results are cached by fleet spec (also via UAVRES_CACHE_DIR).\n"
     "--oracle re-runs the spec on one thread and checks that its record is\n"
     "byte-identical. See DESIGN.md §18.",
     CmdFleet},
    {"convoy", "[--spacing M] [--drones N]", "multi-UAV U-space conflict demo", "",
     CmdConvoy},
    {"export", "[mission] [file.csv] [--rate HZ]", "dump a gold trajectory as CSV", "",
     CmdExport},
    {"record",
     "[mission] [file.uvrl|file.uvbs] [--bus] [--rate HZ] [--seed N]\n"
     "       [--target acc|gyro|imu --type random --duration S] [--recovery [on|off]]",
     "record a flight (binary log) or the full bus-topic stream",
     "A .uvbs path implies --bus (every topic the modules publish, replayable\n"
     "offline). --recovery flies with the IMU-fault detector + failover\n"
     "enabled.",
     CmdRecord},
    {"replay", "[file.uvrl | file.uvbs] [--estimator ekf|comp]",
     "summarize a recorded flight or re-run an estimator offline",
     "For a .uvbs log the chosen estimator re-runs from the recorded sensor\n"
     "topics; `ekf` must match the online run exactly, and a --recovery log\n"
     "must replay its detector decisions bit-for-bit.",
     CmdReplay},
    {"fuzz",
     "[--runs N] [--seed N] [--out DIR] [--shrink-budget N] [--threads N]\n"
     "       [--determinism-every N] [--verbose] | --replay file.repro |\n"
     "       --fork-from file.uvsnap [--runs N]",
     "randomized fault-campaign fuzzing with invariant + metamorphic oracles",
     "Failures shrink to DIR/*.repro; --replay re-executes a minimized repro;\n"
     "--fork-from varies fault magnitude/duration off one checkpoint\n"
     "(fork-determinism + invariant oracles).",
     CmdFuzz},
    {"snapshot",
     "[mission] [acc|gyro|imu] [type] [duration] [--at T] [--seed N]\n"
     "       [--out file.uvsnap]",
     "checkpoint a run at fault onset (or --at T) into a .uvsnap file", "",
     CmdSnapshot},
    {"bisect",
     "[mission] [acc|gyro|imu] [type] [duration] [--seed N] [--tol X]\n"
     "       [--settle S] [--probes N] [--duration-axis]",
     "binary-search the minimal crashing fault magnitude via snapshot forks",
     "Checkpoints at fault onset, then bisects magnitude (and, with\n"
     "--duration-axis, duration) by forking probes off the snapshot.",
     CmdBisect},
};

const Command* FindCommand(const std::string& name) {
  for (const Command& c : kCommands) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

int PrintCommandIndex() {
  std::puts("uavres — drone resilience under IMU faults (DSN'24 reproduction)\n");
  std::puts("commands (`uavres help <command>` for flags and details):");
  for (const Command& c : kCommands) {
    std::printf("  %-10s %s\n", c.name, c.summary);
  }
  std::puts(
      "\nobservability (any command; see DESIGN.md §10):\n"
      "  --trace-out FILE    write a Chrome-trace/Perfetto JSON\n"
      "  --metrics-out FILE  write the metrics registry as JSON\n"
      "  --progress          live per-run campaign progress line");
  return 1;
}

int CmdHelp(const uavres::app::CommandLine& cl) {
  const std::string topic = cl.Positional(0, "");
  if (topic.empty()) {
    PrintCommandIndex();
    return 0;
  }
  const Command* c = FindCommand(topic);
  if (!c) {
    std::fprintf(stderr, "uavres: unknown command '%s'\n\n", topic.c_str());
    return PrintCommandIndex();
  }
  std::printf("usage: uavres %s%s%s\n\n%s\n", c->name, *c->args ? " " : "", c->args,
              c->summary);
  if (*c->details) std::printf("\n%s\n", c->details);
  return 0;
}

/// Writes `text_fn(os)` to `path`; downgrades failures to a warning so a
/// bad output path never discards the completed command's work.
template <typename WriteFn>
void WriteObservabilityFile(const std::string& path, const char* what, WriteFn&& fn) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "cannot write %s file %s\n", what, path.c_str());
    return;
  }
  fn(os);
  std::fprintf(stderr, "wrote %s -> %s\n", what, path.c_str());
}

/// Writes the --trace-out and --metrics-out files, after the command's work
/// (and after campaign workers have joined).
void WriteObservabilityFiles(const uavres::app::CommandLine& cl) {
  if (const auto trace_out = cl.Flag("trace-out")) {
    uavres::telemetry::TraceRecorder::Global().Disable();
    WriteObservabilityFile(*trace_out, "trace", [](std::ostream& os) {
      uavres::telemetry::TraceRecorder::Global().WriteChromeTrace(os);
    });
  }
  if (const auto metrics_out = cl.Flag("metrics-out")) {
    WriteObservabilityFile(*metrics_out, "metrics", [](std::ostream& os) {
      uavres::telemetry::MetricsRegistry::Global().WriteJson(os);
    });
  }
}

int Dispatch(const uavres::app::CommandLine& cl) {
  if (cl.command == "help" || cl.command == "--help" || cl.command == "-h") {
    return CmdHelp(cl);
  }
  if (const Command* c = FindCommand(cl.command)) {
    try {
      cl.CheckFlags(std::string(c->args) + " " + kGlobalFlags);
      const int rc = c->run(cl);
      // Reached only past argument checking: a usage error leaves any file
      // at either path untouched.
      WriteObservabilityFiles(cl);
      return rc;
    } catch (const uavres::app::UsageError& e) {
      std::fprintf(stderr, "uavres %s: %s (see `uavres help %s`)\n", c->name, e.what(),
                   c->name);
      return 2;
    }
  }
  if (!cl.command.empty()) {
    std::fprintf(stderr, "uavres: unknown command '%s'\n\n", cl.command.c_str());
  }
  return PrintCommandIndex();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto cl = uavres::app::ParseCommandLine(args);
  // Tracing must be live before the command runs; Dispatch writes both
  // outputs once the command finishes.
  if (cl.HasFlag("trace-out")) uavres::telemetry::TraceRecorder::Global().Enable();
  return Dispatch(cl);
}
