#include "app/fuzzer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/fault_injector.h"
#include "core/result_store.h"
#include "core/scenario.h"
#include "core/scheduler.h"
#include "math/rng.h"
#include "sensors/imu.h"
#include "telemetry/metrics_registry.h"

namespace uavres::app {

using core::FaultSpec;
using core::FaultTarget;
using core::FaultType;
using math::Rng;
using math::Vec3;

namespace {

constexpr double kPi = 3.14159265358979323846;

// ---------------------------------------------------------------------------
// Repro-file fault lines, spelled with the `uavres inject` tokens.

std::string FormatFault(const FaultSpec& f) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %s %.17g %.17g", core::Token(f.type),
                core::Token(f.target), f.start_time_s, f.duration_s);
  return buf;
}

bool ParseFault(std::istringstream& is, FaultSpec& out) {
  std::string type_token, target_token;
  double start = 0.0, duration = 0.0;
  if (!(is >> type_token >> target_token >> start >> duration)) return false;
  const auto type = core::ParseFaultType(type_token);
  const auto target = core::ParseFaultTarget(target_token);
  if (!type || !target) return false;
  out.type = *type;
  out.target = *target;
  out.start_time_s = start;
  out.duration_s = duration;
  return true;
}

// ---------------------------------------------------------------------------
// Case assembly.

core::DroneSpec SpecFor(const FuzzCase& c) {
  // Shared immutable fleet: cases (and every shrink candidate) borrow it
  // instead of rebuilding the ten-mission scenario per simulation.
  const auto& fleet = core::SharedValenciaScenario();
  core::DroneSpec spec = fleet[static_cast<std::size_t>(c.mission) % fleet.size()];
  if (!c.waypoints.empty()) spec.plan.waypoints = c.waypoints;
  return spec;
}

uav::RunConfig RunConfigFor(const FuzzCase& c, const FuzzOptions& opts) {
  uav::RunConfig rc;
  rc.extra_time_s = 120.0;
  rc.invariants = opts.invariants;
  rc.invariants.mode = core::InvariantMode::kRecord;
  rc.invariant_tap = opts.invariant_tap;
  rc.uav_config_mutator = [c](uav::UavConfig& u) {
    u.fault_noise.accel_sigma_mps2 = c.noise_accel_sigma;
    u.fault_noise.gyro_sigma_rads = c.noise_gyro_sigma;
    u.fault_ext.scale_factor = c.scale_factor;
    u.wind.mean_wind_ned = Vec3{c.wind_n, c.wind_e, 0.0};
    u.wind.gust_stddev = c.gust;
    if (c.second_fault) u.extra_faults.push_back(*c.second_fault);
  };
  return rc;
}

uav::RunOutput Simulate(const FuzzCase& c, const FuzzOptions& opts) {
  uav::SimulationRunner runner(RunConfigFor(c, opts));
  return runner.Run({SpecFor(c), c.mission, c.fault, c.seed, nullptr});
}

/// Serialized bytes of (result, trajectory) — the determinism and cache
/// oracles compare these.
std::string StoredBytes(const uav::RunOutput& out) {
  core::StoredRun run;
  run.result = out.result;
  run.trajectory = out.trajectory;
  std::ostringstream os;
  core::WriteStoredRun(os, 0xF0220000u, run);
  return os.str();
}

// ---------------------------------------------------------------------------
// Injector-level metamorphic oracles. Both oracles drive FaultInjector
// directly with a synthetic time-varying IMU stream: no simulation needed,
// so they run on every case.

sensors::ImuSample SyntheticSample(int k) {
  const double s = 0.01 * k;
  sensors::ImuSample truth;
  truth.t = s;
  truth.accel_mps2 = Vec3{2.0 * std::sin(s), -1.5 * std::cos(3.0 * s), -9.6 + 0.3 * s};
  truth.gyro_rads = Vec3{0.4 * std::cos(s), 0.2 * std::sin(2.0 * s), 0.1};
  return truth;
}

bool SameVec(const Vec3& a, const Vec3& b) {
  return a.x == b.x && a.y == b.y && a.z == b.z;
}

/// Snap to the 1/256 s grid so `start + k*dt` and `t - start` are exact in
/// double arithmetic for any exactly-representable start — the time-shift
/// oracle then compares bit-identical phase/ramp computations instead of
/// chasing last-ulp rounding.
double SnapToGrid(double v) { return std::round(v * 256.0) / 256.0; }

/// Axis-permutation symmetry: with per-axis RNG streams, an IMU-wide fault
/// must corrupt the accelerometer exactly as an accel-only fault does and
/// the gyro exactly as a gyro-only fault does (same seed).
bool CheckAxisPermutation(const FuzzCase& c, std::string* detail) {
  const sensors::ImuRanges ranges{};
  const core::FaultNoiseConfig noise{c.noise_accel_sigma, c.noise_gyro_sigma};
  core::ExtendedFaultConfig ext;
  ext.scale_factor = c.scale_factor;

  FaultSpec both = c.fault;
  both.target = FaultTarget::kImu;
  FaultSpec acc_only = both, gyro_only = both;
  acc_only.target = FaultTarget::kAccelerometer;
  gyro_only.target = FaultTarget::kGyrometer;

  const std::uint64_t seed = math::HashCombine(c.seed, 0xA71);
  core::FaultInjector inj_both(both, ranges, Rng{seed}, noise, ext);
  core::FaultInjector inj_acc(acc_only, ranges, Rng{seed}, noise, ext);
  core::FaultInjector inj_gyro(gyro_only, ranges, Rng{seed}, noise, ext);

  const double dt = 1.0 / 256.0;
  const int steps =
      static_cast<int>(std::min(c.fault.duration_s, 2.0) / dt);
  for (int k = 0; k < steps; ++k) {
    const double t = c.fault.start_time_s + k * dt;
    const sensors::ImuSample truth = SyntheticSample(k);
    const auto s_both = inj_both.Apply(truth, 0, t);
    const auto s_acc = inj_acc.Apply(truth, 0, t);
    const auto s_gyro = inj_gyro.Apply(truth, 0, t);
    if (!SameVec(s_both.accel_mps2, s_acc.accel_mps2) ||
        !SameVec(s_both.gyro_rads, s_gyro.gyro_rads)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "axis-permutation asymmetry for %s at step %d (t=%.4f)",
                    core::ToString(c.fault.type), k, t);
      *detail = buf;
      return false;
    }
  }
  return true;
}

/// Time-shift invariance: shifting the fault window by a constant offset
/// shifts the corruption sequence by exactly that offset. Start times are
/// snapped to an exactly-representable grid so both windows compute
/// bit-identical in-window phases.
bool CheckTimeShift(const FuzzCase& c, std::string* detail) {
  const sensors::ImuRanges ranges{};
  const core::FaultNoiseConfig noise{c.noise_accel_sigma, c.noise_gyro_sigma};
  core::ExtendedFaultConfig ext;
  ext.scale_factor = c.scale_factor;

  FaultSpec base = c.fault;
  base.start_time_s = 16.0;
  base.duration_s = SnapToGrid(std::min(c.fault.duration_s, 2.0));
  FaultSpec shifted = base;
  shifted.start_time_s = 24.0;  // +8 s, exact in double

  const std::uint64_t seed = math::HashCombine(c.seed, 0x715);
  core::FaultInjector inj_base(base, ranges, Rng{seed}, noise, ext);
  core::FaultInjector inj_shift(shifted, ranges, Rng{seed}, noise, ext);

  const double dt = 1.0 / 256.0;
  const int steps = static_cast<int>(base.duration_s / dt) + 4;  // past the end
  for (int k = 0; k < steps; ++k) {
    const sensors::ImuSample truth = SyntheticSample(k);
    const auto s_base = inj_base.Apply(truth, 0, base.start_time_s + k * dt);
    const auto s_shift = inj_shift.Apply(truth, 0, shifted.start_time_s + k * dt);
    if (!SameVec(s_base.accel_mps2, s_shift.accel_mps2) ||
        !SameVec(s_base.gyro_rads, s_shift.gyro_rads)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "time-shift variance for %s at in-window step %d",
                    core::ToString(c.fault.type), k);
      *detail = buf;
      return false;
    }
  }
  return true;
}

/// Cache round-trip: serialize the run as a ResultStore entry, read it back,
/// re-serialize; bytes and key metrics must survive unchanged (a cache hit
/// is then indistinguishable from a recompute).
bool CheckCacheRoundTrip(const uav::RunOutput& out, std::string* detail) {
  core::StoredRun run;
  run.result = out.result;
  run.trajectory = out.trajectory;
  const std::uint64_t key = 0x5EED5EEDu;
  std::ostringstream os1;
  core::WriteStoredRun(os1, key, run);
  const auto back = core::ReadStoredRun(os1.str(), key);
  if (!back) {
    *detail = "stored run failed to read back";
    return false;
  }
  std::ostringstream os2;
  core::WriteStoredRun(os2, key, *back);
  if (os1.str() != os2.str()) {
    *detail = "stored run bytes changed across a round-trip";
    return false;
  }
  if (back->result.outcome != out.result.outcome ||
      back->result.flight_duration_s != out.result.flight_duration_s ||
      back->result.inner_violations != out.result.inner_violations) {
    *detail = "stored run metrics changed across a round-trip";
    return false;
  }
  return true;
}

}  // namespace

const char* ToString(FuzzFailureKind k) {
  switch (k) {
    case FuzzFailureKind::kInvariant: return "invariant";
    case FuzzFailureKind::kDeterminism: return "determinism";
    case FuzzFailureKind::kAxisPermutation: return "axis-permutation";
    case FuzzFailureKind::kTimeShift: return "time-shift";
    case FuzzFailureKind::kCacheRoundTrip: return "cache-round-trip";
  }
  return "?";
}

Fuzzer::Fuzzer(FuzzOptions opts) : opts_(std::move(opts)) {}

FuzzCase Fuzzer::Generate(int index) const {
  Rng rng{math::HashCombine(opts_.base_seed, 0xF000u + static_cast<std::uint64_t>(index))};
  const auto& fleet = core::SharedValenciaScenario();

  FuzzCase c;
  c.seed = rng.NextU64();
  c.mission = static_cast<int>(rng.UniformInt(fleet.size()));
  const auto& plan = fleet[static_cast<std::size_t>(c.mission)].plan;

  // Short synthetic cruise path: total length sized in *seconds of cruise*
  // so slow and fast drones get comparable flight times (~45-90 s total).
  const int n = 2 + static_cast<int>(rng.UniformInt(3));
  const double cruise_time_s = rng.Uniform(20.0, 50.0);
  const double leg = plan.cruise_speed_ms * cruise_time_s / n;
  const double alt = 15.0 + rng.Uniform(0.0, 15.0);
  double heading = rng.Uniform(0.0, 2.0 * kPi);
  Vec3 p{plan.home.x, plan.home.y, -alt};
  for (int k = 0; k < n; ++k) {
    c.waypoints.push_back(p);
    heading += rng.Uniform(-0.8, 0.8);
    p = p + Vec3{std::cos(heading) * leg, std::sin(heading) * leg, 0.0};
  }

  const double expected_s = 22.5 + cruise_time_s;  // climb + cruise + descend
  c.fault.type = static_cast<FaultType>(rng.UniformInt(11));
  c.fault.target = core::kAllFaultTargets[rng.UniformInt(3)];
  c.fault.start_time_s = SnapToGrid(rng.Uniform(5.0, 0.8 * expected_s));
  c.fault.duration_s = SnapToGrid(rng.Uniform(0.25, 20.0));

  if (rng.Uniform01() < 0.25) {  // overlapping second window
    FaultSpec second;
    second.type = static_cast<FaultType>(rng.UniformInt(11));
    second.target = core::kAllFaultTargets[rng.UniformInt(3)];
    second.start_time_s = SnapToGrid(
        rng.Uniform(c.fault.start_time_s, c.fault.start_time_s + c.fault.duration_s));
    second.duration_s = SnapToGrid(rng.Uniform(0.25, 8.0));
    c.second_fault = second;
  }

  c.noise_accel_sigma = rng.Uniform(5.0, 60.0);
  c.noise_gyro_sigma = rng.Uniform(0.2, 2.5);
  c.scale_factor = rng.Uniform(0.3, 2.5);
  c.wind_n = rng.Uniform(-3.0, 3.0);
  c.wind_e = rng.Uniform(-3.0, 3.0);
  c.gust = rng.Uniform(0.0, 1.0);
  return c;
}

FuzzCaseResult Fuzzer::RunCase(const FuzzCase& c, bool with_determinism) const {
  FuzzCaseResult res;
  std::string detail;

  if (!CheckAxisPermutation(c, &detail)) {
    res.failures.push_back({FuzzFailureKind::kAxisPermutation,
                            core::InvariantId::kStateFinite, detail});
  }
  if (!CheckTimeShift(c, &detail)) {
    res.failures.push_back(
        {FuzzFailureKind::kTimeShift, core::InvariantId::kStateFinite, detail});
  }

  const uav::RunOutput out = Simulate(c, opts_);
  res.result = out.result;
  for (const auto& v : out.violations) {
    res.failures.push_back({FuzzFailureKind::kInvariant, v.id, v.detail});
  }
  if (out.violations.empty() && out.total_violations > 0) {
    // Defensive: recording capped at zero — still a failure.
    res.failures.push_back({FuzzFailureKind::kInvariant,
                            core::InvariantId::kStateFinite,
                            "violations counted but not recorded"});
  }

  if (!CheckCacheRoundTrip(out, &detail)) {
    res.failures.push_back({FuzzFailureKind::kCacheRoundTrip,
                            core::InvariantId::kStateFinite, detail});
  }

  if (with_determinism) {
    const uav::RunOutput again = Simulate(c, opts_);
    if (StoredBytes(out) != StoredBytes(again)) {
      res.failures.push_back({FuzzFailureKind::kDeterminism,
                              core::InvariantId::kStateFinite,
                              "re-run produced different serialized output"});
    }
  }
  return res;
}

FuzzCase Fuzzer::Shrink(const FuzzCase& c, const FuzzFailure& failure,
                        int* runs_used) const {
  int used = 0;
  const bool with_det = failure.kind == FuzzFailureKind::kDeterminism;
  FuzzCase best = c;

  auto reproduces = [&](const FuzzCase& cand) {
    if (used >= opts_.shrink_budget) return false;
    used += with_det ? 2 : 1;
    const FuzzCaseResult r = RunCase(cand, with_det);
    for (const auto& f : r.failures) {
      if (f.SameSignature(failure)) return true;
    }
    return false;
  };

  bool progress = true;
  while (progress && used < opts_.shrink_budget) {
    progress = false;
    std::vector<FuzzCase> candidates;

    if (best.second_fault) {
      FuzzCase cand = best;
      cand.second_fault.reset();
      candidates.push_back(std::move(cand));
    }
    if (best.fault.duration_s > 0.5) {
      FuzzCase cand = best;
      cand.fault.duration_s = SnapToGrid(std::max(0.25, cand.fault.duration_s / 2.0));
      candidates.push_back(std::move(cand));
    }
    if (best.waypoints.size() > 1) {
      FuzzCase cand = best;
      cand.waypoints.resize(std::max<std::size_t>(1, cand.waypoints.size() / 2));
      candidates.push_back(std::move(cand));
    }
    if (best.noise_accel_sigma > 2.0 || best.noise_gyro_sigma > 0.1 ||
        std::abs(best.scale_factor - 1.0) > 0.05) {
      FuzzCase cand = best;
      cand.noise_accel_sigma /= 2.0;
      cand.noise_gyro_sigma /= 2.0;
      cand.scale_factor = 1.0 + (cand.scale_factor - 1.0) / 2.0;
      candidates.push_back(std::move(cand));
    }
    if (best.wind_n != 0.0 || best.wind_e != 0.0 || best.gust != 0.0) {
      FuzzCase cand = best;
      cand.wind_n = cand.wind_e = cand.gust = 0.0;
      candidates.push_back(std::move(cand));
    }

    for (auto& cand : candidates) {
      if (reproduces(cand)) {
        best = std::move(cand);
        progress = true;
        break;
      }
    }
  }

  if (runs_used) *runs_used = used;
  return best;
}

FuzzReport Fuzzer::Run() const {
  FuzzReport rep;

  // Fault-free determinism: once per session, the nominal (no-fault) flight
  // of the first case must be byte-reproducible.
  if (opts_.runs > 0) {
    FuzzCase nominal = Generate(0);
    nominal.fault.duration_s = 0.0;
    nominal.second_fault.reset();
    const uav::RunOutput a = Simulate(nominal, opts_);
    const uav::RunOutput b = Simulate(nominal, opts_);
    if (StoredBytes(a) != StoredBytes(b)) {
      rep.failures.push_back({FuzzFailureKind::kDeterminism,
                              core::InvariantId::kStateFinite,
                              "fault-free flight is not byte-reproducible"});
      ++rep.failed_cases;
    }
  }

  // Phase 1: every case runs through the oracles in parallel (shared-cursor
  // scheduler, core/scheduler.h). Results land in index-addressed slots, so
  // the sequential phase below reports, shrinks and writes .repro files in
  // case order — identical output for every thread count.
  std::vector<FuzzCaseResult> results(
      static_cast<std::size_t>(std::max(opts_.runs, 0)));
  core::SchedulerOptions sched;
  sched.num_threads = opts_.num_threads;
  core::ParallelFor(
      results.size(),
      [&](std::size_t i) {
        const bool det = opts_.determinism_every > 0 &&
                         static_cast<int>(i) % opts_.determinism_every == 0;
        results[i] = RunCase(Generate(static_cast<int>(i)), det);
        UAVRES_COUNT("fuzz.cases");
      },
      sched);

  // Phase 2: sequential, deterministic reporting and minimization.
  for (int i = 0; i < opts_.runs; ++i) {
    const FuzzCase c = Generate(i);
    const FuzzCaseResult& res = results[static_cast<std::size_t>(i)];
    ++rep.cases;
    if (opts_.verbose) {
      std::printf("case %4d  seed=%016llx  %-12s %-4s  outcome=%s%s\n", i,
                  static_cast<unsigned long long>(c.seed),
                  core::ToString(c.fault.type), core::ToString(c.fault.target),
                  core::ToString(res.result.outcome),
                  res.failed() ? "  FAILED" : "");
    }
    if (!res.failed()) continue;

    ++rep.failed_cases;
    UAVRES_COUNT("fuzz.failed_cases");
    const FuzzFailure& f = res.failures.front();
    rep.failures.push_back(f);
    std::printf("fuzz: case %d FAILED [%s] %s\n", i, ToString(f.kind),
                f.detail.c_str());

    int used = 0;
    const FuzzCase minimized = Shrink(c, f, &used);
    rep.shrink_runs += used;

    if (!opts_.out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(opts_.out_dir, ec);
      const std::string path = opts_.out_dir + "/case-" + std::to_string(i) +
                               "-" + ToString(f.kind) + ".repro";
      std::ofstream os(path, std::ios::trunc);
      if (os) {
        os << SerializeRepro(minimized, f);
        rep.repro_files.push_back(path);
        std::printf("fuzz: minimized repro written to %s (%d shrink runs)\n",
                    path.c_str(), used);
      }
    }
  }
  return rep;
}

std::string SerializeRepro(const FuzzCase& c, const FuzzFailure& failure) {
  std::ostringstream os;
  os << "uavres-fuzz-repro v1\n";
  os << "failure " << ToString(failure.kind);
  if (failure.kind == FuzzFailureKind::kInvariant) {
    os << " " << core::ToString(failure.invariant);
  }
  os << "\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "seed %llu\nmission %d\n",
                static_cast<unsigned long long>(c.seed), c.mission);
  os << buf;
  os << "fault " << FormatFault(c.fault) << "\n";
  if (c.second_fault) os << "second_fault " << FormatFault(*c.second_fault) << "\n";
  std::snprintf(buf, sizeof(buf),
                "noise_accel_sigma %.17g\nnoise_gyro_sigma %.17g\n"
                "scale_factor %.17g\nwind %.17g %.17g %.17g\n",
                c.noise_accel_sigma, c.noise_gyro_sigma, c.scale_factor, c.wind_n,
                c.wind_e, c.gust);
  os << buf;
  for (const auto& w : c.waypoints) {
    std::snprintf(buf, sizeof(buf), "waypoint %.17g %.17g %.17g\n", w.x, w.y, w.z);
    os << buf;
  }
  os << "end\n";
  return os.str();
}

std::optional<FuzzCase> ParseRepro(std::istream& is, std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<FuzzCase> {
    if (error) *error = msg;
    return std::nullopt;
  };

  std::string header;
  if (!std::getline(is, header) || header.rfind("uavres-fuzz-repro", 0) != 0) {
    return fail("not a uavres-fuzz-repro file");
  }

  FuzzCase c;
  c.waypoints.clear();
  bool have_fault = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") break;
    if (key == "failure") continue;  // informational; replay re-checks everything
    if (key == "seed") {
      unsigned long long v = 0;
      if (!(ls >> v)) return fail("bad seed line");
      c.seed = v;
    } else if (key == "mission") {
      if (!(ls >> c.mission)) return fail("bad mission line");
    } else if (key == "fault") {
      if (!ParseFault(ls, c.fault)) return fail("bad fault line");
      have_fault = true;
    } else if (key == "second_fault") {
      FaultSpec second;
      if (!ParseFault(ls, second)) return fail("bad second_fault line");
      c.second_fault = second;
    } else if (key == "noise_accel_sigma") {
      if (!(ls >> c.noise_accel_sigma)) return fail("bad noise_accel_sigma line");
    } else if (key == "noise_gyro_sigma") {
      if (!(ls >> c.noise_gyro_sigma)) return fail("bad noise_gyro_sigma line");
    } else if (key == "scale_factor") {
      if (!(ls >> c.scale_factor)) return fail("bad scale_factor line");
    } else if (key == "wind") {
      if (!(ls >> c.wind_n >> c.wind_e >> c.gust)) return fail("bad wind line");
    } else if (key == "waypoint") {
      Vec3 w;
      if (!(ls >> w.x >> w.y >> w.z)) return fail("bad waypoint line");
      c.waypoints.push_back(w);
    }
    // Unknown keys are skipped so the format can grow.
  }
  if (!have_fault) return fail("missing fault line");
  if (c.waypoints.empty()) return fail("missing waypoint lines");
  return c;
}

std::optional<FuzzCase> LoadRepro(const std::string& path, std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  return ParseRepro(is, error);
}

}  // namespace uavres::app
