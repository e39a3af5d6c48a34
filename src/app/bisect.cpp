#include "app/bisect.h"

#include <algorithm>
#include <sstream>

#include "core/result_store.h"
#include "core/scenario.h"
#include "math/rng.h"
#include "telemetry/trajectory.h"

namespace uavres::app {

using core::MissionOutcome;

BisectReport RunBisect(const uav::RunConfig& run_cfg, uav::ExperimentSpec spec,
                       const BisectOptions& opts) {
  BisectReport rep;
  if (!spec.fault) {
    rep.error = "bisect needs a fault spec (a gold run has no boundary)";
    return rep;
  }
  spec.fault->magnitude = 1.0;
  const uav::SimulationRunner runner(run_cfg);

  // Donor pass: the full-strength experiment runs to termination with a
  // checkpoint captured at fault onset — one pass yields the m=1.0 verdict,
  // the full-mission step count (the grid baseline) and the fork point.
  sim::Snapshot snap;
  uav::RunOutput full;
  if (!runner.RunWithCheckpoint(spec, spec.fault->start_time_s, snap, full)) {
    rep.error = "run terminated before fault onset; nothing to bisect";
    return rep;
  }
  rep.full_outcome = full.result.outcome;
  rep.full_strength_crashes = full.result.outcome == MissionOutcome::kCrashed;
  rep.snapshot_step = snap.step_count;
  rep.full_run_steps = full.steps;

  // Probe horizon: past the fault window plus settle time; when the donor
  // crash itself lands later, extend so the m=1.0 bracket stays consistent.
  double deadline = spec.fault->start_time_s + spec.fault->duration_s + opts.settle_s;
  if (rep.full_strength_crashes) {
    deadline = std::max(deadline, full.result.crash_time_s + 5.0);
  }

  uav::RunOutput scratch;  // reused across probes (buffer reuse, like RunInto)
  const auto probe = [&](const uav::ExperimentSpec& pspec, double value,
                         std::vector<BisectProbe>& list) -> bool {
    if (!runner.RunFromSnapshot(pspec, snap, scratch, deadline)) return false;
    BisectProbe p;
    p.value = value;
    p.outcome = scratch.result.outcome;
    p.crashed = p.outcome == MissionOutcome::kCrashed;
    p.fork_steps = scratch.steps - static_cast<std::uint64_t>(snap.step_count);
    rep.fork_steps_total += p.fork_steps;
    list.push_back(p);
    return true;
  };

  if (rep.full_strength_crashes) {
    // Magnitude axis: m=0 degenerates to no corruption (survives), m=1
    // crashes per the donor run; shrink the bracket to the tolerance.
    double lo = 0.0;
    double hi = 1.0;
    while (hi - lo > opts.magnitude_tol &&
           static_cast<int>(rep.magnitude_probes.size()) < opts.max_probes) {
      const double mid = 0.5 * (lo + hi);
      uav::ExperimentSpec pspec = spec;
      pspec.fault->magnitude = mid;
      if (!probe(pspec, mid, rep.magnitude_probes)) {
        rep.error = "fork probe rejected (snapshot/config mismatch)";
        return rep;
      }
      (rep.magnitude_probes.back().crashed ? hi : lo) = mid;
    }
    rep.magnitude_lo = lo;
    rep.magnitude_hi = hi;

    if (opts.bisect_duration) {
      // Duration axis at full magnitude: zero-length survives, the donor
      // duration crashes. Duration forks reuse the donor's RNG streams via
      // snap.seed — a controlled experiment along this axis (DESIGN.md §16).
      double dlo = 0.0;
      double dhi = spec.fault->duration_s;
      while (dhi - dlo > opts.duration_tol_s &&
             static_cast<int>(rep.duration_probes.size()) < opts.max_probes) {
        const double mid = 0.5 * (dlo + dhi);
        uav::ExperimentSpec pspec = spec;
        pspec.fault->duration_s = mid;
        if (!probe(pspec, mid, rep.duration_probes)) {
          rep.error = "fork probe rejected (snapshot/config mismatch)";
          return rep;
        }
        (rep.duration_probes.back().crashed ? dhi : dlo) = mid;
      }
      rep.duration_bisected = true;
      rep.duration_lo_s = dlo;
      rep.duration_hi_s = dhi;
    }
  }

  rep.scratch_equiv_steps =
      static_cast<std::uint64_t>(rep.total_probes()) * rep.full_run_steps;
  rep.savings_factor =
      rep.fork_steps_total > 0
          ? static_cast<double>(rep.scratch_equiv_steps) /
                static_cast<double>(rep.fork_steps_total)
          : 0.0;
  rep.ok = true;
  return rep;
}

bool SpecFromSnapshot(const sim::Snapshot& snap, uav::ExperimentSpec& out) {
  const auto& fleet = core::SharedValenciaScenario();
  if (snap.mission_index < 0 ||
      snap.mission_index >= static_cast<int>(fleet.size())) {
    return false;
  }
  out = uav::ExperimentSpec{};
  out.drone = fleet[static_cast<std::size_t>(snap.mission_index)];
  out.mission_index = snap.mission_index;
  out.seed_base = snap.seed_base;
  if (snap.has_fault) {
    if (snap.fault_type < 0 ||
        snap.fault_type > static_cast<std::int32_t>(core::FaultType::kDrift)) {
      return false;
    }
    if (snap.fault_target < 0 ||
        snap.fault_target > static_cast<std::int32_t>(core::FaultTarget::kImu)) {
      return false;
    }
    core::FaultSpec f;
    f.type = static_cast<core::FaultType>(snap.fault_type);
    f.target = static_cast<core::FaultTarget>(snap.fault_target);
    f.start_time_s = snap.fault_start_s;
    f.duration_s = snap.fault_duration_s;
    f.magnitude = snap.fault_magnitude;
    out.fault = f;
  }
  return true;
}

namespace {

std::string SerializeOutput(const uav::RunOutput& out) {
  std::ostringstream os(std::ios::binary);
  core::WriteMissionResult(os, out.result);
  return os.str() + telemetry::Encode(out.trajectory);
}

}  // namespace

ForkFuzzReport RunForkFuzz(const sim::Snapshot& snap, int runs, std::uint64_t seed) {
  ForkFuzzReport rep;
  uav::ExperimentSpec spec;
  if (!SpecFromSnapshot(snap, spec)) {
    rep.error = "snapshot names an unknown mission or fault";
    return rep;
  }
  if (!spec.fault) {
    rep.error = "snapshot has no fault; nothing to vary";
    return rep;
  }

  // Invariant checking changes the harness shape (and the digest), so probe
  // from a checkpoint captured under THIS config — the file only has to
  // supply the donor spec; the one extra prefix run is paid once.
  uav::RunConfig cfg;
  cfg.invariants.mode = core::InvariantMode::kRecord;
  const uav::SimulationRunner runner(cfg);
  const sim::Snapshot* base = &snap;
  sim::Snapshot recaptured;
  if (snap.config_digest != uav::SnapshotConfigDigest(cfg, spec)) {
    if (!runner.CaptureSnapshot(spec, spec.fault->start_time_s, recaptured)) {
      rep.error = "recapture under the fuzz config failed";
      return rep;
    }
    base = &recaptured;
  }

  const double deadline =
      spec.fault->start_time_s + spec.fault->duration_s + 30.0;
  math::Rng rng{seed};
  uav::RunOutput a, b;
  for (int i = 0; i < runs; ++i) {
    uav::ExperimentSpec pspec = spec;
    pspec.fault->magnitude = rng.Uniform(0.0, 1.0);
    if (i % 2 == 1) {
      pspec.fault->duration_s = rng.Uniform(0.0, spec.fault->duration_s);
    }
    if (!runner.RunFromSnapshot(pspec, *base, a, deadline) ||
        !runner.RunFromSnapshot(pspec, *base, b, deadline)) {
      rep.error = "fork probe rejected (snapshot/config mismatch)";
      return rep;
    }
    ++rep.probes;
    if (SerializeOutput(a) != SerializeOutput(b)) {
      ++rep.determinism_failures;
      std::ostringstream msg;
      msg << "fork determinism: twin forks diverged for " << pspec;
      rep.failure_details.push_back(msg.str());
    }
    if (a.total_violations > 0) {
      ++rep.invariant_failures;
      std::ostringstream msg;
      msg << "invariant: " << a.total_violations << " violation(s) for " << pspec
          << " (first: " << (a.violations.empty() ? "?" : a.violations[0].detail)
          << ")";
      rep.failure_details.push_back(msg.str());
    }
  }
  rep.ok = true;
  return rep;
}

}  // namespace uavres::app
