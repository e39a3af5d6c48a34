#include "uav/simulation_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>

#include "core/bubble.h"
#include "math/num.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"

namespace uavres::uav {

using core::MissionOutcome;
using core::MissionResult;
using math::Vec3;

UavConfig MakeUavConfig(const core::DroneSpec& spec) {
  UavConfig cfg;
  cfg.airframe = spec.MakeAirframe();
  cfg.wind.mean_wind_ned = {0.4, -0.3, 0.0};  // light urban breeze
  cfg.wind.gust_stddev = 0.25;
  return cfg;
}

std::uint64_t ExperimentSeed(std::uint64_t base, int mission_index,
                             const std::optional<core::FaultSpec>& fault) {
  std::uint64_t s = math::HashCombine(base, 0xA11CE5EEDULL);
  s = math::HashCombine(s, static_cast<std::uint64_t>(mission_index) + 1);
  if (fault) {
    s = math::HashCombine(s, static_cast<std::uint64_t>(fault->type) + 11);
    s = math::HashCombine(s, static_cast<std::uint64_t>(fault->target) + 101);
    s = math::HashCombine(s, static_cast<std::uint64_t>(fault->duration_s * 1000.0) + 1009);
  }
  return s;
}

std::ostream& operator<<(std::ostream& os, const ExperimentSpec& spec) {
  os << "mission " << spec.mission_index << " '" << spec.drone.name << "' ";
  if (spec.fault) {
    os << "fault=" << core::ToString(spec.fault->type) << '@'
       << core::ToString(spec.fault->target) << " t=[" << spec.fault->start_time_s
       << ',' << spec.fault->start_time_s + spec.fault->duration_s << ')';
    if (spec.fault->magnitude != 1.0) os << " m=" << spec.fault->magnitude;
  } else {
    os << "gold";
  }
  return os << " seed=" << spec.seed_base;
}

TerminalVerdict EvaluateTerminal(const Uav& uav, double t) {
  TerminalVerdict v;
  const nav::CrashDetector& crash = uav.crash_detector();
  const nav::Commander& commander = uav.commander();
  if (crash.crashed()) {
    v.ended = true;
    v.end_time = crash.crash_time();
    // Failsafe-first classification (Table IV): if the controller engaged
    // failsafe before the physical crash, the run counts as a failsafe.
    const nav::HealthMonitor& health = uav.health();
    v.outcome = (health.failsafe_active() && health.failsafe_time() <= v.end_time)
                    ? MissionOutcome::kFailsafe
                    : MissionOutcome::kCrashed;
  } else if (commander.landed()) {
    v.ended = true;
    v.end_time = commander.landed_time().value_or(t);
    v.outcome = commander.MissionCompleted() ? MissionOutcome::kCompleted
                                             : MissionOutcome::kFailsafe;
  }
  return v;
}

namespace {

// One experiment's per-step metric accumulation and terminal classification,
// shared by the from-scratch, checkpointing and forked run loops.
class StepBookkeeper {
 public:
  StepBookkeeper(const RunConfig& cfg, const ExperimentSpec& espec,
                 const UavConfig& uav_cfg, RunOutput& out)
      : cfg_(cfg),
        espec_(espec),
        out_(out),
        checker_(cfg.invariants),
        max_time_(espec.drone.plan.ExpectedDuration() + cfg.extra_time_s),
        record_interval_(1.0 / cfg.record_rate_hz),
        bubble_params_(MakeBubbleParams(cfg, espec)),
        bubbles_(bubble_params_),
        mass_kg_(uav_cfg.airframe.mass_kg),
        next_track_(cfg.tracking_interval_s),  // first instant after takeoff
        last_est_pos_(espec.drone.plan.home),
        // Plausibility cap applied by the tracking system: a drone cannot
        // move faster than its physical top speed, so per-interval reported
        // distance and airspeed are clamped even when the EKF output is
        // fault-corrupted.
        max_speed_plausible_(2.0 * bubble_params_.top_speed_ms),
        max_step_dist_(max_speed_plausible_ * cfg.tracking_interval_s),
        end_time_(max_time_),
        wall_start_(std::chrono::steady_clock::now()) {
    UAVRES_COUNT("sim.runs");
    // Reset scratch while keeping buffer capacity across runs.
    out_.result = core::MissionResult{};
    out_.trajectory.Clear();
    out_.violations.clear();
    out_.total_violations = 0;
    out_.steps = 0;

    out_.result.mission_index = espec.mission_index;
    out_.result.mission_name = espec.drone.name;
    out_.result.is_gold = !espec.fault.has_value();
    if (espec.fault) out_.result.fault = *espec.fault;

    if (cfg_.record_trajectory) {
      out_.trajectory.Reserve(static_cast<std::size_t>(max_time_ / record_interval_) + 8);
    }
  }

  bool checker_enabled() const { return checker_.enabled(); }
  double max_time() const { return max_time_; }
  bool ended() const { return ended_; }

  /// Serialize the run-mutable bookkeeping into the snapshot's harness
  /// section (wall_start_ is profiling-only and deliberately excluded; the
  /// config-derived members are rebuilt by the constructor).
  void SaveState(sim::Snapshot& snap) {
    math::StateWriter w(&snap.Add(kHarnessSection).bytes);
    VisitHarnessState(w);
  }
  bool RestoreState(const sim::Snapshot& snap) {
    const sim::SnapshotSection* s = snap.Find(kHarnessSection);
    if (s == nullptr) return false;
    math::StateReader r(s->bytes);
    VisitHarnessState(r);
    return r.ok() && r.fully_consumed();
  }

  // Runs after each Step() at post-step time `t`.
  void AfterStep(double t, const Uav& uav) {
    ++steps_;
    const std::optional<core::FaultSpec>& fault = espec_.fault;
    if (fault && t < fault->start_time_s) {
      // Health-monitor confirm charge just before fault onset: the failsafe-
      // latency invariant only binds when the pipeline starts uncharged.
      anomaly_at_onset_ = uav.health().anomaly_level();
    }
    const auto& truth = uav.quad().state();
    const auto& est = uav.ekf().state();

    if (cfg_.record_trajectory && t >= next_record_) {
      telemetry::TrajectorySample s;
      s.t = t;
      s.pos_true = truth.pos;
      s.pos_est = est.pos;
      s.vel_true = truth.vel;
      s.vel_est = est.vel;
      s.att_true = truth.att;
      s.att_est = est.att;
      s.airspeed_est = est.vel.Norm();
      s.fault_active = uav.fault_active();
      out_.trajectory.Add(s);
      next_record_ += record_interval_;
    }

    if (t >= next_track_) {
      next_track_ += cfg_.tracking_interval_s;
      const double step_dist =
          std::min((est.pos - last_est_pos_).Norm(), max_step_dist_);
      distance_est_ += step_dist;
      last_est_pos_ = est.pos;
      // Radii are tracked even without a gold reference (the containment-
      // ordering invariant needs them); deviations only count against one.
      if (uav.airborne_seen()) {
        const double deviation = espec_.gold != nullptr
                                     ? espec_.gold->DistanceToTruePath(truth.pos)
                                     : 0.0;
        const double airspeed = std::min(est.vel.Norm(), max_speed_plausible_);
        bubbles_.Track(deviation, airspeed, step_dist);
      }

      if (checker_.enabled()) {
        core::InvariantSample inv;
        inv.t = t;
        inv.dt = t - last_check_t_;
        inv.pos_true = truth.pos;
        inv.vel_true = truth.vel;
        inv.att_true = truth.att;
        inv.pos_est = est.pos;
        inv.vel_est = est.vel;
        inv.att_est = est.att;
        inv.thrust_cmd = uav.last_thrust_cmd();
        inv.mass_kg = mass_kg_;
        inv.energy_j = 0.5 * mass_kg_ * truth.vel.NormSq() +
                       mass_kg_ * math::kGravity * (-truth.pos.z);
        inv.bubble_inner_m = bubbles_.inner_radius();
        inv.bubble_outer_m = bubbles_.last_outer_radius();
        inv.bubble_tracked = bubbles_.instants_tracked() > 0;
        inv.cov = &uav.ekf().covariance();
        inv.ekf_status = &uav.ekf().status();
        if (cfg_.invariant_tap) cfg_.invariant_tap(inv);
        checker_.CheckStep(inv);
        last_check_t_ = t;
      }
    }

    // --- Terminal conditions (shared with the fleet runner). ---
    const TerminalVerdict verdict = EvaluateTerminal(uav, t);
    if (verdict.ended) {
      end_time_ = verdict.end_time;
      outcome_ = verdict.outcome;
      ended_ = true;
    }
  }

  // Finalizes the RunOutput once the vehicle stops stepping (terminal verdict
  // or timeout).
  void Finish(const Uav& uav) {
    const nav::HealthMonitor& health = uav.health();
    out_.result.outcome = outcome_;
    out_.result.flight_duration_s = end_time_;
    out_.result.distance_km = distance_est_ / 1000.0;
    out_.result.inner_violations = bubbles_.inner_violations();
    out_.result.outer_violations = bubbles_.outer_violations();
    out_.result.max_deviation_m = bubbles_.max_deviation();
    out_.result.failsafe_reason = health.reason();
    out_.result.failsafe_time_s = health.failsafe_time();
    out_.result.crash_reason = uav.crash_detector().reason();
    out_.result.crash_time_s = uav.crash_detector().crash_time();
    if (uav.detector_enabled()) {
      const estimation::ImuFaultDetector& d = uav.detector();
      out_.result.detector_enabled = true;
      out_.result.detection_time_s = d.first_confirm_time_s();
      out_.result.recovery_engaged = d.confirm_events() > 0;
      out_.result.recovery_success =
          out_.result.recovery_engaged && outcome_ == MissionOutcome::kCompleted;
      if (espec_.fault) {
        // Latency counts only confirmations at/after onset; an earlier one
        // is a false positive (the fault cannot have caused it).
        if (d.first_confirm_time_s() >= espec_.fault->start_time_s) {
          out_.result.detection_latency_s =
              d.first_confirm_time_s() - espec_.fault->start_time_s;
        } else if (d.first_confirm_time_s() >= 0.0) {
          out_.result.false_positives = 1;
        }
      } else {
        // Fault-free run: every confirmation is a false positive.
        out_.result.false_positives = d.confirm_events();
      }
    }
    out_.log = uav.log();

    if (checker_.enabled()) {
      core::InvariantEndSample end;
      end.fault_injected = espec_.fault.has_value();
      if (espec_.fault) {
        end.fault_start_s = espec_.fault->start_time_s;
        end.fault_duration_s = espec_.fault->duration_s;
      }
      end.failsafe_sensor_fault = health.reason() == nav::FailsafeReason::kSensorFault;
      end.failsafe_time_s = health.failsafe_time();
      end.anomaly_at_onset = anomaly_at_onset_;
      checker_.CheckEnd(end);
      out_.violations = checker_.violations();
      out_.total_violations = checker_.total_violations();
    }

    out_.steps = steps_;

    // Per-run accounting: the step count and outcome tallies are
    // deterministic oracles (the golden-trace test asserts on them); the
    // wall-clock histogram is the profiling signal.
    UAVRES_COUNT_N("sim.steps", steps_);
    switch (outcome_) {
      case MissionOutcome::kCompleted:
        UAVRES_COUNT("sim.outcome.completed");
        break;
      case MissionOutcome::kCrashed:
        UAVRES_COUNT("sim.outcome.crashed");
        break;
      case MissionOutcome::kFailsafe:
        UAVRES_COUNT("sim.outcome.failsafe");
        break;
      case MissionOutcome::kTimeout:
        UAVRES_COUNT("sim.outcome.timeout");
        break;
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  wall_start_)
            .count();
    UAVRES_OBSERVE("sim.run_wall_ms", wall_ms, 50, 100, 250, 500, 1000, 2500, 5000,
                   10000, 30000);
  }

 private:
  static constexpr std::uint32_t kHarnessSection =
      static_cast<std::uint32_t>(SnapshotSectionId::kHarness);

  template <class Visitor>
  void VisitHarnessState(Visitor&& v) {
    v(next_record_, next_track_, last_check_t_, last_est_pos_, distance_est_,
      end_time_, outcome_, steps_, anomaly_at_onset_, ended_, bubbles_, checker_,
      out_.trajectory);
  }

  static core::BubbleParams MakeBubbleParams(const RunConfig& cfg,
                                             const ExperimentSpec& espec) {
    core::BubbleParams p = espec.drone.MakeBubbleParams();
    p.tracking_interval_s = cfg.tracking_interval_s;
    p.risk_factor = cfg.bubble_risk_factor;
    return p;
  }

  const RunConfig& cfg_;
  const ExperimentSpec& espec_;
  RunOutput& out_;
  core::InvariantChecker checker_;
  double max_time_;
  double record_interval_;
  core::BubbleParams bubble_params_;
  core::BubbleMonitor bubbles_;
  double mass_kg_;

  double next_record_{0.0};
  double next_track_;
  double last_check_t_{0.0};  // previous invariant-check instant
  Vec3 last_est_pos_;
  double distance_est_{0.0};
  double max_speed_plausible_;
  double max_step_dist_;
  double end_time_;
  MissionOutcome outcome_{MissionOutcome::kTimeout};
  std::uint64_t steps_{0};
  double anomaly_at_onset_{0.0};
  bool ended_{false};
  std::chrono::steady_clock::time_point wall_start_;
};

// The capture point for `t_snap`, in the exact integer step domain: the
// snapshot is taken after the step with this count, i.e. after the last
// control step whose in-step time is strictly below t_snap (so a fault with
// onset t_snap has not yet corrupted a sample). Never compares accumulated
// float time against t_snap — 90.0 / (1/250.0) style drift cannot move the
// boundary.
std::int64_t CaptureStep(double t_snap, double dt) {
  const auto s = static_cast<std::int64_t>(std::ceil(t_snap / dt - 1e-9));
  return std::max<std::int64_t>(s, 1);
}

void FillSnapshotMeta(const RunConfig& cfg, const ExperimentSpec& espec, const Uav& uav,
                      sim::Snapshot& snap) {
  snap.version = sim::kSnapshotVersion;
  snap.seed = espec.Seed();
  snap.step_count = uav.step_count();
  snap.time_s = uav.time();
  snap.mission_index = espec.mission_index;
  snap.config_digest = SnapshotConfigDigest(cfg, espec);
  snap.mission_name = espec.drone.name;
  snap.seed_base = espec.seed_base;
  snap.has_fault = espec.fault.has_value();
  if (espec.fault) {
    snap.fault_type = static_cast<std::int32_t>(espec.fault->type);
    snap.fault_target = static_cast<std::int32_t>(espec.fault->target);
    snap.fault_start_s = espec.fault->start_time_s;
    snap.fault_duration_s = espec.fault->duration_s;
    snap.fault_magnitude = espec.fault->magnitude;
  }
  snap.sections.clear();
}

}  // namespace

std::uint64_t SnapshotConfigDigest(const RunConfig& run, const ExperimentSpec& spec) {
  // Plain FNV-1a over typed fields (the cache-key hasher lives a layer above
  // this library, so the digest keeps its own copy of the fold).
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ULL;
    }
  };
  mix(1);  // digest schema
  for (const char c : spec.drone.name) mix(static_cast<std::uint8_t>(c));
  mix(static_cast<std::uint64_t>(spec.mission_index));
  mix(static_cast<std::uint64_t>(spec.drone.plan.waypoints.size()));
  mix(spec.seed_base);
  mix(static_cast<std::uint64_t>(run.recovery ? 1 : 0));
  mix(static_cast<std::uint64_t>(run.record_trajectory ? 1 : 0));
  mix(static_cast<std::uint64_t>(run.invariants.mode));
  mix(static_cast<std::uint64_t>(spec.fault.has_value() ? 1 : 0));
  return h;
}

RunOutput SimulationRunner::Run(const ExperimentSpec& espec) const {
  RunOutput out;
  RunInto(espec, out);
  return out;
}

void SimulationRunner::RunInto(const ExperimentSpec& espec, RunOutput& out) const {
  UAVRES_TRACE_SCOPE("sim/run");
  UavConfig uav_cfg = MakeUavConfig(espec.drone);
  if (cfg_.uav_config_mutator) cfg_.uav_config_mutator(uav_cfg);
  if (cfg_.recovery) uav_cfg.detector.enabled = true;
  StepBookkeeper bk(cfg_, espec, uav_cfg, out);
  if (bk.checker_enabled()) uav_cfg.ekf.strict_invariant_checks = true;
  Uav uav(uav_cfg, espec.drone.plan, espec.fault, espec.Seed());

  while (uav.time() < bk.max_time()) {
    uav.Step();
    bk.AfterStep(uav.time(), uav);
    if (bk.ended()) break;
  }
  bk.Finish(uav);
}

bool SimulationRunner::RunCheckpointedImpl(const ExperimentSpec& espec, double t_snap,
                                           sim::Snapshot& snap, RunOutput& out,
                                           bool stop_at_capture) const {
  UAVRES_TRACE_SCOPE("sim/run_checkpoint");
  UavConfig uav_cfg = MakeUavConfig(espec.drone);
  if (cfg_.uav_config_mutator) cfg_.uav_config_mutator(uav_cfg);
  if (cfg_.recovery) uav_cfg.detector.enabled = true;
  StepBookkeeper bk(cfg_, espec, uav_cfg, out);
  if (bk.checker_enabled()) uav_cfg.ekf.strict_invariant_checks = true;
  Uav uav(uav_cfg, espec.drone.plan, espec.fault, espec.Seed());

  const std::int64_t capture_step = CaptureStep(t_snap, uav.dt());
  bool captured = false;
  while (uav.time() < bk.max_time()) {
    uav.Step();
    bk.AfterStep(uav.time(), uav);
    if (!captured && uav.step_count() == capture_step) {
      // Capture after this step's bookkeeping so the restored harness resumes
      // mid-run exactly where the donor's left off (even if the run also
      // terminated on this very step — the fork then finalizes immediately).
      FillSnapshotMeta(cfg_, espec, uav, snap);
      uav.SaveState(snap);
      bk.SaveState(snap);
      captured = true;
      if (stop_at_capture) return true;
    }
    if (bk.ended()) break;
  }
  bk.Finish(uav);
  return captured;
}

bool SimulationRunner::CaptureSnapshot(const ExperimentSpec& spec, double t_snap,
                                       sim::Snapshot& snap) const {
  RunOutput scratch;  // discarded: the run stops at the capture point
  return RunCheckpointedImpl(spec, t_snap, snap, scratch, /*stop_at_capture=*/true);
}

bool SimulationRunner::RunWithCheckpoint(const ExperimentSpec& spec, double t_snap,
                                         sim::Snapshot& snap, RunOutput& out) const {
  return RunCheckpointedImpl(spec, t_snap, snap, out, /*stop_at_capture=*/false);
}

bool SimulationRunner::RunFromSnapshot(const ExperimentSpec& espec,
                                       const sim::Snapshot& snap, RunOutput& out,
                                       double deadline_s) const {
  UAVRES_TRACE_SCOPE("sim/run_fork");
  if (snap.version != sim::kSnapshotVersion) return false;
  if (snap.config_digest != SnapshotConfigDigest(cfg_, espec)) return false;
  UavConfig uav_cfg = MakeUavConfig(espec.drone);
  if (cfg_.uav_config_mutator) cfg_.uav_config_mutator(uav_cfg);
  if (cfg_.recovery) uav_cfg.detector.enabled = true;
  StepBookkeeper bk(cfg_, espec, uav_cfg, out);
  if (bk.checker_enabled()) uav_cfg.ekf.strict_invariant_checks = true;
  // The vehicle re-derives its RNG streams from the donor's stored seed: a
  // magnitude fork is seed-identical by construction (ExperimentSeed ignores
  // magnitude); a duration fork keeps the donor's sensor/fault noise streams
  // — a controlled experiment along the duration axis, not a replay of what
  // a from-scratch run of the modified spec (different derived seed) does.
  Uav uav(uav_cfg, espec.drone.plan, espec.fault, snap.seed);
  if (!uav.RestoreState(snap)) return false;
  if (!bk.RestoreState(snap)) return false;

  const double deadline =
      deadline_s > 0.0 ? std::min(deadline_s, bk.max_time()) : bk.max_time();
  while (!bk.ended() && uav.time() < deadline) {
    uav.Step();
    bk.AfterStep(uav.time(), uav);
  }
  bk.Finish(uav);
  return true;
}

}  // namespace uavres::uav
