// Runs one complete experiment (one mission, optionally one fault) and
// produces the paper's metrics plus the recorded trajectory.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>

#include "core/fault_model.h"
#include "core/invariants.h"
#include "core/metrics.h"
#include "core/scenario.h"
#include "sim/snapshot.h"
#include "telemetry/flight_log.h"
#include "telemetry/trajectory.h"
#include "uav/uav.h"

namespace uavres::uav {

/// Harness configuration for one run.
struct RunConfig {
  double tracking_interval_s{0.5};  ///< bubble/U-space tracking cadence
  double bubble_risk_factor{1.0};   ///< R in Eq. 3 (>= 1; the study uses 1)
  double record_rate_hz{2.0};       ///< trajectory recording rate
  double extra_time_s{180.0};       ///< grace beyond the expected duration
  bool record_trajectory{true};
  /// Online IMU-fault detection + estimator failover (DESIGN.md §15): sets
  /// UavConfig::detector.enabled on every vehicle (after the mutator runs)
  /// and populates the MissionResult detection/recovery fields. Off by
  /// default — results and store keys are then byte-identical to a build
  /// without the detector.
  bool recovery{false};
  /// Optional hook applied to the derived UavConfig before each run; the
  /// ablation benches use it to vary failsafe/EKF parameters.
  std::function<void(UavConfig&)> uav_config_mutator;

  /// Runtime invariant checking (core/invariants.h). kOff by default; the
  /// fuzzer and correctness tests turn it on. When enabled, the EKF's
  /// in-situ strict checks are enabled too.
  core::InvariantConfig invariants;
  /// Test-only tap: invoked with each InvariantSample before evaluation,
  /// letting mutation tests emulate a defect (e.g. a denormalized attitude
  /// quaternion) without patching the simulator.
  std::function<void(core::InvariantSample&)> invariant_tap;
};

/// Full output of one experiment.
struct RunOutput {
  core::MissionResult result;
  telemetry::Trajectory trajectory;
  telemetry::FlightLog log;
  /// Invariant violations (empty unless RunConfig::invariants enables checks;
  /// recording capped at InvariantConfig::max_recorded).
  std::vector<core::InvariantViolation> violations;
  std::size_t total_violations{0};
  /// Control steps this run executed. For a RunFromSnapshot resume the count
  /// includes the donor's pre-capture prefix (it is part of the restored
  /// bookkeeping), so it equals the full-run count for the same spec; the
  /// *incremental* cost of a fork is `steps - snapshot.step_count` (the
  /// `sim.steps_stepped` counter sums only those).
  std::uint64_t steps{0};
};

/// Default flight-stack configuration derived from a scenario drone spec.
UavConfig MakeUavConfig(const core::DroneSpec& spec);

/// Stable per-experiment seed of the vehicle, sensor and physics streams:
/// (seed base, mission) -> 64-bit seed. The fault is deliberately not an
/// input: every cell of a mission flies its gold run's noise up to the fault
/// onset, so a faulty run can resume from its gold run's onset snapshot. The
/// fault's identity seeds only its injector streams (FaultStreamSeed,
/// uav/modules.h).
std::uint64_t ExperimentSeed(std::uint64_t base, int mission_index);

/// Complete, self-describing specification of one experiment: which drone
/// flies which mission, which fault (if any) is injected, and the seed base.
/// This is the single argument of SimulationRunner::Run — the campaign,
/// fuzzer and benches all build these instead of picking among per-shape
/// entry points.
///
/// Identity: (drone, mission_index, fault, seed_base) fully determines the
/// simulation outcome for a given RunConfig. `ExperimentCacheKey(run, spec)`
/// (core/result_store.h) hashes exactly that tuple, and `operator<<` prints
/// it. `gold` is derived data — the reference trajectory some *other*
/// experiment produced — so it is deliberately excluded from both.
struct ExperimentSpec {
  core::DroneSpec drone;                 ///< drone + mission under test
  int mission_index{0};                  ///< index in the scenario (seed input)
  std::optional<core::FaultSpec> fault;  ///< nullopt = gold (fault-free) run
  std::uint64_t seed_base{2024};
  /// Optional gold reference for bubble-violation counting: the gold run's
  /// recorded Trajectory or its compact GoldPath. Without it, bubble radii
  /// are still tracked (the containment-ordering invariant needs them) but
  /// deviations are not counted as violations. Non-owning; must outlive the
  /// Run call.
  const telemetry::TruePath* gold{nullptr};

  bool IsGold() const { return !fault.has_value(); }
  /// The vehicle's seed (ExperimentSeed of the seed base and mission).
  std::uint64_t Seed() const { return ExperimentSeed(seed_base, mission_index); }
};

/// "mission 3 'VLC-04 W-E' fault=stuck@gyro t=[100,102) seed=2024" (gold
/// runs print "gold" in place of the fault clause).
std::ostream& operator<<(std::ostream& os, const ExperimentSpec& spec);

/// Runs missions to termination, computing outcome classification, bubble
/// violations against a gold reference, duration and EKF distance.
class SimulationRunner {
 public:
  explicit SimulationRunner(const RunConfig& cfg = {}) : cfg_(cfg) {}

  /// Runs one experiment. Thread-safe: `const`, and all mutable state lives
  /// in the output.
  RunOutput Run(const ExperimentSpec& spec) const;

  /// Scratch-reusing variant for tight experiment loops: clears `out` but
  /// keeps its buffers (trajectory sample storage, violation vectors), so a
  /// worker cycling through many runs stops paying one reserve/free pair
  /// per run. `out` must not alias `spec.gold`.
  void RunInto(const ExperimentSpec& spec, RunOutput& out) const;

  // --- Snapshot / fork checkpointing (DESIGN.md §16) ---
  //
  // CaptureSnapshot runs the experiment up to `t_snap` and stops;
  // RunWithCheckpoint runs it to termination (producing the exact RunInto
  // output — the bisection driver gets its magnitude-1.0 datapoint and the
  // full-run step count from the same pass) while capturing en route. The
  // capture point is the last control step whose in-step time is < t_snap,
  // computed in the integer step domain so a fault with onset t_snap has not
  // yet produced its first corrupted sample. Both return false — with `snap`
  // unusable — if the run terminates before reaching the capture step.
  //
  // RunFromSnapshot resumes `snap` on a freshly built vehicle for `spec` and
  // runs to termination; the result is bit-identical to an uncheckpointed
  // run of the same spec when the spec matches the donor's (fault magnitude
  // may differ freely: injector RNG draws are magnitude-independent). A
  // duration fork reuses the donor's injector streams (the kFaults section)
  // — a controlled experiment, not a replay of what a from-scratch run of
  // the modified spec would do. A fault-free donor (a gold run) seeds a
  // faulty fork too: the fork keeps its freshly built injectors, which is
  // exact while no fault window has opened by the capture, so the faulty
  // run equals its from-scratch run bit for bit. A donor that recorded its
  // trajectory seeds a fork that records none; a recording fork needs a
  // recording donor. Returns false on a version/config/structure mismatch,
  // or a fault-free donor captured after a window of the fork's opened
  // (outputs are then meaningless). `deadline_s` > 0 caps simulated time
  // (bisection probes stop shortly after the fault window instead of flying
  // the rest of the mission); hitting it classifies as kTimeout.
  bool CaptureSnapshot(const ExperimentSpec& spec, double t_snap,
                       sim::Snapshot& snap) const;
  bool RunWithCheckpoint(const ExperimentSpec& spec, double t_snap,
                         sim::Snapshot& snap, RunOutput& out) const;
  bool RunFromSnapshot(const ExperimentSpec& spec, const sim::Snapshot& snap,
                       RunOutput& out, double deadline_s = -1.0) const;

 private:
  RunConfig cfg_;
};

/// Structural digest of (harness config, experiment spec) stamped into every
/// snapshot and re-derived before a resume: drone identity, mission, seed
/// base and harness shape (recovery, invariant mode). Deliberately excludes
/// the fault — the axis a fork varies, down to none in a gold donor — and
/// trajectory recording, which RunFromSnapshot checks against the donor's
/// sections itself.
std::uint64_t SnapshotConfigDigest(const RunConfig& run, const ExperimentSpec& spec);

/// Terminal verdict on one stepping vehicle, shared by SimulationRunner and
/// uspace::FleetRunner so single- and multi-vehicle experiments classify
/// outcomes by exactly the same rules.
struct TerminalVerdict {
  bool ended{false};
  core::MissionOutcome outcome{core::MissionOutcome::kTimeout};
  double end_time{0.0};
};

/// Evaluate the terminal conditions for `uav` after a Step() at time `t`:
/// a physical crash ends the run (failsafe-first classification, Table IV:
/// if the controller engaged failsafe before the crash the run counts as a
/// failsafe), and landing ends it as completed or failsafe.
TerminalVerdict EvaluateTerminal(const Uav& uav, double t);

}  // namespace uavres::uav
