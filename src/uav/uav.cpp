#include "uav/uav.h"

#include <cmath>

#include "math/num.h"

namespace uavres::uav {

using math::Vec3;

Uav::Uav(const UavConfig& cfg, const nav::MissionPlan& plan,
         std::optional<core::FaultSpec> fault, std::uint64_t seed,
         std::int64_t first_step)
    : cfg_(cfg),
      dt_(1.0 / cfg.control_rate_hz),
      time_(static_cast<double>(first_step) * dt_),
      step_count_(first_step),
      gps_divider_(RateDivider(cfg.control_rate_hz, cfg.gps.rate_hz)),
      baro_divider_(RateDivider(cfg.control_rate_hz, cfg.baro.rate_hz)),
      mag_divider_(RateDivider(cfg.control_rate_hz, cfg.mag.rate_hz)),
      imu_mod_(cfg.imu_noise, cfg.imu_ranges, seed, &bus_),
      gps_mod_(cfg.gps, seed, &bus_),
      baro_mod_(cfg.baro, baro_divider_, seed, &bus_),
      mag_mod_(cfg.mag, seed, &bus_),
      estimator_(cfg.ekf, &bus_),
      health_mod_(cfg.health, &bus_, &log_),
      commander_mod_(plan, cfg.commander, &bus_, &log_),
      control_mod_(PositionControlWithHoverThrust(cfg), cfg.attitude_control, cfg.rate_control,
                   control::MixerConfigFromQuadrotor(cfg.airframe), &bus_),
      physics_(cfg, seed, &bus_, &log_),
      battery_mod_(cfg.battery, &bus_),
      faults_(cfg, fault, seed, &bus_, &log_),
      detectors_(cfg.detector, cfg.control_rate_hz, &bus_, &log_) {
  // Initial pose: at home, yawed along the first mission leg.
  const Vec3 start = plan.home;
  const double yaw0 = InitialMissionYaw(plan);
  physics_.Reset(start, yaw0, 0.0);
  estimator_.Init(start, yaw0);
  if (detectors_.enabled()) estimator_.AttachFailover(&detectors_.detector());
  // Seed the step-0 inputs that carry one-step latencies: the sensors read
  // the initial truth, the estimator reads the monitor's initial selection,
  // and the commander reads the fresh battery state.
  battery_mod_.PublishState(0.0);
  bus_.imu_select.Publish({health_mod_.monitor().active_imu_unit()}, 0.0);

  // Fixed module order — the monolith's step order, made explicit.
  schedule_.Add(&imu_mod_);
  schedule_.Add(&gps_mod_, gps_divider_);
  schedule_.Add(&baro_mod_, baro_divider_);
  schedule_.Add(&mag_mod_, mag_divider_);
  schedule_.Add(&estimator_);
  schedule_.Add(&health_mod_);
  schedule_.Add(&commander_mod_);
  schedule_.Add(&control_mod_);
  schedule_.Add(&physics_);
  schedule_.Add(&battery_mod_);
}

void Uav::Step() {
  time_ = static_cast<double>(step_count_) * dt_;
  schedule_.RunStep(step_count_, time_, dt_);
  if (tap_) tap_->Capture();
  ++step_count_;
}

void Uav::SaveState(sim::Snapshot& snap) {
  const auto section = [&snap](SnapshotSectionId id) {
    return math::StateWriter(&snap.Add(static_cast<std::uint32_t>(id)).bytes);
  };
  {
    auto w = section(SnapshotSectionId::kVehicleCore);
    w(time_, step_count_, log_);
  }
  {
    auto w = section(SnapshotSectionId::kBus);
    bus_.VisitState(w);
  }
  { auto w = section(SnapshotSectionId::kImu); imu_mod_.SaveState(w); }
  { auto w = section(SnapshotSectionId::kGps); gps_mod_.SaveState(w); }
  { auto w = section(SnapshotSectionId::kBaro); baro_mod_.SaveState(w); }
  { auto w = section(SnapshotSectionId::kMag); mag_mod_.SaveState(w); }
  { auto w = section(SnapshotSectionId::kEstimator); estimator_.SaveState(w); }
  { auto w = section(SnapshotSectionId::kHealth); health_mod_.SaveState(w); }
  { auto w = section(SnapshotSectionId::kCommander); commander_mod_.SaveState(w); }
  { auto w = section(SnapshotSectionId::kControl); control_mod_.SaveState(w); }
  { auto w = section(SnapshotSectionId::kPhysics); physics_.SaveState(w); }
  { auto w = section(SnapshotSectionId::kBattery); battery_mod_.SaveState(w); }
  { auto w = section(SnapshotSectionId::kFaults); faults_.SaveState(w); }
  if (detectors_.enabled()) {
    auto w = section(SnapshotSectionId::kDetector);
    detectors_.SaveState(w);
  }
}

bool Uav::RestoreState(const sim::Snapshot& snap) {
  // Every restore goes through this gate: the section must exist, parse
  // without underrun, and be consumed to the last byte.
  const auto restore = [&snap](SnapshotSectionId id, auto&& fn) {
    const sim::SnapshotSection* s = snap.Find(static_cast<std::uint32_t>(id));
    if (s == nullptr) return false;
    math::StateReader r(s->bytes);
    if (!fn(r)) return false;
    return r.ok() && r.fully_consumed();
  };
  const auto module = [&restore](SnapshotSectionId id, auto& mod) {
    return restore(id, [&mod](math::StateReader& r) {
      mod.RestoreState(r);
      return true;
    });
  };
  bool ok = restore(SnapshotSectionId::kVehicleCore, [this](math::StateReader& r) {
    r(time_, step_count_, log_);
    return true;
  });
  ok = ok && restore(SnapshotSectionId::kBus, [this](math::StateReader& r) {
    bus_.VisitState(r);
    return true;
  });
  ok = ok && module(SnapshotSectionId::kImu, imu_mod_);
  ok = ok && module(SnapshotSectionId::kGps, gps_mod_);
  ok = ok && module(SnapshotSectionId::kBaro, baro_mod_);
  ok = ok && module(SnapshotSectionId::kMag, mag_mod_);
  ok = ok && module(SnapshotSectionId::kEstimator, estimator_);
  ok = ok && module(SnapshotSectionId::kHealth, health_mod_);
  ok = ok && module(SnapshotSectionId::kCommander, commander_mod_);
  ok = ok && module(SnapshotSectionId::kControl, control_mod_);
  ok = ok && module(SnapshotSectionId::kPhysics, physics_);
  ok = ok && module(SnapshotSectionId::kBattery, battery_mod_);
  ok = ok && restore(SnapshotSectionId::kFaults, [this](math::StateReader& r) {
    return faults_.RestoreState(r);
  });
  // Detector presence must match: a snapshot from a detector-enabled run
  // cannot resume on a detector-less vehicle (and vice versa).
  const bool has_detector =
      snap.Find(static_cast<std::uint32_t>(SnapshotSectionId::kDetector)) != nullptr;
  if (has_detector != detectors_.enabled()) return false;
  if (detectors_.enabled()) {
    ok = ok && module(SnapshotSectionId::kDetector, detectors_);
  }
  return ok;
}

}  // namespace uavres::uav
