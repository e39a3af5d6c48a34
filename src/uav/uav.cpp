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

template <class Fn>
bool Uav::Sections(Fn&& section) {
  using enum SnapshotSectionId;
  const auto core = [this](auto& v) { v(time_, step_count_, log_); };
  return section(kVehicleCore, core) && section(kBus, bus_) && section(kImu, imu_mod_) &&
         section(kGps, gps_mod_) && section(kBaro, baro_mod_) && section(kMag, mag_mod_) &&
         section(kEstimator, estimator_) && section(kHealth, health_mod_) &&
         section(kCommander, commander_mod_) && section(kControl, control_mod_) &&
         section(kPhysics, physics_) && section(kBattery, battery_mod_) &&
         section(kFaults, faults_) && (!detectors_.enabled() || section(kDetector, detectors_));
}

void Uav::SaveState(sim::Snapshot& snap) {
  Sections([&snap](SnapshotSectionId id, const auto& fields) {
    SaveSection(snap, id, fields);
    return true;
  });
}

bool Uav::RestoreState(const sim::Snapshot& snap, bool restore_faults) {
  // Detector presence must match: a snapshot from a detector-enabled run
  // cannot resume on a detector-less vehicle (and vice versa).
  const bool has_detector =
      snap.Find(static_cast<std::uint32_t>(SnapshotSectionId::kDetector)) != nullptr;
  if (has_detector != detectors_.enabled()) return false;
  return Sections([&snap, restore_faults](SnapshotSectionId id, auto& fields) {
    return (id == SnapshotSectionId::kFaults && !restore_faults) ||
           RestoreSection(snap, id, fields);
  });
}

}  // namespace uavres::uav
