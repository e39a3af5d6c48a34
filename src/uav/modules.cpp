#include "uav/modules.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "math/num.h"
#include "math/rng.h"

namespace uavres::uav {

using math::Rng;
using math::Vec3;

int RateDivider(double control_rate_hz, double sensor_rate_hz) {
  return std::max(1, static_cast<int>(std::lround(control_rate_hz / sensor_rate_hz)));
}

double InitialMissionYaw(const nav::MissionPlan& plan) {
  if (plan.waypoints.size() > 1) {
    const Vec3 dir = plan.waypoints[1] - plan.waypoints[0];
    if (dir.NormXY() > 0.1) return std::atan2(dir.y, dir.x);
  }
  return 0.0;
}

control::PositionControlConfig PositionControlWithHoverThrust(const UavConfig& cfg) {
  auto pc = cfg.position_control;
  pc.hover_thrust = sim::HoverThrustFraction(cfg.airframe);
  return pc;
}

// --- ImuModule ---

ImuModule::ImuModule(const sensors::ImuNoiseConfig& noise, const sensors::ImuRanges& ranges,
                     std::uint64_t seed, bus::FlightBus* bus)
    : imu_(noise, ranges, Rng{math::HashCombine(seed, 0x02)}), bus_(bus) {}

void ImuModule::Step(const bus::StepInfo& info) {
  bus::ImuSignal sig;
  sig.units = imu_.SampleAll(bus_->truth.Latest().state, info.t, info.dt);
  bus_->imu.Publish(sig, info.t);
}

// --- GpsModule ---

GpsModule::GpsModule(const sensors::GpsConfig& cfg, std::uint64_t seed, bus::FlightBus* bus)
    : gps_(cfg, Rng{math::HashCombine(seed, 0x03)}), bus_(bus) {}

void GpsModule::Step(const bus::StepInfo& info) {
  bus_->gps.Publish(gps_.Sample(bus_->truth.Latest().state, info.t), info.t);
}

// --- BaroModule ---

BaroModule::BaroModule(const sensors::BaroConfig& cfg, int divider, std::uint64_t seed,
                       bus::FlightBus* bus)
    : baro_(cfg, Rng{math::HashCombine(seed, 0x04)}), divider_(divider), bus_(bus) {}

void BaroModule::Step(const bus::StepInfo& info) {
  // The sensor integrates pressure drift over its own sampling period.
  bus_->baro.Publish(
      baro_.Sample(bus_->truth.Latest().state, info.t, info.dt * divider_), info.t);
}

// --- MagModule ---

MagModule::MagModule(const sensors::MagConfig& cfg, std::uint64_t seed, bus::FlightBus* bus)
    : mag_(cfg, Rng{math::HashCombine(seed, 0x05)}), bus_(bus) {}

void MagModule::Step(const bus::StepInfo& info) {
  bus_->mag.Publish(mag_.Sample(bus_->truth.Latest().state, info.t), info.t);
}

// --- EstimatorModule ---

EstimatorModule::EstimatorModule(const estimation::EkfConfig& cfg, bus::FlightBus* bus)
    : ekf_(cfg), bus_(bus) {}

void EstimatorModule::Step(const bus::StepInfo& info) {
  const bus::ImuSignal& sig = bus_->imu.Latest();
  const auto unit = static_cast<std::size_t>(bus_->imu_select.Latest().unit %
                                             bus::ImuSignal::kUnits);
  ekf_.PredictImu(sig.units[unit], info.dt);
  if (detector_ != nullptr) comp_.Update(sig.units[unit], info.dt);
  if (bus_->gps.generation() != gps_gen_) {
    gps_gen_ = bus_->gps.generation();
    ekf_.FuseGps(bus_->gps.Latest());
  }
  if (bus_->baro.generation() != baro_gen_) {
    baro_gen_ = bus_->baro.generation();
    ekf_.FuseBaro(bus_->baro.Latest());
  }
  if (bus_->mag.generation() != mag_gen_) {
    mag_gen_ = bus_->mag.generation();
    const sensors::MagSample& mag = bus_->mag.Latest();
    ekf_.FuseMag(mag);
    if (detector_ != nullptr) {
      // The shadow filter integrates the mag over its true sampling period
      // (first sample: one control period) — the same formula the offline
      // replay uses, so the two stay bit-identical.
      comp_.UpdateMag(mag, mag_seen_ ? mag.t - last_mag_t_ : info.dt);
      mag_seen_ = true;
      last_mag_t_ = mag.t;
    }
  }
  // failover_active() is the *previous* step's verdict: the detector's state
  // machine advances inside the estimator_status publish below.
  if (detector_ != nullptr && detector_->failover_active()) {
    bus_->estimate.Publish(
        estimation::ApplyAttitudeFallback(ekf_.state(), comp_, sig.units[unit]), info.t);
  } else {
    bus_->estimate.Publish(ekf_.state(), info.t);
  }
  bus_->estimator_status.Publish(ekf_.status(), info.t);
}

// --- HealthModule ---

HealthModule::HealthModule(const nav::HealthMonitorConfig& cfg, bus::FlightBus* bus,
                           telemetry::FlightLog* log)
    : monitor_(cfg), bus_(bus), log_(log) {}

void HealthModule::Step(const bus::StepInfo& info) {
  // The selection the estimator used this step: the monitor's own unit as of
  // the previous step's end (Update below may cycle it).
  const bus::ImuSignal& sig = bus_->imu.Latest();
  const auto unit =
      static_cast<std::size_t>(monitor_.active_imu_unit() % bus::ImuSignal::kUnits);
  const bool was_failsafe = monitor_.failsafe_active();
  // The detector topic carries this step's verdict (published during the
  // estimator's status publish); generation 0 (detector disabled) reads the
  // default signal, so the extra argument is always false there.
  monitor_.Update(sig.units[unit], bus_->estimator_status.Latest(),
                  bus_->estimate.Latest().att.Tilt(), info.t, info.dt,
                  bus_->detector.Latest().failover);
  if (!was_failsafe && monitor_.failsafe_active()) {
    log_->Critical(info.t, std::string("health monitor: failsafe (") +
                               nav::ToString(monitor_.reason()) + ")");
  }
  if (!recovered_logged_ && monitor_.recovered()) {
    recovered_logged_ = true;
    log_->Warn(info.t, "health monitor: failsafe suppressed, riding failover (recovered)");
  }
  bus_->health.Publish(
      {monitor_.failsafe_active(), static_cast<std::uint8_t>(monitor_.reason())}, info.t);
  bus_->imu_select.Publish({monitor_.active_imu_unit()}, info.t);
}

// --- CommanderModule ---

CommanderModule::CommanderModule(const nav::MissionPlan& plan, const nav::CommanderConfig& cfg,
                                 bus::FlightBus* bus, telemetry::FlightLog* log)
    : commander_(plan, cfg, log), bus_(bus), log_(log) {}

void CommanderModule::Step(const bus::StepInfo& info) {
  // Low battery is a failsafe trigger (PX4's battery failsafe), alongside
  // the health monitor. The battery topic carries the previous step's
  // post-drain state.
  const bool low_battery = bus_->battery.Latest().critical;
  if (low_battery && !battery_warned_) {
    battery_warned_ = true;
    log_->Critical(info.t, "battery critical: failsafe");
  }
  const auto sp = commander_.Update(bus_->estimate.Latest(),
                                    bus_->health.Latest().failsafe || low_battery, info.t,
                                    info.dt);
  bus::SetpointSignal out;
  out.sp = sp;
  out.flight_mode = static_cast<std::uint8_t>(commander_.mode());
  out.landed = commander_.landed();
  bus_->setpoint.Publish(out, info.t);
}

// --- ControlCascadeModule ---

ControlCascadeModule::ControlCascadeModule(const control::PositionControlConfig& pos_cfg,
                                           const control::AttitudeControlConfig& att_cfg,
                                           const control::RateControlConfig& rate_cfg,
                                           const control::MixerConfig& mixer_cfg,
                                           bus::FlightBus* bus)
    : pos_ctrl_(pos_cfg), att_ctrl_(att_cfg), rate_ctrl_(rate_cfg), mixer_(mixer_cfg),
      bus_(bus) {}

void ControlCascadeModule::Step(const bus::StepInfo& info) {
  const estimation::NavState& est = bus_->estimate.Latest();
  const bus::SetpointSignal& sp_sig = bus_->setpoint.Latest();
  const auto att_sp = pos_ctrl_.Update(sp_sig.sp, est.pos, est.vel, info.dt);
  const Vec3 rate_sp = att_ctrl_.Update(att_sp.att, est.att);
  const Vec3 ang_accel = rate_ctrl_.Update(rate_sp, est.body_rate, info.dt);
  bus::ActuatorSignal out;
  out.cmds = mixer_.Mix(att_sp.thrust, ang_accel);
  out.collective = att_sp.thrust;
  if (sp_sig.flight_mode == static_cast<std::uint8_t>(nav::FlightMode::kLanded) ||
      bus_->battery.Latest().empty) {
    out.cmds = {0.0, 0.0, 0.0, 0.0};  // disarmed / no power left
  }
  bus_->actuator.Publish(out, info.t);
}

// --- PhysicsModule ---

PhysicsModule::PhysicsModule(const UavConfig& cfg, std::uint64_t seed, bus::FlightBus* bus,
                             telemetry::FlightLog* log)
    : env_(cfg.wind, Rng{math::HashCombine(seed, 0x01)}),
      quad_(std::make_unique<sim::Quadrotor>(cfg.airframe, &env_)),
      crash_(cfg.crash),
      motor_fault_index_(cfg.motor_fault_index),
      motor_fault_time_s_(cfg.motor_fault_time_s),
      bus_(bus),
      log_(log) {}

void PhysicsModule::Reset(const Vec3& home, double yaw_rad, double t) {
  home_ = home;
  quad_->ResetTo(home, yaw_rad);
  airborne_seen_ = false;
  PublishTruth(t);
}

void PhysicsModule::Step(const bus::StepInfo& info) {
  if (motor_fault_index_ >= 0 && info.t >= motor_fault_time_s_ &&
      !quad_->MotorFailed(motor_fault_index_)) {
    quad_->FailMotor(motor_fault_index_);
    log_->Critical(info.t, "motor " + std::to_string(motor_fault_index_) + " failed");
  }
  quad_->Step(bus_->actuator.Latest().cmds, info.dt);
  if (!quad_->on_ground()) airborne_seen_ = true;
  crash_.Update(*quad_, home_, info.t, airborne_seen_);
  PublishTruth(info.t);
}

void PhysicsModule::PublishTruth(double t) {
  bus::TruthSignal out;
  out.state = quad_->state();
  out.on_ground = quad_->on_ground();
  out.induced_power_w = quad_->InducedPower();
  bus_->truth.Publish(out, t);
}

// --- BatteryModule ---

BatteryModule::BatteryModule(const sim::BatteryParams& params, bus::FlightBus* bus)
    : battery_(params), bus_(bus) {}

void BatteryModule::PublishState(double t) {
  bus_->battery.Publish({battery_.Critical(), battery_.Empty(), battery_.Soc()}, t);
}

void BatteryModule::Step(const bus::StepInfo& info) {
  if (bus_->setpoint.Latest().flight_mode !=
      static_cast<std::uint8_t>(nav::FlightMode::kLanded)) {
    const bus::TruthSignal& truth = bus_->truth.Latest();
    const double electrical =
        battery_.params().avionics_load_w +
        truth.induced_power_w / battery_.params().propulsive_efficiency;
    battery_.Drain(electrical, info.dt);
  }
  PublishState(info.t);
}

// --- FaultInterceptorStage ---

std::uint64_t FaultStreamSeed(std::uint64_t seed, const core::FaultSpec& fault) {
  std::uint64_t s = math::HashCombine(seed, static_cast<std::uint64_t>(fault.type) + 11);
  s = math::HashCombine(s, static_cast<std::uint64_t>(fault.target) + 101);
  return math::HashCombine(s, static_cast<std::uint64_t>(fault.duration_s * 1000.0) + 1009);
}

FaultInterceptorStage::FaultInterceptorStage(const UavConfig& cfg,
                                             const std::optional<core::FaultSpec>& fault,
                                             std::uint64_t vehicle_seed, bus::FlightBus* bus,
                                             telemetry::FlightLog* log) {
  // Same seed constants the monolith used: each injector's stream depends
  // only on (seed, constant), never on construction order.
  const std::uint64_t seed = fault ? FaultStreamSeed(vehicle_seed, *fault) : vehicle_seed;
  imu_slots_.reserve((fault ? 1 : 0) + cfg.extra_faults.size());
  if (fault) {
    imu_slots_.push_back({core::FaultInjector(*fault, cfg.imu_ranges,
                                              Rng{math::HashCombine(seed, 0x06)},
                                              cfg.fault_noise, cfg.fault_ext),
                          log});
  }
  for (std::size_t i = 0; i < cfg.extra_faults.size(); ++i) {
    imu_slots_.push_back({core::FaultInjector(cfg.extra_faults[i], cfg.imu_ranges,
                                              Rng{math::HashCombine(seed, 0x60 + i)},
                                              cfg.fault_noise, cfg.fault_ext),
                          log});
  }
  for (auto& slot : imu_slots_) bus->imu.AddInterceptor(&ApplyImu, &slot);

  if (cfg.gps_fault) {
    gps_injector_.emplace(*cfg.gps_fault, Rng{math::HashCombine(seed, 0x07)});
    bus->gps.AddInterceptor(&ApplyGps, &*gps_injector_);
  }
  if (cfg.baro_fault) {
    baro_injector_.emplace(*cfg.baro_fault, Rng{math::HashCombine(seed, 0x08)},
                           cfg.baro_fault_cfg);
    bus->baro.AddInterceptor(&ApplyBaro, &*baro_injector_);
  }
  if (cfg.mag_fault) {
    mag_injector_.emplace(*cfg.mag_fault, Rng{math::HashCombine(seed, 0x09)},
                          cfg.mag_fault_cfg);
    bus->mag.AddInterceptor(&ApplyMag, &*mag_injector_);
  }
}

bool FaultInterceptorStage::AnyImuActiveAt(double t) const {
  for (const auto& slot : imu_slots_) {
    if (slot.injector.ActiveAt(t)) return true;
  }
  return false;
}

bool FaultInterceptorStage::IdleThrough(double t) const {
  const auto after = [t](const auto& injector) { return injector.spec().start_time_s > t; };
  return std::all_of(imu_slots_.begin(), imu_slots_.end(),
                     [&](const ImuSlot& slot) { return after(slot.injector); }) &&
         (!gps_injector_ || after(*gps_injector_)) && (!baro_injector_ || after(*baro_injector_)) &&
         (!mag_injector_ || after(*mag_injector_));
}

void FaultInterceptorStage::ApplyImu(void* ctx, bus::ImuSignal& sig, double t) {
  auto* slot = static_cast<ImuSlot*>(ctx);
  sig.units = slot->injector.ApplyAll(sig.units, t);
  if (!slot->logged && slot->injector.ActiveAt(t)) {
    slot->logged = true;
    slot->log->Warn(t, "fault injection window opened: " +
                           core::FaultLabel(slot->injector.spec().target,
                                            slot->injector.spec().type));
  }
}

void FaultInterceptorStage::ApplyGps(void* ctx, sensors::GpsSample& sample, double t) {
  sample = static_cast<core::GpsFaultInjector*>(ctx)->Apply(sample, t);
}

void FaultInterceptorStage::ApplyBaro(void* ctx, sensors::BaroSample& sample, double t) {
  sample = static_cast<core::BaroFaultInjector*>(ctx)->Apply(sample, t);
}

void FaultInterceptorStage::ApplyMag(void* ctx, sensors::MagSample& sample, double t) {
  sample = static_cast<core::MagFaultInjector*>(ctx)->Apply(sample, t);
}

// --- DetectorStage ---

DetectorStage::DetectorStage(const estimation::DetectorConfig& cfg, double control_rate_hz,
                             bus::FlightBus* bus, telemetry::FlightLog* log)
    : detector_(cfg), bus_(bus), log_(log), dt_(1.0 / control_rate_hz), enabled_(cfg.enabled) {
  if (!enabled_) return;
  // Registered after the fault injectors (the stage is constructed after
  // FaultInterceptorStage), so the detector observes exactly the corrupted
  // samples the estimator consumes.
  bus_->imu.AddInterceptor(&ObserveImu, this);
  bus_->estimator_status.AddInterceptor(&ObserveStatus, this);
}

void DetectorStage::ObserveImu(void* ctx, bus::ImuSignal& sig, double t) {
  (void)t;
  auto* self = static_cast<DetectorStage*>(ctx);
  const auto unit = static_cast<std::size_t>(self->bus_->imu_select.Latest().unit %
                                             bus::ImuSignal::kUnits);
  self->detector_.ObserveRates(sig.units[unit], self->dt_);
}

void DetectorStage::ObserveStatus(void* ctx, estimation::EkfStatus& status, double t) {
  auto* self = static_cast<DetectorStage*>(ctx);
  self->detector_.ObserveInnovations(status, t, self->dt_);
  if (!self->confirm_logged_ && self->detector_.confirm_events() > 0) {
    self->confirm_logged_ = true;
    self->log_->Warn(t, "detector: IMU corruption confirmed, failover engaged");
  }
  // Re-entrant publish on a different topic: legal, and it lands the verdict
  // on the bus before the health module (the next scheduled module) reads it.
  const estimation::ImuFaultDetector& d = self->detector_;
  self->bus_->detector.Publish({static_cast<std::uint8_t>(d.state()), d.failover_active(),
                                d.cusum(), d.plausibility_level(),
                                d.first_confirm_time_s()},
                               t);
}

}  // namespace uavres::uav
