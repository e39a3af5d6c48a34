#include "vehicle_profile.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "bus/schedule.h"
#include "bus/topics.h"
#include "uav/modules.h"
#include "uav/uav.h"

namespace perfbench {

namespace {

using namespace uavres;
using Clock = std::chrono::steady_clock;

constexpr int kRounds = 3;  // timed rounds per spec

std::int64_t ElapsedNs(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
}

/// Decorator: runs the wrapped module and adds its wall time to a counter.
class TimedModule final : public bus::Module {
 public:
  void Wrap(bus::Module* inner, std::int64_t* total_ns) {
    inner_ = inner;
    total_ns_ = total_ns;
  }
  void Step(const bus::StepInfo& info) override {
    const auto t0 = Clock::now();
    inner_->Step(info);
    *total_ns_ += ElapsedNs(t0);
  }

 private:
  bus::Module* inner_{nullptr};
  std::int64_t* total_ns_{nullptr};
};

/// The vehicle of uav::Uav, rebuilt from its public parts with a timing
/// decorator around each module. Member order and construction mirror
/// Uav::Uav (the fault and detector stages register their interceptors in
/// this order, which the bit-identity check depends on).
class TracedVehicle {
 public:
  TracedVehicle(const uav::UavConfig& cfg, const nav::MissionPlan& plan,
                const std::optional<core::FaultSpec>& fault, std::uint64_t seed)
      : cfg_(cfg),
        dt_(1.0 / cfg.control_rate_hz),
        gps_divider_(uav::RateDivider(cfg.control_rate_hz, cfg.gps.rate_hz)),
        baro_divider_(uav::RateDivider(cfg.control_rate_hz, cfg.baro.rate_hz)),
        mag_divider_(uav::RateDivider(cfg.control_rate_hz, cfg.mag.rate_hz)),
        imu_(cfg_.imu_noise, cfg_.imu_ranges, seed, &bus_),
        gps_(cfg_.gps, seed, &bus_),
        baro_(cfg_.baro, baro_divider_, seed, &bus_),
        mag_(cfg_.mag, seed, &bus_),
        estimator_(cfg_.ekf, &bus_),
        health_(cfg_.health, &bus_, &log_),
        commander_(plan, cfg_.commander, &bus_, &log_),
        control_(uav::PositionControlWithHoverThrust(cfg_), cfg_.attitude_control,
                 cfg_.rate_control, control::MixerConfigFromQuadrotor(cfg_.airframe), &bus_),
        physics_(cfg_, seed, &bus_, &log_),
        battery_(cfg_.battery, &bus_),
        faults_(cfg_, fault, seed, &bus_, &log_),
        detectors_(cfg_.detector, cfg_.control_rate_hz, &bus_, &log_) {
    const double yaw0 = uav::InitialMissionYaw(plan);
    physics_.Reset(plan.home, yaw0, 0.0);
    estimator_.Init(plan.home, yaw0);
    if (detectors_.enabled()) estimator_.AttachFailover(&detectors_.detector());
    battery_.PublishState(0.0);
    bus_.imu_select.Publish({health_.monitor().active_imu_unit()}, 0.0);

    const std::array<bus::Module*, kModules> modules{
        &imu_, &gps_, &baro_, &mag_, &estimator_, &health_, &commander_, &control_,
        &physics_, &battery_};
    const std::array<int, kModules> dividers{1, gps_divider_, baro_divider_, mag_divider_,
                                             1, 1, 1, 1, 1, 1};
    for (int i = 0; i < kModules; ++i) {
      timed_[i].Wrap(modules[i], &module_ns_[i]);
      schedule_.Add(&timed_[i], dividers[i]);
    }
  }

  TracedVehicle(const TracedVehicle&) = delete;
  TracedVehicle& operator=(const TracedVehicle&) = delete;

  void Step() {
    schedule_.RunStep(step_count_, static_cast<double>(step_count_) * dt_, dt_);
    ++step_count_;
  }

  const bus::FlightBus& flight_bus() const { return bus_; }
  const std::array<std::int64_t, kModules>& module_ns() const { return module_ns_; }

 private:
  uav::UavConfig cfg_;
  double dt_;
  int gps_divider_;
  int baro_divider_;
  int mag_divider_;

  bus::FlightBus bus_;
  telemetry::FlightLog log_;

  uav::ImuModule imu_;
  uav::GpsModule gps_;
  uav::BaroModule baro_;
  uav::MagModule mag_;
  uav::EstimatorModule estimator_;
  uav::HealthModule health_;
  uav::CommanderModule commander_;
  uav::ControlCascadeModule control_;
  uav::PhysicsModule physics_;
  uav::BatteryModule battery_;
  uav::FaultInterceptorStage faults_;
  uav::DetectorStage detectors_;

  std::array<std::int64_t, kModules> module_ns_{};
  std::array<TimedModule, kModules> timed_;
  bus::Schedule schedule_;
  std::int64_t step_count_{0};
};

/// Exact bytes of the truth and estimate topics: every value field, the
/// stamp and the generation. RigidBodyState and NavState are all doubles, so
/// their bytes carry no padding; TruthSignal's flag is copied on its own.
constexpr std::size_t kTopicBytes = sizeof(sim::RigidBodyState) + sizeof(bool) +
                                    3 * sizeof(double) + 2 * sizeof(std::uint64_t) +
                                    sizeof(estimation::NavState);
using TopicBytes = std::array<std::uint8_t, kTopicBytes>;

TopicBytes TruthAndEstimate(const bus::FlightBus& bus) {
  TopicBytes out{};
  std::size_t n = 0;
  const auto put = [&](const auto& v) {
    std::memcpy(out.data() + n, &v, sizeof v);
    n += sizeof v;
  };
  const bus::TruthSignal& truth = bus.truth.Latest();
  put(truth.state);
  put(truth.on_ground);
  put(truth.induced_power_w);
  put(bus.truth.stamp());
  put(bus.truth.generation());
  put(bus.estimate.Latest());
  put(bus.estimate.stamp());
  put(bus.estimate.generation());
  return out;
}

uav::UavConfig VehicleConfig(const uav::ExperimentSpec& spec, const uav::RunConfig& run) {
  uav::UavConfig cfg = uav::MakeUavConfig(spec.drone);
  if (run.recovery) cfg.detector.enabled = true;
  return cfg;
}

}  // namespace

uav::RunConfig RecipeFor(const uav::ExperimentSpec& spec, const uav::RunConfig& run) {
  uav::RunConfig cfg = run;
  if (!spec.IsGold()) cfg.record_trajectory = false;
  return cfg;
}

VehicleProfile ProfileVehicle(const std::vector<uav::ExperimentSpec>& specs,
                              const uav::RunConfig& run, SpanRecorder& spans) {
  VehicleProfile p;
  p.outputs.resize(specs.size());
  std::int64_t run_ns = 0, bare_ns = 0, traced_ns = 0;
  std::array<std::int64_t, kModules> module_ns{};

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const uav::ExperimentSpec& spec = specs[i];
    const uav::RunConfig cfg = RecipeFor(spec, run);
    const uav::UavConfig vcfg = VehicleConfig(spec, cfg);
    const uav::SimulationRunner runner(cfg);
    const std::uint64_t request = i + 1;

    // Passes 1-3, repeated; each keeps its fastest round, which drops most
    // of the interference a shared machine adds to one round.
    std::int64_t best_run = INT64_MAX, best_bare = INT64_MAX, best_traced = INT64_MAX;
    std::array<std::int64_t, kModules> best_modules{};
    std::uint64_t steps = 0;
    for (int round = 0; round < kRounds; ++round) {
      {  // 1. The harness around the vehicle.
        const SpanRecorder::Scope span(spans, "uav.run_into", 0, request);
        const auto t0 = Clock::now();
        runner.RunInto(spec, p.outputs[i]);
        best_run = std::min(best_run, ElapsedNs(t0));
      }
      steps = p.outputs[i].steps;
      {  // 2. Bare Uav::Step loop over the same number of steps.
        uav::Uav vehicle(vcfg, spec.drone.plan, spec.fault, spec.Seed());
        const SpanRecorder::Scope span(spans, "uav.step_loop", 0, request);
        const auto t0 = Clock::now();
        for (std::uint64_t s = 0; s < steps; ++s) vehicle.Step();
        best_bare = std::min(best_bare, ElapsedNs(t0));
      }
      {  // 3. The traced vehicle on its own.
        TracedVehicle vehicle(vcfg, spec.drone.plan, spec.fault, spec.Seed());
        const SpanRecorder::Scope span(spans, "uav.traced_step_loop", 0, request);
        const auto t0 = Clock::now();
        for (std::uint64_t s = 0; s < steps; ++s) vehicle.Step();
        const std::int64_t ns = ElapsedNs(t0);
        if (ns < best_traced) {
          best_traced = ns;
          best_modules = vehicle.module_ns();
        }
      }
    }
    p.steps += steps;
    run_ns += best_run;
    bare_ns += best_bare;
    traced_ns += best_traced;
    for (int m = 0; m < kModules; ++m) module_ns[m] += best_modules[m];

    // 4. Bit-identity against uav::Uav at every step.
    {
      uav::Uav plain(vcfg, spec.drone.plan, spec.fault, spec.Seed());
      TracedVehicle traced(vcfg, spec.drone.plan, spec.fault, spec.Seed());
      for (std::uint64_t s = 0; s < steps; ++s) {
        plain.Step();
        traced.Step();
        if (TruthAndEstimate(plain.flight_bus()) != TruthAndEstimate(traced.flight_bus())) {
          if (p.mismatched_steps++ == 0) {
            std::ostringstream os;
            os << "spec " << spec << ": truth/estimate topics differ at step " << s;
            p.first_mismatch = os.str();
          }
        }
      }
    }
    ++p.specs;
  }

  if (p.steps == 0) return p;
  const double n = static_cast<double>(p.steps);
  p.step_ns = static_cast<double>(bare_ns) / n;
  p.traced_step_ns = static_cast<double>(traced_ns) / n;
  double modules_sum = 0.0;
  for (int m = 0; m < kModules; ++m) {
    p.module_ns[m] = static_cast<double>(module_ns[m]) / n;
    modules_sum += p.module_ns[m];
  }
  p.dispatch_ns = p.traced_step_ns - modules_sum;
  p.harness_ns = static_cast<double>(run_ns - bare_ns) / n;
  p.tracing_overhead_ns = p.traced_step_ns - p.step_ns;
  return p;
}

}  // namespace perfbench
