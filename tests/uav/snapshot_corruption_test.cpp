// Snapshot corruption (DESIGN.md §16): every vehicle section is read by the
// one telemetry/binary_io.h codec, so a corrupt section either fails
// Uav::RestoreState or restores a vehicle whose re-saved section is exactly
// the corrupted bytes. A bool byte above 1 or an enum byte out of range is
// refused, never loaded into live state.
//
// The donor is mission 0 under a 10 s gyro-zeros fault with recovery on (so
// the detector section exists), captured at fault onset.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/fault_model.h"
#include "core/scenario.h"
#include "sim/snapshot.h"
#include "telemetry/binary_io.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace uavres {
namespace {

struct Donor {
  uav::ExperimentSpec spec;
  sim::Snapshot snap;
};

const Donor& OnsetDonor() {
  static const Donor donor = [] {
    Donor d;
    d.spec.drone = core::SharedValenciaScenario()[0];
    d.spec.mission_index = 0;
    core::FaultSpec fault;
    fault.type = core::FaultType::kZeros;
    fault.target = core::FaultTarget::kGyrometer;
    fault.duration_s = 10.0;
    d.spec.fault = fault;
    uav::RunConfig run;
    run.recovery = true;
    const bool captured =
        uav::SimulationRunner(run).CaptureSnapshot(d.spec, fault.start_time_s, d.snap);
    EXPECT_TRUE(captured);
    return d;
  }();
  return donor;
}

/// A fresh vehicle built the way SimulationRunner builds the donor's fork.
std::unique_ptr<uav::Uav> FreshVehicle(const Donor& d) {
  uav::UavConfig cfg = uav::MakeUavConfig(d.spec.drone);
  cfg.detector.enabled = true;
  return std::make_unique<uav::Uav>(cfg, d.spec.drone.plan, d.spec.fault, d.snap.seed);
}

/// The donor snapshot with byte `offset` of section `id` set to `value`.
sim::Snapshot WithByte(uav::SnapshotSectionId id, std::size_t offset, char value) {
  sim::Snapshot snap = OnsetDonor().snap;
  for (auto& s : snap.sections) {
    if (s.id == static_cast<std::uint32_t>(id)) s.bytes.at(offset) = value;
  }
  return snap;
}

template <class... Ts>
std::size_t EncodedSize(const Ts&... xs) {
  return telemetry::Encode(xs...).size();
}

TEST(SnapshotCorruption, OutOfRangeBoolAndEnumBytesAreRefused) {
  const Donor& d = OnsetDonor();
  const auto probe = FreshVehicle(d);
  ASSERT_TRUE(probe->RestoreState(d.snap)) << "the pristine donor must restore";
  const bus::FlightBus& bus = probe->flight_bus();
  using enum uav::SnapshotSectionId;

  // GpsSample::valid is the last byte of the gps topic's value.
  const std::size_t gps_valid = EncodedSize(bus.imu, sensors::GpsSample{}) - 1;
  EXPECT_FALSE(FreshVehicle(d)->RestoreState(WithByte(kBus, gps_valid, 7)))
      << "GpsSample::valid = 7 accepted";

  // The imu_select topic's value, a little-endian i32, comes next, then the
  // health topic, whose value starts with HealthSignal::failsafe.
  const std::size_t select =
      EncodedSize(bus.imu, bus.gps, bus.baro, bus.mag, bus.estimate, bus.estimator_status);
  const std::size_t failsafe = select + EncodedSize(bus.imu_select);
  EXPECT_FALSE(FreshVehicle(d)->RestoreState(WithByte(kBus, failsafe, 2)))
      << "HealthSignal::failsafe = 2 accepted";

  // The commander's FlightMode byte follows its trajectory generator.
  const std::size_t mode = EncodedSize(probe->commander().trajectory());
  EXPECT_FALSE(FreshVehicle(d)->RestoreState(WithByte(kCommander, mode, '\xEE')))
      << "FlightMode = 0xEE accepted";

  // ImuSelectSignal::unit indexes the IMU units on the next step; setting
  // its top byte makes it negative.
  EXPECT_FALSE(FreshVehicle(d)->RestoreState(WithByte(kBus, select + 3, '\xFF')))
      << "negative ImuSelectSignal::unit accepted";
}

// Every truncation and one flipped bit per byte of every vehicle section:
// the restore fails, or the vehicle re-saves exactly the corrupted section.
TEST(SnapshotCorruption, EveryTruncationAndBitFlipFailsOrRoundTrips) {
  const Donor& d = OnsetDonor();
  const auto check = [&d](std::size_t section, const std::string& bytes) {
    sim::Snapshot bad = d.snap;
    bad.sections[section].bytes = bytes;
    const auto vehicle = FreshVehicle(d);
    if (!vehicle->RestoreState(bad)) return true;
    sim::Snapshot resaved;
    vehicle->SaveState(resaved);
    const sim::SnapshotSection* s = resaved.Find(bad.sections[section].id);
    return s != nullptr && s->bytes == bytes;
  };
  int vehicle_sections = 0;
  for (std::size_t i = 0; i < d.snap.sections.size(); ++i) {
    const sim::SnapshotSection& section = d.snap.sections[i];
    if (section.id >= static_cast<std::uint32_t>(uav::SnapshotSectionId::kHarness)) continue;
    ++vehicle_sections;
    int bad = 0;
    for (std::size_t len = 0; len < section.bytes.size(); ++len) {
      if (!check(i, section.bytes.substr(0, len))) ++bad;
    }
    for (std::size_t byte = 0; byte < section.bytes.size(); ++byte) {
      std::string flipped = section.bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << (byte % 8)));
      if (!check(i, flipped)) ++bad;
    }
    EXPECT_EQ(bad, 0) << "section " << section.id << ": " << bad
                      << " corruptions restored into different state";
  }
  EXPECT_EQ(vehicle_sections, 14);
}

// A bool is one byte that reads back only as 0 or 1.
struct FlagAndValue {
  bool flag{false};
  double value{0.0};
};

template <class V>
void Fields(V& v, FlagAndValue& s) {
  v(s.flag, s.value);
}

TEST(SnapshotCorruption, BoolRoundTripsAsOneByte) {
  const std::string bytes = telemetry::Encode(FlagAndValue{true, 1.5});
  ASSERT_EQ(bytes.size(), 1u + sizeof(double));
  EXPECT_EQ(bytes[0], 1);
  FlagAndValue back;
  ASSERT_TRUE(telemetry::Decode(bytes, back));
  EXPECT_TRUE(back.flag);
  EXPECT_EQ(back.value, 1.5);
}

TEST(SnapshotCorruption, BoolByteAboveOneLatchesNotOk) {
  std::string bytes = telemetry::Encode(FlagAndValue{true, 1.5});
  for (const char corrupt : {'\x02', '\xFF'}) {
    bytes[0] = corrupt;
    FlagAndValue back;
    EXPECT_FALSE(telemetry::Decode(bytes, back))
        << "bool byte " << int{static_cast<unsigned char>(corrupt)};
  }
}

}  // namespace
}  // namespace uavres
