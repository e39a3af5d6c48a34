#include "core/fault_model.h"

#include <utility>

namespace uavres::core {

namespace {

constexpr std::pair<FaultType, const char*> kTypeTokens[] = {
    {FaultType::kFixed, "fixed"},
    {FaultType::kZeros, "zeros"},
    {FaultType::kFreeze, "freeze"},
    {FaultType::kRandom, "random"},
    {FaultType::kMin, "min"},
    {FaultType::kMax, "max"},
    {FaultType::kNoise, "noise"},
    {FaultType::kScale, "scale"},
    {FaultType::kStuckAxis, "stuck-axis"},
    {FaultType::kIntermittent, "intermittent"},
    {FaultType::kDrift, "drift"},
};

constexpr std::pair<FaultTarget, const char*> kTargetTokens[] = {
    {FaultTarget::kAccelerometer, "acc"},
    {FaultTarget::kGyrometer, "gyro"},
    {FaultTarget::kImu, "imu"},
};

}  // namespace

const char* ToString(FaultType t) {
  switch (t) {
    case FaultType::kFixed:
      return "Fixed Value";
    case FaultType::kZeros:
      return "Zeros";
    case FaultType::kFreeze:
      return "Freeze";
    case FaultType::kRandom:
      return "Random";
    case FaultType::kMin:
      return "Min";
    case FaultType::kMax:
      return "Max";
    case FaultType::kNoise:
      return "Noise";
    case FaultType::kScale:
      return "Scale";
    case FaultType::kStuckAxis:
      return "Stuck Axis";
    case FaultType::kIntermittent:
      return "Intermittent";
    case FaultType::kDrift:
      return "Drift";
  }
  return "?";
}

const char* ToString(FaultTarget t) {
  switch (t) {
    case FaultTarget::kAccelerometer:
      return "Acc";
    case FaultTarget::kGyrometer:
      return "Gyro";
    case FaultTarget::kImu:
      return "IMU";
  }
  return "?";
}

std::string FaultLabel(FaultTarget target, FaultType type) {
  return std::string(ToString(target)) + " " + ToString(type);
}

const char* Token(FaultType t) {
  for (const auto& [type, token] : kTypeTokens) {
    if (type == t) return token;
  }
  return "?";
}

const char* Token(FaultTarget t) {
  for (const auto& [target, token] : kTargetTokens) {
    if (target == t) return token;
  }
  return "?";
}

std::optional<FaultType> ParseFaultType(std::string_view token) {
  for (const auto& [type, spelling] : kTypeTokens) {
    if (token == spelling) return type;
  }
  return std::nullopt;
}

std::optional<FaultTarget> ParseFaultTarget(std::string_view token) {
  for (const auto& [target, spelling] : kTargetTokens) {
    if (token == spelling) return target;
  }
  return std::nullopt;
}

}  // namespace uavres::core
