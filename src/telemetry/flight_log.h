// Event log for a single flight: mode changes, fault windows, failsafe
// triggers, crash reports. Mirrors the role of PX4's ulog event stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/binary_io.h"

namespace uavres::telemetry {

/// Severity of a logged event.
enum class LogLevel { kInfo, kWarning, kCritical };

/// A single time-stamped flight event.
struct FlightEvent {
  double t{0.0};
  LogLevel level{LogLevel::kInfo};
  std::string message;
};

/// Codec field list (telemetry/binary_io.h), in UVRL records and snapshots.
template <class V>
void Fields(V& v, FlightEvent& e) {
  v(e.t, InRange{e.level, LogLevel::kInfo, LogLevel::kCritical},
    Capped{e.message, kMaxMessageLen});
}

/// Largest event count a reader accepts.
inline constexpr std::uint32_t kMaxEvents = 1'000'000;

/// Append-only in-memory event log.
class FlightLog {
 public:
  void Info(double t, std::string msg) { Add(t, LogLevel::kInfo, std::move(msg)); }
  void Warn(double t, std::string msg) { Add(t, LogLevel::kWarning, std::move(msg)); }
  void Critical(double t, std::string msg) { Add(t, LogLevel::kCritical, std::move(msg)); }

  void Add(double t, LogLevel level, std::string msg) {
    // Reserve a typical flight's worth of events on first use so routine
    // mode changes mid-flight never reallocate (the steady-state simulation
    // step is heap-allocation-free; AllocRegression enforces this).
    if (events_.capacity() == events_.size()) {
      events_.reserve(events_.empty() ? 32 : events_.size() * 2);
    }
    events_.push_back({t, level, std::move(msg)});
  }

  const std::vector<FlightEvent>& Events() const { return events_; }
  std::vector<FlightEvent>& Events() { return events_; }
  void Clear() { events_.clear(); }

  /// Number of events at or above the given severity.
  int CountAtLeast(LogLevel level) const {
    int n = 0;
    for (const auto& e : events_)
      if (static_cast<int>(e.level) >= static_cast<int>(level)) ++n;
    return n;
  }

  /// True when any event message contains the given substring.
  bool Contains(const std::string& needle) const {
    for (const auto& e : events_)
      if (e.message.find(needle) != std::string::npos) return true;
    return false;
  }

  /// Codec field list: the events, for snapshots (DESIGN.md §16).
  template <class V>
  friend void Fields(V& v, FlightLog& log) {
    v(Capped{log.events_, kMaxEvents});
  }

 private:
  std::vector<FlightEvent> events_;
};

const char* ToString(LogLevel level);

}  // namespace uavres::telemetry
