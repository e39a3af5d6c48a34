// Typed signal topic: the unit cell of the FlightBus (DESIGN.md §13).
//
// A Topic<T> is a single-producer, many-consumer mailbox with latest-value
// semantics, exactly like a uORB topic in PX4: publishing overwrites the
// previous value, readers always see the most recent publication, and a
// monotonically increasing generation counter lets consumers detect fresh
// data without any queueing. Everything is a plain member access — no
// dynamic dispatch, no locking (the bus is single-threaded by contract:
// one Uav steps its modules in a fixed order), and no heap allocation
// anywhere on the publish/read path.
//
// Fault injection happens here, at the topic boundary: interceptors
// registered on a topic rewrite the value in publication order before any
// consumer can observe it. This is the paper's "sensor-output boundary" made
// structural — an injector on the IMU topic corrupts what the EKF, the
// health monitor and the recorder all see, because there is no other path
// from the sensor to them.
#pragma once

#include <array>
#include <cstdint>

namespace uavres::bus {

/// Maximum interceptors per topic. The heaviest real configuration is the
/// fuzzer's primary fault plus a handful of extra overlapping windows.
inline constexpr int kMaxInterceptorsPerTopic = 8;

/// One typed signal with latest-value semantics and publish-time
/// interception. `T` must be copy-assignable and default-constructible;
/// payloads are plain structs of doubles (see topics.h).
template <typename T>
class Topic {
 public:
  /// Interceptor: mutates the in-flight value at publish time. Plain
  /// function pointer + context (no std::function: the hot path must not
  /// allocate and must stay trivially inlinable around the indirect call).
  using Interceptor = void (*)(void* ctx, T& value, double t);

  /// Register `fn` to run on every publication, after previously registered
  /// interceptors. Returns false when the fixed table is full.
  bool AddInterceptor(Interceptor fn, void* ctx) {
    if (interceptor_count_ >= kMaxInterceptorsPerTopic) return false;
    interceptors_[interceptor_count_++] = {fn, ctx};
    return true;
  }

  int interceptor_count() const { return interceptor_count_; }

  /// Publish a value at time `t`: run the interceptor chain over a copy,
  /// store it as the latest value and bump the generation.
  void Publish(const T& value, double t) {
    value_ = value;
    for (int i = 0; i < interceptor_count_; ++i) {
      interceptors_[i].fn(interceptors_[i].ctx, value_, t);
    }
    stamp_ = t;
    ++generation_;
  }

  /// Latest published (post-interception) value. Valid from construction:
  /// before the first publish this is the default-constructed payload with
  /// generation 0 — consumers that must not act on stale defaults check
  /// generation().
  const T& Latest() const { return value_; }

  /// Number of publications so far. Strictly monotonic; a consumer holding
  /// the last generation it processed detects new data by inequality (the
  /// multi-rate scheduler guarantees at most one publication per topic per
  /// step, so inequality and +1 coincide).
  std::uint64_t generation() const { return generation_; }

  /// Time of the latest publication.
  double stamp() const { return stamp_; }

  /// Snapshot field list (telemetry/binary_io.h codec, DESIGN.md §16): the
  /// run-mutable state; configuration is reconstructed, not serialized.
  template <class V>
  friend void Fields(V& v, Topic& x) {
    v(x.value_, x.stamp_, x.generation_);
  }

 private:
  struct Slot {
    Interceptor fn{nullptr};
    void* ctx{nullptr};
  };

  T value_{};
  double stamp_{0.0};
  std::uint64_t generation_{0};
  std::array<Slot, kMaxInterceptorsPerTopic> interceptors_{};
  int interceptor_count_{0};
};

}  // namespace uavres::bus
