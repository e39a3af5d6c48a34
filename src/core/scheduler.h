// Chunked work-stealing scheduler for embarrassingly-parallel experiment
// grids (DESIGN.md §12).
//
// The campaign and fuzzer both run N independent jobs whose results land in
// index-addressed slots, so *placement* determinism is free — any schedule
// produces byte-identical output vectors. What the scheduler adds over the
// previous shared-atomic-counter pool:
//
//   * Per-worker chunk deques instead of one contended counter: workers pop
//     from the back of their own deque (LIFO, cache-warm) and steal from the
//     front of a victim's (FIFO, oldest work first), so the counter cache
//     line stops bouncing between cores once per job.
//   * Cost-model-aware chunking: callers may pass a relative cost estimate
//     per job. Expensive jobs become singleton chunks and are dealt first
//     (longest-processing-time greedy), so one 100x-cost run cannot hide at
//     the end of a chunk behind cheap work and stretch the tail.
//   * Steal-half: a thief takes half of the victim's remaining chunks in one
//     lock acquisition, halving the number of steals needed to rebalance.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace uavres::core {

/// Scheduler tuning. Defaults match the campaign's previous behaviour
/// (hardware_concurrency workers, caller thread participates).
struct SchedulerOptions {
  /// Worker count; 0 resolves to hardware_concurrency (2 when unknown).
  /// The calling thread is always one of the workers, so `num_threads = 1`
  /// runs everything inline with zero thread spawns.
  int num_threads{0};
};

/// Runs `fn(0) .. fn(n - 1)` across a transient worker pool, blocking until
/// every job has finished.
///
/// Contract:
///   * `fn` is called exactly once per index, concurrently from up to
///     `num_threads` threads, in an unspecified order. It must be
///     thread-safe with respect to itself and must not throw.
///   * Results must be written to index-addressed storage; then the output
///     is byte-identical for every thread count and steal schedule.
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 const SchedulerOptions& opts = {});

/// Cost-aware overload. `costs[i]` is a relative (unitless) estimate of job
/// i's runtime; only ratios matter. Jobs costing more than twice the mean
/// are scheduled as singleton chunks, and chunks are dealt to workers in
/// descending cost order so the critical path starts immediately.
/// `costs.size()` must equal `n`.
void ParallelFor(std::size_t n, const std::vector<double>& costs,
                 const std::function<void(std::size_t)>& fn,
                 const SchedulerOptions& opts = {});

/// The worker count `opts` resolves to on this machine.
int ResolvedThreadCount(const SchedulerOptions& opts);

/// Long-running bounded executor for the serve daemon (DESIGN.md §17) —
/// the service-shaped sibling of ParallelFor. Where ParallelFor drains one
/// caller's fixed grid and returns, TaskPool accepts tagged work from many
/// clients over its whole lifetime and adds the two properties a shared
/// service needs:
///
///   * Per-client round-robin FAIRNESS: each client tag owns a FIFO queue,
///     and idle workers take the next task from the next non-empty client
///     after the previously served one — a client flooding thousands of
///     specs cannot starve another's two. Within one client, higher
///     `priority` values run first (FIFO among equals).
///   * ADMISSION CONTROL: at most `queue_capacity` tasks may be queued or
///     running at once. TrySubmit never blocks — over capacity it returns
///     false and the caller surfaces explicit backpressure (the serve
///     daemon's kRejectedOverload) instead of queueing unboundedly.
class TaskPool {
 public:
  struct Options {
    int num_threads{0};              ///< 0: hardware_concurrency (min 2)
    std::size_t queue_capacity{256}; ///< queued + running bound for TrySubmit
  };

  explicit TaskPool(const Options& opts);
  /// Stops accepting work, drains already-admitted tasks, joins workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Admits `fn` under `client`'s queue, or returns false when the pool is
  /// at capacity (or stopping). `fn` must not throw.
  bool TrySubmit(std::uint64_t client, std::function<void()> fn, int priority = 0);

  /// Blocks until every admitted task has finished (new submissions may
  /// keep arriving; Drain returns at a moment the pool was empty).
  void Drain();

  /// Tasks currently queued or running.
  std::size_t InFlight() const;

  int num_threads() const { return num_threads_; }

 private:
  struct Task {
    std::function<void()> fn;
    int priority{0};
  };

  void WorkerLoop();
  bool PopNext(Task& out);  ///< under mutex_, via cv_ wait

  const int num_threads_;
  const std::size_t capacity_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  /// Client tag -> pending tasks. std::map keeps round-robin iteration
  /// deterministic; the handful of live clients makes lookup cost moot.
  std::map<std::uint64_t, std::deque<Task>> queues_;
  std::uint64_t rr_cursor_{0};  ///< last client served (+1 scan start)
  std::size_t queued_{0};
  std::size_t running_{0};
  bool stopping_{false};

  std::vector<std::thread> workers_;
};

}  // namespace uavres::core
