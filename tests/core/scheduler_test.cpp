// Shared-cursor scheduler: index coverage, determinism-by-construction, the
// starvation property (one huge job must not serialize the grid), and idle
// workers exiting instead of spinning.
#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/scheduler.h"

namespace uavres::core {
namespace {

TEST(Scheduler, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  for (int threads : {1, 2, 7, 16}) {
    auto hits = std::make_unique<std::atomic<int>[]>(kN);
    SchedulerOptions opts;
    opts.num_threads = threads;
    ParallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
                opts);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(Scheduler, CostedVariantCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 500;
  std::vector<double> costs(kN, 1.0);
  costs[0] = 250.0;  // forces a singleton chunk
  costs[kN - 1] = 0.0;
  for (int threads : {1, 2, 7, 16}) {
    auto hits = std::make_unique<std::atomic<int>[]>(kN);
    SchedulerOptions opts;
    opts.num_threads = threads;
    ParallelFor(kN, costs,
                [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); }, opts);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(Scheduler, IndexAddressedResultsAreIdenticalAcrossThreadCounts) {
  constexpr std::size_t kN = 257;  // deliberately not a multiple of any chunk size
  auto run = [](int threads) {
    std::vector<std::uint64_t> out(kN, 0);
    SchedulerOptions opts;
    opts.num_threads = threads;
    ParallelFor(kN, [&](std::size_t i) { out[i] = i * 2654435761u + 17; }, opts);
    return out;
  };
  const auto reference = run(1);
  for (int threads : {2, 7, 16}) {
    EXPECT_EQ(run(threads), reference) << threads << " threads";
  }
}

TEST(Scheduler, ResolvedThreadCountIsPositive) {
  SchedulerOptions opts;
  opts.num_threads = 0;
  EXPECT_GE(ResolvedThreadCount(opts), 1);
  opts.num_threads = 1;
  EXPECT_EQ(ResolvedThreadCount(opts), 1);
  opts.num_threads = 7;
  EXPECT_EQ(ResolvedThreadCount(opts), 7);
}

// One 100x-cost job plus 50 cheap jobs on two workers: claimed longest first,
// the big job starts at once and the wall clock stays near the critical path,
// instead of the big job queueing behind cheap ones.
// Sleeps stand in for simulation work so the bound holds on any machine.
TEST(Scheduler, StarvationBigJobDoesNotSerializeGrid) {
  constexpr auto kUnit = std::chrono::milliseconds(1);
  constexpr std::size_t kCheap = 50;
  std::vector<double> costs(kCheap + 1, 1.0);
  costs[0] = 100.0;

  SchedulerOptions opts;
  opts.num_threads = 2;
  const auto t0 = std::chrono::steady_clock::now();
  ParallelFor(costs.size(), costs,
              [&](std::size_t i) { std::this_thread::sleep_for(kUnit * (i == 0 ? 100 : 1)); },
              opts);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  // Critical path: the 100-unit job. Cheap jobs (50 units total) fit on the
  // second worker in parallel. Allow 1.2x for scheduling + sleep overshoot.
  EXPECT_LE(wall_ms, 1.2 * 100.0) << "big job was starved behind cheap jobs";
}

// The starvation bound must survive a heavily skewed cost vector: one job
// costing as much as eight long missions (100 units) claimed alongside many
// cheap jobs must still bound the wall clock by the expensive job itself,
// not the serialized grid.
TEST(Scheduler, StarvationBoundHoldsForBatchedCampaignCosts) {
  constexpr auto kUnit = std::chrono::milliseconds(1);
  constexpr std::size_t kCheapBatches = 50;
  // Job 0 costs 8 x 12.5 units; the rest cost 8 x 0.125 units each.
  std::vector<double> batch_costs(kCheapBatches + 1, 8 * 0.125);
  batch_costs[0] = 8 * 12.5;

  SchedulerOptions opts;
  opts.num_threads = 2;
  const auto t0 = std::chrono::steady_clock::now();
  ParallelFor(
      batch_costs.size(), batch_costs,
      [&](std::size_t i) {
        std::this_thread::sleep_for(kUnit * (i == 0 ? 100 : 1));
      },
      opts);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  // Critical path: the 100-unit batch; the cheap batches (50 units total)
  // run on the second worker in parallel. Allow 1.2x for overhead.
  EXPECT_LE(wall_ms, 1.2 * 100.0) << "expensive batch was starved behind cheap batches";
}

// The costliest job is among the first claims even when its index is last.
// The first job each of the two workers takes waits for the other, so the
// two recorded jobs are exactly the first two claims.
TEST(Scheduler, CostliestJobIsClaimedFirst) {
  const std::vector<double> costs{1.0, 1.0, 1.0, 5.0};
  std::atomic<int> arrived{0};
  std::mutex first_mutex;
  std::vector<std::size_t> first;
  SchedulerOptions opts;
  opts.num_threads = 2;
  ParallelFor(
      costs.size(), costs,
      [&](std::size_t i) {
        if (arrived.fetch_add(1) >= 2) return;
        {
          std::lock_guard<std::mutex> lock(first_mutex);
          first.push_back(i);
        }
        while (arrived.load() < 2) std::this_thread::yield();
      },
      opts);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_NE(std::find(first.begin(), first.end(), 3u), first.end())
      << "first claims: " << first[0] << ", " << first[1];
}

// Two jobs on four workers, one of them sleeping 300 ms: a worker with
// nothing left to claim must return, not spin until the sleeper finishes.
// Process CPU time counts every thread, so spinning shows up as CPU close
// to (or above) the wall time.
TEST(Scheduler, IdleWorkersDoNotBurnCpu) {
  auto seconds = [](clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  };
  SchedulerOptions opts;
  opts.num_threads = 4;
  const double cpu0 = seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double wall0 = seconds(CLOCK_MONOTONIC);
  ParallelFor(
      2,
      [](std::size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(300));
      },
      opts);
  const double cpu_s = seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  const double wall_s = seconds(CLOCK_MONOTONIC) - wall0;
  EXPECT_LT(cpu_s, wall_s / 3.0) << "idle workers burned " << cpu_s << " s CPU in "
                                 << wall_s << " s wall";
}

TEST(TaskPool, RunsEverySubmittedTask) {
  TaskPool::Options opts;
  opts.num_threads = 4;
  opts.queue_capacity = 1000;
  TaskPool pool(opts);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.TrySubmit(static_cast<std::uint64_t>(i % 5),
                               [&] { done.fetch_add(1); }));
  }
  pool.Drain();
  EXPECT_EQ(done.load(), 200);
  EXPECT_EQ(pool.InFlight(), 0u);
}

TEST(TaskPool, RejectsBeyondCapacityWithoutDeadlock) {
  // One worker, capacity 2 (queued + running): block the worker, fill the
  // queue, and every further submit must be refused immediately — the
  // admission-control contract behind the daemon's kRejectedOverload.
  TaskPool::Options opts;
  opts.num_threads = 1;
  opts.queue_capacity = 2;
  TaskPool pool(opts);

  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  ASSERT_TRUE(pool.TrySubmit(1, [&] {
    while (!release.load()) std::this_thread::yield();
    done.fetch_add(1);
  }));
  // Wait until the blocker actually occupies the worker.
  while (pool.InFlight() == 0) std::this_thread::yield();
  ASSERT_TRUE(pool.TrySubmit(1, [&] { done.fetch_add(1); }));  // fills the queue

  int rejected = 0;
  for (int i = 0; i < 16; ++i) {
    if (!pool.TrySubmit(2, [&] { done.fetch_add(1); })) ++rejected;
  }
  EXPECT_EQ(rejected, 16) << "overloaded pool must refuse, not queue or block";

  release.store(true);
  pool.Drain();
  EXPECT_EQ(done.load(), 2);

  // Capacity freed: admission works again.
  EXPECT_TRUE(pool.TrySubmit(3, [&] { done.fetch_add(1); }));
  pool.Drain();
  EXPECT_EQ(done.load(), 3);
}

TEST(TaskPool, RoundRobinInterleavesClients) {
  // One worker so execution order is the pop order. Client A floods 8 tasks
  // before client B's single task arrives; fairness means B is served after
  // at most one more A task, not behind A's whole backlog.
  TaskPool::Options opts;
  opts.num_threads = 1;
  opts.queue_capacity = 100;
  TaskPool pool(opts);

  std::atomic<bool> release{false};
  std::mutex order_mutex;
  std::vector<std::uint64_t> order;
  auto task = [&](std::uint64_t client) {
    return [&, client] {
      while (!release.load()) std::this_thread::yield();
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(client);
    };
  };
  // A blocker pins the worker so the queue fills deterministically.
  std::atomic<bool> start{false};
  ASSERT_TRUE(pool.TrySubmit(99, [&] {
    while (!start.load()) std::this_thread::yield();
  }));
  while (pool.InFlight() == 0) std::this_thread::yield();
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(pool.TrySubmit(1, task(1)));
  ASSERT_TRUE(pool.TrySubmit(2, task(2)));
  release.store(true);
  start.store(true);
  pool.Drain();

  ASSERT_EQ(order.size(), 9u);
  const auto b_pos = static_cast<std::size_t>(
      std::find(order.begin(), order.end(), 2u) - order.begin());
  EXPECT_LE(b_pos, 1u) << "client 2 starved behind client 1's backlog";
}

TEST(TaskPool, RunsOneClientsTasksInSubmissionOrder) {
  TaskPool::Options opts;
  opts.num_threads = 1;
  opts.queue_capacity = 100;
  TaskPool pool(opts);

  std::mutex order_mutex;
  std::vector<int> order;
  std::atomic<bool> start{false};
  ASSERT_TRUE(pool.TrySubmit(1, [&] {
    while (!start.load()) std::this_thread::yield();
  }));
  while (pool.InFlight() == 0) std::this_thread::yield();
  auto tagged = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(pool.TrySubmit(1, tagged(0)));
  ASSERT_TRUE(pool.TrySubmit(1, tagged(1)));
  start.store(true);
  pool.Drain();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);  // FIFO within one client
  EXPECT_EQ(order[1], 1);
}

TEST(TaskPool, DestructorDrainsAdmittedWork) {
  std::atomic<int> done{0};
  {
    TaskPool::Options opts;
    opts.num_threads = 2;
    opts.queue_capacity = 100;
    TaskPool pool(opts);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.TrySubmit(0, [&] { done.fetch_add(1); }));
    }
  }  // destructor joins; admitted tasks must not be dropped
  EXPECT_EQ(done.load(), 50);
}

}  // namespace
}  // namespace uavres::core
