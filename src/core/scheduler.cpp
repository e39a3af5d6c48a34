#include "core/scheduler.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

namespace uavres::core {

namespace {

unsigned Resolve(const SchedulerOptions& opts) {
  unsigned n = opts.num_threads > 0 ? static_cast<unsigned>(opts.num_threads)
                                    : std::thread::hardware_concurrency();
  return n == 0 ? 2 : n;
}

}  // namespace

int ResolvedThreadCount(const SchedulerOptions& opts) {
  return static_cast<int>(Resolve(opts));
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 const SchedulerOptions& opts) {
  std::vector<double> costs(n, 1.0);
  ParallelFor(n, costs, fn, opts);
}

void ParallelFor(std::size_t n, const std::vector<double>& costs,
                 const std::function<void(std::size_t)>& fn,
                 const SchedulerOptions& opts) {
  if (n == 0) return;
  const unsigned n_threads = Resolve(opts);
  if (n_threads == 1 || n == 1) {
    // Inline sequential: index order, zero spawns.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Longest first; the stable sort keeps equal costs in index order.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&costs](std::size_t a, std::size_t b) { return costs[a] > costs[b]; });

  // Each claim is one relaxed fetch_add: the cursor only hands out distinct
  // positions, and joining the workers publishes every job's writes.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= n) return;  // nothing left to claim: exit, do not wait
      fn(order[k]);
    }
  };
  const std::size_t n_workers = std::min<std::size_t>(n_threads, n);
  // Declared last, so it is destroyed first: jthread joins on destruction,
  // also when a later spawn throws.
  std::vector<std::jthread> pool;
  pool.reserve(n_workers - 1);
  for (std::size_t t = 1; t < n_workers; ++t) pool.emplace_back(worker);
  worker();  // the caller participates
}

TaskPool::TaskPool(const Options& opts)
    : num_threads_(opts.num_threads > 0
                       ? opts.num_threads
                       : static_cast<int>(std::max(2u, std::thread::hardware_concurrency()))),
      capacity_(std::max<std::size_t>(1, opts.queue_capacity)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

bool TaskPool::TrySubmit(std::uint64_t client, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || queued_ + running_ >= capacity_) return false;
    queues_[client].push_back(std::move(fn));
    ++queued_;
  }
  cv_work_.notify_one();
  return true;
}

bool TaskPool::PopNext(Task& out) {
  // Round-robin across client tags: resume the scan strictly after the
  // client served last, wrapping — the data-structure form of "every client
  // gets the next free worker in turn".
  auto it = queues_.upper_bound(rr_cursor_);
  for (std::size_t scanned = 0; scanned <= queues_.size(); ++scanned) {
    if (it == queues_.end()) it = queues_.begin();
    if (it == queues_.end()) return false;  // no clients at all
    if (!it->second.empty()) {
      out = std::move(it->second.front());
      it->second.pop_front();
      rr_cursor_ = it->first;
      if (it->second.empty()) queues_.erase(it);  // keep the map to live clients
      return true;
    }
    ++it;
  }
  return false;
}

void TaskPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_work_.wait(lock, [&] { return queued_ > 0 || stopping_; });
    if (queued_ == 0 && stopping_) return;
    Task task;
    if (!PopNext(task)) continue;
    --queued_;
    ++running_;
    lock.unlock();
    task();
    lock.lock();
    --running_;
    if (queued_ == 0 && running_ == 0) cv_idle_.notify_all();
  }
}

void TaskPool::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [&] { return queued_ == 0 && running_ == 0; });
}

std::size_t TaskPool::InFlight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_ + running_;
}

}  // namespace uavres::core
