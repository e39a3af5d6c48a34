#include "core/scheduler.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <numeric>
#include <thread>

namespace uavres::core {

namespace {

/// Contiguous job range [begin, end). `cost` orders chunks for dealing.
struct Chunk {
  std::size_t begin{0};
  std::size_t end{0};
  double cost{0.0};
};

struct WorkerQueue {
  std::mutex m;
  std::deque<Chunk> q;
};

unsigned Resolve(const SchedulerOptions& opts) {
  unsigned n = opts.num_threads > 0 ? static_cast<unsigned>(opts.num_threads)
                                    : std::thread::hardware_concurrency();
  return n == 0 ? 2 : n;
}

/// Jobs per chunk: ~4 chunks per worker keeps steal granularity fine enough
/// to rebalance without paying one deque round-trip per job, within 1..8.
std::size_t ChunkTarget(std::size_t n, unsigned n_threads) {
  constexpr std::size_t kMinChunk = 1;
  constexpr std::size_t kMaxChunk = 8;
  const std::size_t raw = n / (static_cast<std::size_t>(n_threads) * 4 + 1);
  return std::clamp(raw, kMinChunk, kMaxChunk);
}

void RunChunks(std::vector<WorkerQueue>& queues, std::size_t n_jobs,
               const std::function<void(std::size_t)>& fn) {
  const unsigned n_workers = static_cast<unsigned>(queues.size());
  std::atomic<std::size_t> remaining{n_jobs};

  auto worker = [&](unsigned self) {
    Chunk chunk;
    while (remaining.load(std::memory_order_acquire) > 0) {
      bool have = false;
      {
        // Own work first: pop from the back, where the dealer placed this
        // worker's most expensive chunk.
        WorkerQueue& own = queues[self];
        std::lock_guard<std::mutex> lock(own.m);
        if (!own.q.empty()) {
          chunk = own.q.back();
          own.q.pop_back();
          have = true;
        }
      }
      if (!have) {
        // Steal: scan victims round-robin, take half their chunks (front =
        // their cheapest) in one lock acquisition.
        std::vector<Chunk> loot;
        for (unsigned off = 1; off < n_workers && loot.empty(); ++off) {
          WorkerQueue& victim = queues[(self + off) % n_workers];
          std::lock_guard<std::mutex> lock(victim.m);
          const std::size_t half = (victim.q.size() + 1) / 2;
          for (std::size_t k = 0; k < half; ++k) {
            loot.push_back(victim.q.front());
            victim.q.pop_front();
          }
        }
        if (loot.empty()) {
          std::this_thread::yield();  // all deques drained; wait for stragglers
          continue;
        }
        chunk = loot.back();
        loot.pop_back();
        have = true;
        if (!loot.empty()) {
          std::lock_guard<std::mutex> lock(queues[self].m);
          for (const Chunk& c : loot) queues[self].q.push_back(c);
        }
      }
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        fn(i);
        remaining.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(n_workers - 1);
  for (unsigned t = 1; t < n_workers; ++t) pool.emplace_back(worker, t);
  worker(0);  // the caller participates
  for (auto& th : pool) th.join();
}

/// Deal `chunks` in descending cost order, each to the currently
/// least-loaded worker (longest-processing-time greedy). Within a worker's
/// deque the most expensive chunk ends up at the back — the owner's side —
/// so every critical-path job starts the moment its worker does.
void Deal(std::vector<Chunk> chunks, std::vector<WorkerQueue>& queues) {
  std::stable_sort(chunks.begin(), chunks.end(),
                   [](const Chunk& a, const Chunk& b) { return a.cost > b.cost; });
  std::vector<double> load(queues.size(), 0.0);
  for (const Chunk& c : chunks) {
    const std::size_t w = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[w] += c.cost;
    queues[w].q.push_front(c);
  }
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

bool TaskPool::TrySubmit(std::uint64_t client, std::function<void()> fn, int priority) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || queued_ + running_ >= capacity_) return false;
    auto& q = queues_[client];
    // Priority is a per-client ordering hint: insert after the last task of
    // >= priority, so equal priorities stay FIFO and the common priority-0
    // case is a plain push_back.
    auto pos = q.end();
    while (pos != q.begin() && std::prev(pos)->priority < priority) --pos;
    q.insert(pos, Task{std::move(fn), priority});
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
    task.fn();
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

  const double mean =
      std::accumulate(costs.begin(), costs.end(), 0.0) / static_cast<double>(n);
  const double singleton_threshold = 2.0 * mean;
  const std::size_t target = ChunkTarget(n, n_threads);

  std::vector<Chunk> chunks;
  chunks.reserve(n / target + 8);
  Chunk cur;
  auto flush = [&] {
    if (cur.end > cur.begin) chunks.push_back(cur);
    cur = Chunk{cur.end, cur.end, 0.0};
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (costs[i] > singleton_threshold) {
      flush();
      chunks.push_back(Chunk{i, i + 1, costs[i]});
      cur = Chunk{i + 1, i + 1, 0.0};
      continue;
    }
    cur.end = i + 1;
    cur.cost += costs[i];
    if (cur.end - cur.begin >= target) flush();
  }
  flush();

  std::vector<WorkerQueue> queues(n_threads);
  Deal(std::move(chunks), queues);
  RunChunks(queues, n, fn);
}

}  // namespace uavres::core
