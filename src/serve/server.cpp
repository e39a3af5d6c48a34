#include "serve/server.h"

#include <cerrno>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "serve/net.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"

namespace uavres::serve {

using telemetry::Encode;
using telemetry::RejectReason;
using telemetry::RequestState;
using telemetry::ResultSource;
using telemetry::SpecFrame;
using telemetry::SpecMsgType;
using telemetry::WireProgress;
using telemetry::WireReject;
using telemetry::WireRequest;
using telemetry::WireSpec;

/// One client connection. The reader thread owns the receive side; result
/// fan-out happens from worker threads, so every send serializes on
/// `write_mutex`. The fd is closed by the last shared_ptr owner — a waiter
/// completing after the peer hung up writes into a shut-down socket (a
/// benign error) rather than a recycled descriptor.
struct Server::Connection {
  std::uint64_t id{0};
  int fd{-1};
  std::mutex write_mutex;
  std::atomic<bool> alive{true};
  std::atomic<bool> finished{false};  ///< the reader thread is done with it
  bool hello_done{false};  ///< reader-thread only
  std::string peer_name;   ///< from Hello, for diagnostics

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

/// One in-flight experiment: the spec being simulated plus every
/// (connection, request) waiting on it. waiters[0] is the originator that
/// admitted the run; later entries attached via single-flight dedup.
struct Server::Flight {
  struct Waiter {
    std::shared_ptr<Connection> conn;
    std::uint64_t request_id{0};
  };

  api::ExperimentSpec spec;  ///< no gold reference: resolved on a store miss
  bool recovery{false};
  std::vector<Waiter> waiters;
};

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      fleet_(core::SharedValenciaScenario()),
      store_(cfg_.cache_dir) {}

Server::~Server() {
  Stop();
  // fds are shut down by the Run()/Stop() paths; join what is left.
  for (auto& h : handlers_) {
    if (h.thread.joinable()) h.thread.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool Server::Start(std::string* error) {
  listen_fd_ = net::Listen(cfg_.host, cfg_.port, &port_, error);
  if (listen_fd_ < 0) return false;
  core::TaskPool::Options pool_opts;
  pool_opts.num_threads = cfg_.num_threads;
  pool_opts.queue_capacity = cfg_.queue_capacity;
  pool_ = std::make_unique<core::TaskPool>(pool_opts);
  return true;
}

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void Server::Run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    const int accept_errno = errno;
    ReapFinishedConnections();
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      // Out of descriptors or kernel memory: the pending connection stays in
      // the backlog, so an immediate retry fails again in a hot spin.
      if (accept_errno == EMFILE || accept_errno == ENFILE || accept_errno == ENOBUFS ||
          accept_errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;  // transient accept failure (EINTR, peer gone mid-handshake)
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn->id = next_conn_id_++;
      handlers_.push_back({conn, std::thread([this, conn] { HandleConnection(conn); })});
    }
    UAVRES_COUNT("serve.connections");
  }
  // Drain: admitted work completes and its results reach still-open
  // connections before the daemon exits.
  if (pool_) pool_->Drain();
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (auto& h : handlers_) {
    if (h.conn->alive.load()) ::shutdown(h.conn->fd, SHUT_RDWR);
  }
  for (auto& h : handlers_) {
    if (h.thread.joinable()) h.thread.join();
  }
  handlers_.clear();
}

void Server::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  std::erase_if(handlers_, [](Handler& h) {
    if (!h.conn->finished.load(std::memory_order_acquire)) return false;
    h.thread.join();
    return true;
  });
}

void Server::SendFrame(const std::shared_ptr<Connection>& conn, SpecMsgType type,
                       const std::string& payload) {
  if (!conn->alive.load(std::memory_order_acquire)) return;
  const std::string frame = telemetry::EncodeFrame(type, payload);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (!net::SendAll(conn->fd, frame.data(), frame.size())) {
    conn->alive.store(false, std::memory_order_release);
  }
}

void Server::HandleConnection(const std::shared_ptr<Connection>& conn) {
  telemetry::FrameReader reader;
  char buf[16 * 1024];
  while (conn->alive.load(std::memory_order_acquire)) {
    const ssize_t got = net::RecvSome(conn->fd, buf, sizeof buf);
    if (got <= 0) break;
    if (!reader.Feed(buf, static_cast<std::size_t>(got))) break;
    while (auto frame = reader.Next()) {
      HandleFrame(conn, *frame);
      if (!conn->alive.load(std::memory_order_acquire)) break;
    }
    if (reader.corrupt()) {
      SendFrame(conn, SpecMsgType::kReject,
                Encode(WireReject{0, RejectReason::kMalformed, "oversized or corrupt frame"}));
      break;
    }
  }
  conn->alive.store(false, std::memory_order_release);
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->finished.store(true, std::memory_order_release);
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn, const SpecFrame& frame) {
  // The handshake must come first: it pins the schema version before any
  // spec can be (mis)interpreted.
  if (!conn->hello_done) {
    telemetry::WireHello hello;
    if (frame.type != SpecMsgType::kHello || !telemetry::Decode(frame.payload, hello)) {
      SendFrame(conn, SpecMsgType::kReject,
                Encode(WireReject{0, RejectReason::kMalformed, "expected Hello first"}));
      conn->alive.store(false, std::memory_order_release);
      return;
    }
    if (hello.schema_version != telemetry::kSpecSchemaVersion) {
      SendFrame(conn, SpecMsgType::kReject,
                Encode(WireReject{0, RejectReason::kVersionMismatch,
                                  "server speaks spec schema v" +
                                      std::to_string(telemetry::kSpecSchemaVersion)}));
      conn->alive.store(false, std::memory_order_release);
      return;
    }
    conn->hello_done = true;
    conn->peer_name = std::move(hello.client_name);
    SendFrame(conn, SpecMsgType::kHelloAck,
              Encode(telemetry::WireHelloAck{telemetry::kSpecSchemaVersion}));
    return;
  }

  // Stats and Shutdown carry no payload: bytes there are a framing error.
  const bool bare = frame.payload.empty();
  switch (frame.type) {
    case SpecMsgType::kSubmitBatch:
      HandleSubmit(conn, frame.payload);
      return;
    case SpecMsgType::kStats:
      if (!bare) break;
      SendStats(conn);
      return;
    case SpecMsgType::kShutdown:
      if (!bare) break;
      if (cfg_.allow_remote_shutdown) {
        UAVRES_COUNT("serve.shutdown-requests");
        Stop();
      } else {
        SendFrame(conn, SpecMsgType::kReject,
                  Encode(WireReject{0, RejectReason::kBadSpec, "remote shutdown disabled"}));
      }
      return;
    default:
      break;
  }
  SendFrame(conn, SpecMsgType::kReject,
            Encode(WireReject{0, RejectReason::kMalformed, "unexpected message type"}));
  conn->alive.store(false, std::memory_order_release);
}

void Server::HandleSubmit(const std::shared_ptr<Connection>& conn,
                          const std::string& payload) {
  telemetry::WireBatch batch;
  if (!telemetry::Decode(payload, batch)) {
    SendFrame(conn, SpecMsgType::kReject,
              Encode(WireReject{0, RejectReason::kMalformed, "undecodable submit batch"}));
    conn->alive.store(false, std::memory_order_release);
    return;
  }
  for (const auto& req : batch.requests) SubmitOne(conn, req);
}

namespace {

/// Wire-spec validation: every enum in range, every number meaningful. The
/// server owns the scenario fleet, so a spec can only name missions by
/// index.
std::string ValidateSpec(const WireSpec& s, std::size_t fleet_size) {
  if (s.mission_index < 0 || static_cast<std::size_t>(s.mission_index) >= fleet_size) {
    return "mission_index out of range";
  }
  if (s.has_fault) {
    if (s.fault_type > static_cast<std::uint8_t>(core::FaultType::kDrift)) {
      return "unknown fault_type";
    }
    if (s.fault_target > static_cast<std::uint8_t>(core::FaultTarget::kImu)) {
      return "unknown fault_target";
    }
    if (!(s.duration_s > 0.0)) return "fault duration must be positive";
    if (!(s.start_time_s >= 0.0)) return "fault start must be >= 0";
    if (!(s.magnitude >= 0.0 && s.magnitude <= 1.0)) {
      return "fault magnitude must be in [0, 1]";
    }
  }
  return {};
}

/// The daemon's harness: the default one plus the request's recovery axis,
/// as an offline campaign runs with or without --recovery.
api::RunConfig Harness(bool recovery) {
  api::RunConfig run;
  run.recovery = recovery;
  return run;
}

}  // namespace

void Server::SubmitOne(const std::shared_ptr<Connection>& conn, const WireRequest& req) {
  UAVRES_COUNT("serve.requests");
  if (const std::string why = ValidateSpec(req.spec, fleet_.size()); !why.empty()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    UAVRES_COUNT("serve.rejected.bad-spec");
    SendFrame(conn, SpecMsgType::kReject,
              Encode(WireReject{req.request_id, RejectReason::kBadSpec, why}));
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    SendFrame(conn, SpecMsgType::kReject,
              Encode(WireReject{req.request_id, RejectReason::kShuttingDown,
                                "daemon is draining"}));
    return;
  }

  api::ExperimentSpec spec{fleet_[static_cast<std::size_t>(req.spec.mission_index)],
                           req.spec.mission_index, std::nullopt, req.spec.seed_base};
  if (req.spec.has_fault) {
    spec.fault = core::FaultSpec{static_cast<core::FaultType>(req.spec.fault_type),
                                 static_cast<core::FaultTarget>(req.spec.fault_target),
                                 req.spec.start_time_s, req.spec.duration_s,
                                 req.spec.magnitude};
  }
  const std::uint64_t key = core::ExperimentKey(Harness(req.spec.recovery), spec);

  bool attached = false;
  bool overloaded = false;
  {
    std::lock_guard<std::mutex> lock(flight_mutex_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      // Single-flight dedup: one run per key; this request rides along.
      it->second->waiters.push_back({conn, req.request_id});
      attached = true;
    } else {
      auto flight = std::make_shared<Flight>();
      flight->spec = std::move(spec);
      flight->recovery = req.spec.recovery;
      flight->waiters.push_back({conn, req.request_id});
      flights_.emplace(key, flight);
      // Admission control happens while the flight table is locked so a
      // rejected key is gone before any other client could attach to it.
      if (!pool_->TrySubmit(conn->id, [this, key] { RunFlight(key); })) {
        flights_.erase(key);
        overloaded = true;
      }
    }
  }
  if (overloaded) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    UAVRES_COUNT("serve.rejected.overload");
    SendFrame(conn, SpecMsgType::kReject,
              Encode(WireReject{req.request_id, RejectReason::kRejectedOverload,
                                "admission queue full"}));
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (attached) {
    singleflight_.fetch_add(1, std::memory_order_relaxed);
    UAVRES_COUNT("serve.dedup.singleflight");
    SendFrame(conn, SpecMsgType::kProgress,
              Encode(WireProgress{req.request_id, RequestState::kAttached}));
  } else {
    UAVRES_COUNT("serve.admitted");
    SendFrame(conn, SpecMsgType::kProgress,
              Encode(WireProgress{req.request_id, RequestState::kQueued}));
  }
}

Server::GoldEntry Server::Gold(const api::ExperimentSpec& spec, bool recovery,
                               bool* computed) {
  api::ExperimentSpec gold_spec = spec;
  gold_spec.fault.reset();
  const api::RunConfig run = Harness(recovery);
  const std::uint64_t key = core::ExperimentKey(run, gold_spec);

  for (;;) {
    {
      std::lock_guard<std::mutex> lock(gold_mutex_);
      auto it = gold_cache_.find(key);
      if (it != gold_cache_.end()) return it->second;
    }
    if (gold_flight_.Begin(key) == core::SingleFlight::Role::kWaited) {
      continue;  // the leader populated (or failed to populate) the cache
    }
    // Leader: fill from the persistent store or simulate the reference run.
    UAVRES_TRACE_SCOPE("serve/gold-run");
    core::ExperimentEntry gold = core::RunExperiment(store_, run, gold_spec);
    const GoldEntry entry{
        std::make_shared<const telemetry::Trajectory>(std::move(*gold.run.trajectory)),
        std::move(gold.run.result)};
    if (gold.hit) {
      UAVRES_COUNT("serve.gold.store-hits");
    } else {
      gold_computed_.fetch_add(1, std::memory_order_relaxed);
      UAVRES_COUNT("serve.gold.computed");
      if (computed) *computed = true;
    }
    {
      std::lock_guard<std::mutex> lock(gold_mutex_);
      gold_cache_.emplace(key, entry);
    }
    gold_flight_.Finish(key);
    return entry;
  }
}

void Server::RunFlight(std::uint64_t key) {
  UAVRES_TRACE_SCOPE("serve/flight");
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(flight_mutex_);
    auto it = flights_.find(key);
    if (it == flights_.end()) return;  // cannot happen; defensive
    flight = it->second;
  }
  // Announce the state transition to everyone attached so far; later
  // attachers already know they are riding along.
  {
    std::vector<Flight::Waiter> now;
    {
      std::lock_guard<std::mutex> lock(flight_mutex_);
      now = flight->waiters;
    }
    for (const auto& w : now) {
      SendFrame(w.conn, SpecMsgType::kProgress,
                Encode(WireProgress{w.request_id, RequestState::kRunning}));
    }
  }

  bool computed = false;
  core::MissionResult result;
  if (flight->spec.IsGold()) {
    result = Gold(flight->spec, flight->recovery, &computed).result;
  } else {
    // Bubble violations are counted against the mission's gold reference,
    // resolved through the gold cache only on a store miss, so N dependent
    // faulty runs trigger at most one reference simulation.
    UAVRES_TRACE_SCOPE("serve/faulty-run");
    std::shared_ptr<const telemetry::Trajectory> gold;
    core::ExperimentEntry entry =
        core::RunExperiment(store_, Harness(flight->recovery), flight->spec, [&] {
          gold = Gold(flight->spec, flight->recovery).trajectory;
          return gold.get();
        });
    result = std::move(entry.run.result);
    computed = !entry.hit;
    if (computed) {
      computed_.fetch_add(1, std::memory_order_relaxed);
      UAVRES_COUNT("serve.computed");
    }
  }
  if (!computed) {
    store_hits_.fetch_add(1, std::memory_order_relaxed);
    UAVRES_COUNT("serve.dedup.store-hits");
  }
  const ResultSource lead_source = computed ? ResultSource::kComputed : ResultSource::kStoreHit;

  std::ostringstream bytes;
  core::WriteMissionResult(bytes, result);
  const std::string result_bytes = bytes.str();

  // Retire the flight first, then fan out: a submit that misses the table
  // after this point re-runs through the store (a guaranteed hit).
  std::vector<Flight::Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(flight_mutex_);
    flights_.erase(key);
    waiters = std::move(flight->waiters);
  }
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    const ResultSource source = i == 0 ? lead_source : ResultSource::kSingleFlight;
    // Count before the send: a client that receives this result and
    // immediately queries stats must see it reflected.
    completed_.fetch_add(1, std::memory_order_relaxed);
    UAVRES_COUNT("serve.completed");
    SendFrame(waiters[i].conn, SpecMsgType::kResult,
              Encode(telemetry::WireResult{waiters[i].request_id, source, result_bytes}));
  }
}

void Server::SendStats(const std::shared_ptr<Connection>& conn) {
  std::ostringstream json;
  telemetry::MetricsRegistry::Global().WriteJson(json);
  SendFrame(conn, SpecMsgType::kStatsReply,
            Encode(telemetry::WireStatsReply{stats(), json.str()}));
}

telemetry::ServeStats Server::stats() const {
  telemetry::ServeStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.computed = computed_.load(std::memory_order_relaxed);
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.singleflight = singleflight_.load(std::memory_order_relaxed);
  s.gold_computed = gold_computed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace uavres::serve
