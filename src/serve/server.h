// `uavres serve` — campaign-as-a-service daemon (DESIGN.md §17).
//
// A long-running server that turns the fault-campaign engine into a shared
// multi-client service: clients connect over a local TCP socket, speak the
// versioned ExperimentSpec wire protocol (telemetry/spec_codec.h), submit
// batches of specs, and receive streamed per-request progress plus final
// MissionResults on the same connection.
//
// The pipeline per accepted spec:
//
//   validate -> core::ExperimentKey -> flight table (single-flight dedup:
//   one in-flight run per key, later submitters attach as waiters) ->
//   TaskPool (per-client round-robin fairness, bounded admission; full
//   queue => kRejectedOverload) -> worker: core::RunExperiment (store hit,
//   else simulate against the mission's core::GoldReference — its true path
//   and onset snapshot, resolved through an in-memory single-flight gold
//   cache in front of core::RunGold — and commit) -> fan the result out to
//   every attached waiter.
//
// Results are byte-identical to an offline core::Campaign::Run of the same
// grid: both run every gold spec through core::RunGold and every faulty one
// through core::RunExperiment, with the default harness plus the spec's
// recovery flag.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "core/scheduler.h"
#include "telemetry/spec_codec.h"

namespace uavres::serve {

struct ServerConfig {
  std::string host{"127.0.0.1"};
  /// TCP port; 0 binds an ephemeral port (tests read it back via port()).
  std::uint16_t port{7745};
  /// Simulation worker threads (core::TaskPool); 0 = hardware concurrency.
  int num_threads{0};
  /// Admission bound: specs queued or running at once. Beyond it, submits
  /// are refused with kRejectedOverload instead of queueing unboundedly.
  std::size_t queue_capacity{256};
  /// Persistent result-store directory shared with offline campaigns;
  /// empty = in-memory dedup only.
  std::string cache_dir;
  /// Honor kShutdown frames (the loadgen --shutdown handshake and the CI
  /// smoke job use this; a production deployment would disable it).
  bool allow_remote_shutdown{true};
};

/// The daemon. Lifecycle: construct -> Start() (bind + listen + spawn the
/// worker pool) -> Run() (accept loop; blocks until Stop() or a remote
/// shutdown) -> destructor joins everything.
class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens; false (with `*error` set) on socket failure.
  bool Start(std::string* error = nullptr);

  /// The bound port (resolves config port 0 to the ephemeral choice).
  std::uint16_t port() const { return port_; }

  /// Accept loop. Returns after Stop() — or a client kShutdown when
  /// allowed — once in-flight work has drained.
  void Run();

  /// Signals shutdown and unblocks the accept loop (callable from any
  /// thread, including connection handlers).
  void Stop();

  telemetry::ServeStats stats() const;

 private:
  struct Connection;
  struct Flight;

  void HandleConnection(const std::shared_ptr<Connection>& conn);
  /// Joins every finished connection thread and drops its Connection, so a
  /// long-running daemon holds only its live clients' fds and threads.
  void ReapFinishedConnections();
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const telemetry::SpecFrame& frame);
  void HandleSubmit(const std::shared_ptr<Connection>& conn,
                    const std::string& payload);
  void SubmitOne(const std::shared_ptr<Connection>& conn,
                 const telemetry::WireRequest& req);
  void RunFlight(std::uint64_t key);
  void SendStats(const std::shared_ptr<Connection>& conn);

  /// One gold run: its result and its faulty specs' reference.
  struct GoldEntry {
    std::shared_ptr<const core::GoldReference> reference;
    core::MissionResult result;
  };
  /// The gold run of `spec`'s mission, seed base and `recovery`: an
  /// in-memory cache in front of core::RunGold, single-flight so concurrent
  /// dependents trigger one reference run. A gold entry already in the
  /// store is not flown again; its onset snapshot is recaptured, by a
  /// prefix-only flight, when a faulty miss first asks for it. Sets
  /// `*computed` when this call simulated the gold run.
  GoldEntry Gold(const api::ExperimentSpec& spec, bool recovery, bool* computed = nullptr);

  static void SendFrame(const std::shared_ptr<Connection>& conn,
                        telemetry::SpecMsgType type, const std::string& payload);

  ServerConfig cfg_;
  const std::vector<core::DroneSpec>& fleet_;
  core::ResultStore store_;
  std::unique_ptr<core::TaskPool> pool_;

  int listen_fd_{-1};
  std::uint16_t port_{0};
  std::atomic<bool> stopping_{false};

  /// One accepted client and its reader thread.
  struct Handler {
    std::shared_ptr<Connection> conn;
    std::thread thread;
  };
  std::mutex conn_mutex_;
  std::vector<Handler> handlers_;
  std::uint64_t next_conn_id_{1};

  /// Single-flight table: cache key -> in-flight run with attached waiters.
  std::mutex flight_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Flight>> flights_;

  /// Gold reference cache (gold store key -> reference + result).
  std::mutex gold_mutex_;
  std::map<std::uint64_t, GoldEntry> gold_cache_;
  core::SingleFlight gold_flight_;

  /// Wire-visible counters (telemetry::ServeStats mirrors).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> store_hits_{0};
  std::atomic<std::uint64_t> singleflight_{0};
  std::atomic<std::uint64_t> gold_computed_{0};
};

}  // namespace uavres::serve
