// Serve daemon integration tests, all over real loopback sockets:
//
//   * single-flight dedup — N clients submitting the identical spec cause
//     exactly ONE simulation, N byte-identical results, and one store entry,
//   * admission control — a full queue rejects with kRejectedOverload and
//     never deadlocks the accepted work,
//   * the versioned handshake — a schema-skewed client is refused before
//     any spec is interpreted,
//   * byte-identity — a served result equals the offline library run, a
//     daemon over an offline campaign's store answers from it, and one over
//     a stored gold run forks its cold faulty specs from a recaptured prefix,
//   * connection reaping — clients that come and go leave no fds behind,
//   * accept backoff — out of descriptors, the accept loop sleeps instead of
//     spinning on the connection waiting in its backlog.
#include "serve/server.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <iterator>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "serve/client.h"
#include "serve/net.h"
#include "telemetry/metrics_registry.h"

namespace uavres::serve {
namespace {

namespace fs = std::filesystem;
using telemetry::RejectReason;
using telemetry::WireSpec;

std::string MakeCacheDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "uavres_serve_" + tag;
  fs::remove_all(dir);
  return dir;
}

std::uint64_t Counter(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).Value();
}

WireSpec FaultySpec(int mission, std::uint8_t type = 3 /*kRandom*/,
                    double duration_s = 10.0) {
  WireSpec s;
  s.mission_index = mission;
  s.seed_base = 2024;
  s.has_fault = true;
  s.fault_type = type;
  s.fault_target = 2;  // kImu
  s.start_time_s = 90.0;
  s.duration_s = duration_s;
  s.magnitude = 1.0;
  return s;
}

/// Server on an ephemeral port with its accept loop on a background thread.
class TestServer {
 public:
  explicit TestServer(ServerConfig cfg) : server_(std::move(FixPort(cfg))) {
    std::string err;
    if (!server_.Start(&err)) {
      ADD_FAILURE() << "server start failed: " << err;
      return;
    }
    thread_ = std::thread([this] { server_.Run(); });
  }

  ~TestServer() {
    server_.Stop();
    if (thread_.joinable()) thread_.join();
  }

  Server& operator*() { return server_; }
  Server* operator->() { return &server_; }
  std::uint16_t port() { return server_.port(); }

 private:
  static ServerConfig FixPort(ServerConfig cfg) {
    cfg.port = 0;  // ephemeral; tests read it back
    return cfg;
  }
  Server server_;
  std::thread thread_;
};

Client::Options ClientOpts(std::uint16_t port, const std::string& name) {
  Client::Options o;
  o.port = port;
  o.name = name;
  return o;
}

TEST(ServeServer, SingleFlightNClientsOneSimulationOneStoreEntry) {
  ServerConfig cfg;
  cfg.cache_dir = MakeCacheDir("singleflight");
  cfg.num_threads = 1;  // serialize workers so overlapping submits share a flight
  TestServer server(cfg);

  // Four clients race the SAME spec, each submitting it twice in one batch
  // (the second copy lands while the first is still in flight, so at least
  // one attach is deterministic even if the clients themselves don't race).
  constexpr int kClients = 4;
  const WireSpec spec = FaultySpec(0);
  std::vector<std::vector<Client::Outcome>> outcomes(kClients);
  std::vector<std::string> errors(kClients);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client(ClientOpts(server.port(), "race-" + std::to_string(c)));
        if (!client.Connect(&errors[c])) return;
        client.SubmitAndWait({spec, spec}, outcomes[c], &errors[c]);
      });
    }
    for (auto& t : threads) t.join();
  }

  std::set<std::string> distinct_results;
  std::size_t ok = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[c], "");
    for (const auto& o : outcomes[c]) {
      EXPECT_TRUE(o.ok);
      if (o.ok) {
        ++ok;
        distinct_results.insert(o.result_bytes);
      }
    }
  }
  ASSERT_EQ(ok, static_cast<std::size_t>(kClients) * 2);
  // N clients, N*2 requests, ONE result — byte-identical everywhere.
  EXPECT_EQ(distinct_results.size(), 1u);

  const auto stats = server->stats();
  EXPECT_EQ(stats.computed, 1u) << "identical specs must simulate exactly once";
  EXPECT_EQ(stats.gold_computed, 1u) << "one gold reference for the shared mission";
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(ok));
  EXPECT_GE(stats.singleflight, 1u) << "same-batch duplicate must attach, not rerun";

  // The store holds exactly the gold + the faulty entry; the key was
  // committed once (no duplicate or leftover temp files).
  int files = 0;
  for (const auto& e : fs::recursive_directory_iterator(cfg.cache_dir)) {
    files += e.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(files, 2);
}

TEST(ServeServer, BackpressureRejectsOverloadWithoutDeadlock) {
  ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.queue_capacity = 1;  // one admitted run at a time
  TestServer server(cfg);

  // Eight DISTINCT specs in one batch: the first is admitted, and while it
  // simulates the rest must bounce with kRejectedOverload immediately —
  // never queue unboundedly, never block the connection.
  std::vector<WireSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(FaultySpec(i % 4, /*type=*/static_cast<std::uint8_t>(i % 7),
                               /*duration_s=*/2.0 + i));
  }
  Client client(ClientOpts(server.port(), "overload"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait(specs, outcomes, &err)) << err;  // terminates: no deadlock

  std::size_t ok = 0, overloaded = 0;
  for (const auto& o : outcomes) {
    if (o.ok) {
      ++ok;
    } else {
      EXPECT_EQ(o.reject, RejectReason::kRejectedOverload) << o.reject_detail;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, specs.size());
  EXPECT_GE(ok, 1u) << "the admitted run must still complete";
  EXPECT_GE(overloaded, 1u) << "a full queue must produce overload rejects";

  const auto stats = server->stats();
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(ok));

  // The daemon is still healthy after shedding load. The worker may not
  // have released its capacity slot the instant the last result arrived,
  // so admission can transiently refuse — poll briefly.
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    std::vector<Client::Outcome> retry;
    ASSERT_TRUE(client.SubmitAndWait({FaultySpec(0)}, retry, &err)) << err;
    ASSERT_EQ(retry.size(), 1u);
    recovered = retry[0].ok;
    if (!recovered) {
      EXPECT_EQ(retry[0].reject, RejectReason::kRejectedOverload);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(recovered) << "daemon did not recover admission after overload";
}

TEST(ServeServer, SchemaVersionMismatchIsRejectedAtHandshake) {
  TestServer server(ServerConfig{});

  std::string err;
  const int fd = net::Connect("127.0.0.1", server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  const std::string hello = telemetry::EncodeFrame(
      telemetry::SpecMsgType::kHello,
      telemetry::Encode(telemetry::WireHello{telemetry::kSpecSchemaVersion + 1, "time-traveler"}));
  ASSERT_TRUE(net::SendAll(fd, hello.data(), hello.size()));

  telemetry::FrameReader reader;
  char buf[4096];
  std::optional<telemetry::SpecFrame> frame;
  while (!frame) {
    const ssize_t got = net::RecvSome(fd, buf, sizeof buf);
    ASSERT_GT(got, 0) << "connection closed without a reject frame";
    ASSERT_TRUE(reader.Feed(buf, static_cast<std::size_t>(got)));
    frame = reader.Next();
  }
  ASSERT_EQ(frame->type, telemetry::SpecMsgType::kReject);
  telemetry::WireReject reject;
  ASSERT_TRUE(telemetry::Decode(frame->payload, reject));
  EXPECT_EQ(reject.reason, RejectReason::kVersionMismatch);
  // The server then drops the connection: EOF, not a hung socket.
  EXPECT_EQ(net::RecvSome(fd, buf, sizeof buf), 0);
  ::close(fd);

  // A correctly versioned client on the same daemon still handshakes.
  Client good(ClientOpts(server.port(), "current"));
  EXPECT_TRUE(good.Connect(&err)) << err;
}

TEST(ServeServer, BadSpecIsRejectedWithoutKillingTheBatch) {
  TestServer server(ServerConfig{});
  Client client(ClientOpts(server.port(), "mixed"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;

  WireSpec bad = FaultySpec(0);
  bad.mission_index = 99;  // out of range
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait({bad, FaultySpec(1, /*type=*/0, 2.0)}, outcomes,
                                   &err))
      << err;
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].reject, RejectReason::kBadSpec);
  EXPECT_TRUE(outcomes[1].ok) << "valid spec must survive a bad sibling";
}

TEST(ServeServer, ServedResultIsByteIdenticalToOfflineRun) {
  TestServer server(ServerConfig{});
  const WireSpec wire = FaultySpec(2, /*type=*/1 /*kZeros*/, 5.0);

  Client client(ClientOpts(server.port(), "verify"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait({wire}, outcomes, &err)) << err;
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok);

  // The offline recipe the daemon must reproduce bit-for-bit: gold reference
  // with the default harness, faulty run without trajectory recording.
  const auto& fleet = core::SharedValenciaScenario();
  const api::RunConfig run_cfg;
  core::FaultSpec fault;
  fault.type = static_cast<core::FaultType>(wire.fault_type);
  fault.target = static_cast<core::FaultTarget>(wire.fault_target);
  fault.start_time_s = wire.start_time_s;
  fault.duration_s = wire.duration_s;
  fault.magnitude = wire.magnitude;
  const api::SimulationRunner gold_runner(run_cfg);
  const auto gold =
      gold_runner.Run({fleet[2], wire.mission_index, std::nullopt, wire.seed_base});
  api::RunConfig faulty_cfg = run_cfg;
  faulty_cfg.record_trajectory = false;
  const api::SimulationRunner faulty_runner(faulty_cfg);
  const auto offline = faulty_runner.Run(
      {fleet[2], wire.mission_index, fault, wire.seed_base, &gold.trajectory});
  std::ostringstream os;
  core::WriteMissionResult(os, offline.result);
  EXPECT_EQ(outcomes[0].result_bytes, os.str());
}

TEST(ServeServer, AnswersOfflineCampaignFromTheStore) {
  const std::string dir = MakeCacheDir("offline");
  const api::Campaign campaign(
      api::CampaignConfig::Builder().Missions(1).Durations({2.0}).CacheDir(dir).Build());
  const api::CampaignResults offline = campaign.Run();
  const auto grid = campaign.GridFaults();
  ASSERT_EQ(offline.faulty.size(), grid.size());

  // The gold spec, then the mission's faulty grid, in offline order.
  std::vector<WireSpec> specs(1 + grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    WireSpec& w = specs[1 + i];
    w.has_fault = true;
    w.fault_type = static_cast<std::uint8_t>(grid[i].type);
    w.fault_target = static_cast<std::uint8_t>(grid[i].target);
    w.start_time_s = grid[i].start_time_s;
    w.duration_s = grid[i].duration_s;
    w.magnitude = grid[i].magnitude;
  }

  // Nothing is simulated: not the gold run, and not its onset prefix either.
  const std::uint64_t stepped0 = Counter("sim.steps_stepped");
  ServerConfig cfg;
  cfg.cache_dir = dir;
  TestServer server(cfg);
  Client client(ClientOpts(server.port(), "offline"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait(specs, outcomes, &err)) << err;
  ASSERT_EQ(outcomes.size(), specs.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << "spec " << i << ": " << outcomes[i].reject_detail;
    EXPECT_EQ(outcomes[i].source, telemetry::ResultSource::kStoreHit) << "spec " << i;
    std::ostringstream os;
    core::WriteMissionResult(os, i == 0 ? offline.gold[0] : offline.faulty[i - 1]);
    EXPECT_EQ(outcomes[i].result_bytes, os.str()) << "spec " << i;
  }
  const auto stats = server->stats();
  EXPECT_EQ(stats.computed, 0u);
  EXPECT_EQ(stats.gold_computed, 0u);
  EXPECT_EQ(Counter("sim.steps_stepped"), stepped0);
}

TEST(ServeServer, StoredGoldIsRecapturedAsAPrefixAndColdFaultyRepliesFork) {
  // A store that holds the gold entry and none of its faulty runs: the
  // daemon does not fly the gold run again, only its 90 s prefix for the
  // onset snapshot, and every cold faulty spec resumes from that snapshot.
  const std::string dir = MakeCacheDir("stored_gold");
  const api::RunConfig run;
  const auto& fleet = core::SharedValenciaScenario();
  {
    core::ResultStore store(dir);
    core::RunGold(store, run, {fleet[0], 0, std::nullopt, 2024, nullptr},
                  core::kInjectionStartS);
  }
  const api::Campaign campaign(
      api::CampaignConfig::Builder().Missions(1).Durations({2.0}).CacheDir("").Build());
  const api::CampaignResults offline = campaign.Run();
  const auto grid = campaign.GridFaults();

  std::vector<WireSpec> specs(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    specs[i] = FaultySpec(0, static_cast<std::uint8_t>(grid[i].type), grid[i].duration_s);
    specs[i].fault_target = static_cast<std::uint8_t>(grid[i].target);
  }
  const std::uint64_t steps0 = Counter("sim.steps");
  const std::uint64_t stepped0 = Counter("sim.steps_stepped");

  ServerConfig cfg;
  cfg.cache_dir = dir;
  TestServer server(cfg);
  Client client(ClientOpts(server.port(), "stored-gold"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait(specs, outcomes, &err)) << err;
  ASSERT_EQ(outcomes.size(), specs.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << "spec " << i << ": " << outcomes[i].reject_detail;
    EXPECT_EQ(outcomes[i].source, telemetry::ResultSource::kComputed) << "spec " << i;
    std::ostringstream os;
    core::WriteMissionResult(os, offline.faulty[i]);
    EXPECT_EQ(outcomes[i].result_bytes, os.str()) << "spec " << i;
  }
  const auto stats = server->stats();
  EXPECT_EQ(stats.computed, specs.size());
  EXPECT_EQ(stats.gold_computed, 0u);
  // Each fork skips one prefix; the recapture flies exactly one, and no
  // full gold run adds its steps (sim.steps counts only finished runs).
  const std::uint64_t prefix = 22'500;  // 90 s at 250 Hz
  EXPECT_EQ((Counter("sim.steps") - steps0) - (Counter("sim.steps_stepped") - stepped0),
            (specs.size() - 1) * prefix);
}

TEST(ServeServer, StatsRequestReportsCountersAndMetrics) {
  TestServer server(ServerConfig{});
  Client client(ClientOpts(server.port(), "stats"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait({FaultySpec(0)}, outcomes, &err)) << err;

  telemetry::ServeStats stats;
  std::string metrics_json;
  ASSERT_TRUE(client.QueryStats(stats, metrics_json, &err)) << err;
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_FALSE(metrics_json.empty());
  EXPECT_NE(metrics_json.find("serve."), std::string::npos)
      << "serve counters missing from the metrics registry dump";
}

/// Open descriptors of this process (daemon and clients alike).
std::ptrdiff_t OpenFds() {
  return std::distance(fs::directory_iterator("/proc/self/fd"), fs::directory_iterator{});
}

TEST(ServeServer, ReapsDisconnectedClients) {
  TestServer server(ServerConfig{});
  const auto connect_and_close = [&](int i) {
    Client client(ClientOpts(server.port(), "reap-" + std::to_string(i)));
    std::string err;
    ASSERT_TRUE(client.Connect(&err)) << err;
  };
  connect_and_close(-1);  // descriptors the first connection opens lazily
  const std::ptrdiff_t before = OpenFds();
  for (int i = 0; i < 200; ++i) connect_and_close(i);
  // Finished connections are reaped when the next client is accepted, so
  // the last few hold their descriptor until another client arrives (or
  // their thread gets to run on a loaded machine): keep arriving briefly.
  std::ptrdiff_t open = OpenFds();
  for (int i = 200; i < 250 && open > before + 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    connect_and_close(i);
    open = OpenFds();
  }
  EXPECT_LE(open, before + 4);
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

TEST(ServeServer, AcceptBacksOffWhenOutOfDescriptors) {
  TestServer server(ServerConfig{});
  // Open one connection while descriptors are free and keep it open through
  // the limit: the daemon builds its first Connection and connection thread
  // before the limit, and no connection thread ends inside it. UBSan checks
  // a polymorphic type missing from its cache with a pipe(), which fails at
  // the limit and reads as a false "invalid vptr".
  Client warm(ClientOpts(server.port(), "before-emfile"));
  std::string err;
  ASSERT_TRUE(warm.Connect(&err)) << err;
  const int pending = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(pending, 0);

  // Leave this process a few descriptors above what it holds, then take them.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(OpenFds() + 4);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> hogs;
  for (int fd = ::dup(pending); fd >= 0; fd = ::dup(pending)) hogs.push_back(fd);
  EXPECT_EQ(errno, EMFILE);

  // The handshake completes into the listen backlog. The accept loop is
  // already blocked in accept(), which reserved its descriptor before it
  // waited, so this first accept succeeds through that slot; every later
  // accept fails with EMFILE.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int connected = ::connect(pending, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  const double cpu0 = ProcessCpuSeconds();
  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

  for (const int fd : hogs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ::close(pending);
  ASSERT_EQ(connected, 0);
  EXPECT_LT(cpu_s, wall_s / 3) << "accept loop spun at the descriptor limit";

  Client client(ClientOpts(server.port(), "after-emfile"));
  EXPECT_TRUE(client.Connect(&err)) << err;
}

}  // namespace
}  // namespace uavres::serve
