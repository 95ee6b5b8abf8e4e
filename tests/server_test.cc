// Networked estimator service suite (DESIGN.md §14): the server's wire
// answers must be bit-identical to an in-process CompiledPlan batch on
// the same snapshot; overload must shed with RESOURCE_EXHAUSTED instead
// of queueing or aborting; malformed frames and injected net.* faults
// must cost at most one connection, never the server; and serving must
// stay uninterrupted while feedback-driven retrains republish the model
// underneath (the TSAN matrix lane checks the whole dance is race-free).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "sel/sel.h"

namespace sel {
namespace {

struct Fixture {
  Fixture() : data(MakePowerLike(3000, 1300).Project({0, 1})), index(data.rows()) {}

  Workload MakeWorkload(size_t n, uint64_t seed) const {
    WorkloadOptions opts;
    opts.seed = seed;
    WorkloadGenerator gen(&data, &index, opts);
    return gen.Generate(n);
  }

  /// A trained online estimator with automatic retraining off (tests
  /// that need retrains set their own interval).
  std::unique_ptr<OnlineEstimator> MakeTrained(size_t n = 200,
                                               uint64_t seed = 17) const {
    OnlineOptions opts;
    opts.retrain_interval = 0;
    auto est = OnlineEstimator::Create(data.dim(), opts);
    EXPECT_TRUE(est.ok()) << est.status().ToString();
    for (const auto& z : MakeWorkload(n, seed)) {
      EXPECT_TRUE(est.value()->Feedback(z.query, z.selectivity).ok());
    }
    EXPECT_TRUE(est.value()->Retrain().ok());
    EXPECT_TRUE(est.value()->trained());
    return std::move(est).value();
  }

  Dataset data;
  CountingKdTree index;
};

EstimatorServer::Options QuietOptions() {
  EstimatorServer::Options opts;
  opts.port = 0;              // ephemeral: tests never collide
  opts.batch_window_us = 100;
  return opts;
}

Result<std::unique_ptr<EstimatorClient>> Dial(const EstimatorServer& server) {
  return EstimatorClient::Connect("127.0.0.1", server.port());
}

/// Metrics on and zeroed for the scope of one test.
struct MetricsOn {
  MetricsOn() {
    SetMetricsEnabled(true);
    MetricsRegistry::Global().Reset();
  }
  ~MetricsOn() {
    MetricsRegistry::Global().Reset();
    SetMetricsEnabled(false);
  }
};

/// Polls `done` every millisecond until it holds or `timeout` passes.
bool WaitUntil(const std::function<bool()>& done,
               std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Raw TCP connection for writing deliberately malformed bytes.
int DialRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// 12-byte header with caller-controlled fields (for malformed input).
std::string RawHeader(uint32_t magic, uint8_t version, uint8_t type,
                      uint32_t payload_len) {
  std::string h;
  PutU32(&h, magic);
  PutU8(&h, version);
  PutU8(&h, type);
  PutU8(&h, 0);  // status
  PutU8(&h, 0);  // reserved
  PutU32(&h, payload_len);
  return h;
}

TEST(ServerLifecycle, StartsOnEphemeralPortAndShutsDownIdempotently) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_GT(server.value()->port(), 0);
  EXPECT_TRUE(server.value()->running());
  server.value()->Shutdown();
  EXPECT_FALSE(server.value()->running());
  server.value()->Shutdown();  // second call is a no-op, not a crash
}

TEST(ServerLifecycle, OptionsValidateRejectsBadValues) {
  EstimatorServer::Options opts;
  opts.max_pending = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = EstimatorServer::Options();
  opts.port = 70000;
  EXPECT_FALSE(opts.Validate().ok());
  opts = EstimatorServer::Options();
  opts.batch_window_us = -1;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(ServerLifecycle, OptionsFromEnvReadsKnobs) {
  ::setenv("SEL_SERVE_PORT", "12345", 1);
  ::setenv("SEL_SERVE_BATCH_WINDOW_US", "777", 1);
  ::setenv("SEL_SERVE_MAX_PENDING", "9", 1);
  ::setenv("SEL_SERVE_REQUEST_DEADLINE_MS", "250", 1);
  const EstimatorServer::Options opts = EstimatorServer::Options::FromEnv();
  ::unsetenv("SEL_SERVE_PORT");
  ::unsetenv("SEL_SERVE_BATCH_WINDOW_US");
  ::unsetenv("SEL_SERVE_MAX_PENDING");
  ::unsetenv("SEL_SERVE_REQUEST_DEADLINE_MS");
  EXPECT_EQ(opts.port, 12345);
  EXPECT_EQ(opts.batch_window_us, 777);
  EXPECT_EQ(opts.max_pending, 9u);
  EXPECT_EQ(opts.request_deadline_ms, 250);
}

TEST(ServerRoundTrip, Ping) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client.value()->Ping().ok());
}

TEST(ServerRoundTrip, SingleEstimateBitIdenticalToCompiledPlan) {
  Fixture fx;
  auto est = fx.MakeTrained();
  const auto plan = est->serving_plan();
  ASSERT_NE(plan, nullptr);
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());

  const Workload probes = fx.MakeWorkload(40, 99);
  for (const auto& z : probes) {
    auto remote = client.value()->Estimate(z.query);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    double direct = 0.0;
    plan->EstimateMany(&z.query, 1, &direct);
    // Bit identity, not tolerance: doubles travel as raw IEEE bits and
    // the batch kernel is independent of batch composition.
    EXPECT_EQ(std::memcmp(&remote.value(), &direct, sizeof(double)), 0)
        << "remote " << remote.value() << " != direct " << direct;
  }
}

TEST(ServerRoundTrip, BatchEstimateBitIdenticalToCompiledPlan) {
  Fixture fx;
  auto est = fx.MakeTrained();
  const auto plan = est->serving_plan();
  ASSERT_NE(plan, nullptr);
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());

  std::vector<Query> queries;
  for (const auto& z : fx.MakeWorkload(64, 123)) queries.push_back(z.query);
  auto remote = client.value()->EstimateBatch(queries);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote.value().size(), queries.size());
  std::vector<double> direct(queries.size(), 0.0);
  plan->EstimateMany(queries.data(), queries.size(), direct.data());
  EXPECT_EQ(std::memcmp(remote.value().data(), direct.data(),
                        sizeof(double) * direct.size()),
            0);
}

TEST(ServerRoundTrip, StatsFrameIsJson) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());
  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats.value().find("\"counters\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"histograms\""), std::string::npos);
  EXPECT_EQ(stats.value().front(), '{');
  EXPECT_EQ(stats.value().back(), '}');
}

// Multi-client hammer: every concurrent wire answer must match the
// in-process plan bit for bit. Under the TSAN matrix lane this is also
// the race check on the acceptor / connection / batcher threads.
TEST(ServerConcurrency, MultiClientHammerBitIdentical) {
  Fixture fx;
  auto est = fx.MakeTrained();
  const auto plan = est->serving_plan();
  ASSERT_NE(plan, nullptr);
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());

  constexpr int kClients = 6;
  constexpr int kRequests = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Dial(*server.value());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const Workload probes = fx.MakeWorkload(kRequests, 1000 + t);
      for (int i = 0; i < kRequests; ++i) {
        const Query& q = probes[i].query;
        double direct = 0.0;
        plan->EstimateMany(&q, 1, &direct);
        if (i % 3 == 0) {
          auto r = client.value()->EstimateBatch({q});
          if (!r.ok() ||
              std::memcmp(r.value().data(), &direct, sizeof(double)) != 0) {
            (r.ok() ? mismatches : failures).fetch_add(1);
          }
        } else {
          auto r = client.value()->Estimate(q);
          if (!r.ok() ||
              std::memcmp(&r.value(), &direct, sizeof(double)) != 0) {
            (r.ok() ? mismatches : failures).fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

// Serving keeps answering while feedback frames drive retrains (and the
// gate→publish pipeline) underneath; every concurrent answer stays a
// valid selectivity.
TEST(ServerConcurrency, RetrainWhileServing) {
  Fixture fx;
  OnlineOptions oopts;
  oopts.retrain_interval = 8;
  oopts.window_capacity = 256;
  auto est = OnlineEstimator::Create(fx.data.dim(), oopts);
  ASSERT_TRUE(est.ok());
  for (const auto& z : fx.MakeWorkload(64, 5)) {
    ASSERT_TRUE(est.value()->Feedback(z.query, z.selectivity).ok());
  }
  ASSERT_TRUE(est.value()->trained());
  const size_t retrains_before = est.value()->retrain_count();

  auto server = EstimatorServer::Start(est.value().get(), QuietOptions());
  ASSERT_TRUE(server.ok());

  // Feedback round trips pay for synchronous retrains server-side, and
  // a loaded CI box (ctest -j on few cores) can stretch one past the
  // default 5s receive timeout; a generous budget keeps the test about
  // correctness under retrain, not scheduler luck.
  const long kSlowBoxTimeoutMs = 120000;

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      auto client = EstimatorClient::Connect(
          "127.0.0.1", server.value()->port(), kSlowBoxTimeoutMs);
      if (!client.ok()) {
        bad.fetch_add(1);
        return;
      }
      const Workload probes = fx.MakeWorkload(32, 300 + t);
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = client.value()->Estimate(probes[i++ % probes.size()].query);
        if (!r.ok() || !(r.value() >= 0.0 && r.value() <= 1.0)) {
          bad.fetch_add(1);
          return;
        }
      }
    });
  }

  // Feedback over the wire: each record may trigger a retrain + publish.
  // No ASSERT before the joins — an early return would terminate on the
  // joinable reader threads (the ambient-fault lane exercises this).
  auto writer = EstimatorClient::Connect(
      "127.0.0.1", server.value()->port(), kSlowBoxTimeoutMs);
  size_t fed = 0;
  if (writer.ok()) {
    for (const auto& z : fx.MakeWorkload(64, 777)) {
      if (!writer.value()->Feedback(z.query, z.selectivity).ok()) break;
      ++fed;
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_EQ(fed, 64u);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(est.value()->retrain_count(), retrains_before);
}

// Admission control: a full pending queue answers RESOURCE_EXHAUSTED
// immediately — overload degrades throughput, never memory, and the
// server keeps serving afterwards.
TEST(ServerOverload, ShedsLoadWithResourceExhausted) {
  Fixture fx;
  auto est = fx.MakeTrained();
  EstimatorServer::Options opts = QuietOptions();
  opts.max_pending = 1;
  opts.max_batch_queries = 1;  // one query per dispatch: backlog builds
  opts.batch_window_us = 0;
  auto server = EstimatorServer::Start(est.get(), opts);
  ASSERT_TRUE(server.ok());

  const Query probe = fx.MakeWorkload(1, 1).front().query;
  std::atomic<int> shed{0};
  std::atomic<int> served{0};
  std::atomic<int> other{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  // Rounds of a concurrent burst against a capacity-1 queue until at
  // least one request is shed (practically the first round).
  while (shed.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        auto client = Dial(*server.value());
        if (!client.ok()) return;
        for (int i = 0; i < 25; ++i) {
          auto r = client.value()->Estimate(probe);
          if (r.ok()) {
            served.fetch_add(1);
          } else if (r.status().message().find("RESOURCE_EXHAUSTED") !=
                     std::string::npos) {
            shed.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_GT(shed.load(), 0) << "no request was ever shed";
  EXPECT_GT(served.load(), 0) << "overload must not starve everything";
  EXPECT_EQ(other.load(), 0);
  // The server survived the storm.
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->Ping().ok());
}

// A request whose deadline lapses while it waits for its batch is
// answered DEADLINE_EXCEEDED instead of computed.
TEST(ServerDeadline, QueuedPastBudgetAnswersDeadlineExceeded) {
  Fixture fx;
  auto est = fx.MakeTrained();
  EstimatorServer::Options opts = QuietOptions();
  opts.request_deadline_ms = 20;
  opts.batch_window_us = 200000;  // 200ms linger >> 20ms budget
  auto server = EstimatorServer::Start(est.get(), opts);
  ASSERT_TRUE(server.ok());
  // A lone connection would close the window at once; an idle second
  // one (accepted first) keeps the batch lingering past the budget.
  auto idle = Dial(*server.value());
  ASSERT_TRUE(idle.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());
  const Query probe = fx.MakeWorkload(1, 1).front().query;
  auto r = client.value()->Estimate(probe);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("DEADLINE_EXCEEDED"),
            std::string::npos)
      << r.status().ToString();
}

// The batch window is an upper bound. Each connection has at most one
// request in flight, so once every open connection has its request in
// the batch, the batch dispatches without waiting the window out; an
// idle connection keeps it open until the window ends or it leaves.
class ServerEarlyClose : public ::testing::Test {
 protected:
  static constexpr long kWindowUs = 5000000;
  static constexpr double kWindowS = kWindowUs * 1e-6;
  static constexpr size_t kBurst = 4;

  void SetUp() override {
    est_ = fx_.MakeTrained();
    plan_ = est_->serving_plan();
    ASSERT_NE(plan_, nullptr);
    EstimatorServer::Options opts = QuietOptions();
    opts.batch_window_us = kWindowUs;
    auto server = EstimatorServer::Start(est_.get(), opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  /// `n` connections with a receive timeout well past the window, each
  /// registered by the server before this returns.
  std::vector<std::unique_ptr<EstimatorClient>> DialRegistered(size_t n) {
    std::vector<std::unique_ptr<EstimatorClient>> clients;
    for (size_t i = 0; i < n; ++i) {
      auto client = EstimatorClient::Connect("127.0.0.1", server_->port(),
                                             /*timeout_ms=*/60000);
      EXPECT_TRUE(client.ok()) << client.status().ToString();
      if (!client.ok()) return {};
      clients.push_back(std::move(client).value());
    }
    EXPECT_TRUE(WaitUntil([&] { return server_->active_connections() >= n; },
                          std::chrono::seconds(10)));
    return clients;
  }

  /// One Estimate from each client at once, while `meanwhile` runs on
  /// the calling thread. Returns each answer's seconds since the burst
  /// began, or -1 for an answer that failed or is not bit-identical to
  /// the served plan.
  std::vector<double> EstimateFromEach(
      const std::vector<std::unique_ptr<EstimatorClient>>& clients,
      const std::function<void()>& meanwhile = [] {}) {
    const Query probe = fx_.MakeWorkload(1, 1).front().query;
    double direct = 0.0;
    plan_->EstimateMany(&probe, 1, &direct);
    std::vector<double> seconds(clients.size(), -1.0);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < clients.size(); ++i) {
      threads.emplace_back([&, i] {
        auto r = clients[i]->Estimate(probe);
        if (r.ok() &&
            std::memcmp(&r.value(), &direct, sizeof(double)) == 0) {
          seconds[i] = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        }
      });
    }
    meanwhile();
    for (auto& t : threads) t.join();
    return seconds;
  }

  Fixture fx_;
  std::unique_ptr<OnlineEstimator> est_;
  std::shared_ptr<const CompiledPlan> plan_;
  std::unique_ptr<EstimatorServer> server_;  // last: shuts down first
};

TEST_F(ServerEarlyClose, AllConnectionsInBatchDispatchInsideWindow) {
  MetricsOn metrics;
  const auto clients = DialRegistered(kBurst);
  ASSERT_EQ(clients.size(), kBurst);
  for (double s : EstimateFromEach(clients)) {
    EXPECT_GE(s, 0.0) << "an answer failed or differs from the plan";
    EXPECT_LT(s, kWindowS / 2);
  }
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* batches = snap.FindHistogram("server.batch_size");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->count, 1u);                          // one batch ...
  EXPECT_EQ(batches->sum, static_cast<double>(kBurst));   // ... of 4
  const HistogramSnapshot* linger =
      snap.FindHistogram("server.stage.linger_us");
  ASSERT_NE(linger, nullptr);
  EXPECT_EQ(linger->count, 1u);
  EXPECT_LT(linger->sum, kWindowUs / 2);
  auto stats = clients.front()->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats.value().find("\"server.stage.linger_us\""),
            std::string::npos);
}

TEST_F(ServerEarlyClose, IdleConnectionHoldsWindowOpen) {
  auto clients = DialRegistered(kBurst + 1);
  ASSERT_EQ(clients.size(), kBurst + 1);
  const auto idle = std::move(clients.back());
  clients.pop_back();
  for (double s : EstimateFromEach(clients)) EXPECT_GE(s, kWindowS);
}

TEST_F(ServerEarlyClose, ClosingIdleConnectionReleasesLingeringBatch) {
  auto clients = DialRegistered(kBurst + 1);
  ASSERT_EQ(clients.size(), kBurst + 1);
  std::unique_ptr<EstimatorClient> idle = std::move(clients.back());
  clients.pop_back();
  constexpr double kHoldS = 0.2;
  const std::vector<double> seconds = EstimateFromEach(clients, [&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(kHoldS));
    idle.reset();  // the last connection without a request leaves
  });
  for (double s : seconds) {
    // Held while the idle connection was open, released when it closed.
    EXPECT_GE(s, kHoldS);
    EXPECT_LT(s, kWindowS / 2);
  }
}

// server.connections follows open connections down as well as up.
TEST(ServerConnections, GaugeFallsWhenClientDisconnects) {
  MetricsOn metrics;
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const auto gauge = [] {
    return MetricsRegistry::Global().Snapshot().GaugeValue(
        "server.connections");
  };
  {
    auto client = Dial(*server.value());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value()->Ping().ok());  // registered and serving
    EXPECT_EQ(server.value()->active_connections(), 1u);
    EXPECT_EQ(gauge(), 1);
  }
  EXPECT_TRUE(WaitUntil([&] { return gauge() == 0; },
                        std::chrono::seconds(10)));
  EXPECT_EQ(server.value()->active_connections(), 0u);
}

TEST(ServerMalformed, BadMagicGetsErrorThenClose) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int fd = DialRaw(server.value()->port());
  const std::string h = RawHeader(0xDEADBEEF, kProtoVersion,
                                  static_cast<uint8_t>(FrameType::kPing), 0);
  ASSERT_TRUE(WriteFull(fd, h.data(), h.size()).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);
  // The stream lost frame alignment: the server closes after answering.
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);
}

TEST(ServerMalformed, OversizedPayloadRejected) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int fd = DialRaw(server.value()->port());
  const std::string h =
      RawHeader(kProtoMagic, kProtoVersion,
                static_cast<uint8_t>(FrameType::kEstimate),
                kMaxFramePayload + 1);
  ASSERT_TRUE(WriteFull(fd, h.data(), h.size()).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);
  ::close(fd);
}

TEST(ServerMalformed, UnknownFrameTypeRejected) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int fd = DialRaw(server.value()->port());
  const std::string h = RawHeader(kProtoMagic, kProtoVersion, 99, 0);
  ASSERT_TRUE(WriteFull(fd, h.data(), h.size()).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);
  ::close(fd);
}

TEST(ServerMalformed, TruncatedFrameCostsOnlyThatConnection) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  // Half a header, then hang up mid-frame.
  const int fd = DialRaw(server.value()->port());
  const std::string h = RawHeader(
      kProtoMagic, kProtoVersion,
      static_cast<uint8_t>(FrameType::kEstimate), 64);
  ASSERT_TRUE(WriteFull(fd, h.data(), h.size()).ok());
  ::close(fd);  // payload never arrives
  // The server is unharmed: a fresh client round-trips.
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->Ping().ok());
}

// Malformed query parameters (inverted box interval) must be rejected
// at the wire edge with INVALID_ARGUMENT — the geometry constructors
// would abort on them.
TEST(ServerMalformed, InvertedBoxIntervalRejectedAtEdge) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int fd = DialRaw(server.value()->port());
  Frame request;
  request.type = FrameType::kEstimate;
  PutU8(&request.payload, 1);   // box tag
  PutU16(&request.payload, 2);  // dim
  PutF64(&request.payload, 0.9);  // lo[0] > hi[0]: inverted
  PutF64(&request.payload, 0.2);  // lo[1]
  PutF64(&request.payload, 0.1);  // hi[0]
  PutF64(&request.payload, 0.8);  // hi[1]
  ASSERT_TRUE(WriteFrame(fd, request).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.status, WireStatus::kInvalidArgument);
  // A frame-aligned reject keeps the connection usable.
  Frame ping;
  ping.type = FrameType::kPing;
  ASSERT_TRUE(WriteFrame(fd, ping).ok());
  ASSERT_TRUE(ReadFrame(fd, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kPong);
  ::close(fd);
}

TEST(ServerMalformed, DimensionMismatchRejected) {
  Fixture fx;
  auto est = fx.MakeTrained();  // 2-dim model
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  auto client = Dial(*server.value());
  ASSERT_TRUE(client.ok());
  const Query q3(Box({0.1, 0.1, 0.1}, {0.9, 0.9, 0.9}));
  auto r = client.value()->Estimate(q3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

struct FaultGuard {
  ~FaultGuard() { FaultRegistry::Global().DisarmAll(); }
};

// An injected read/write/accept failure costs one connection, never the
// server: a fresh client still round-trips after the blast.
TEST(ServerFaults, InjectedNetReadFailureSurvives) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  FaultGuard guard;
  {
    auto client = Dial(*server.value());
    ASSERT_TRUE(client.ok());
    FaultRegistry::Global().Arm("net.read", FaultRegistry::kEveryHit);
    const Query probe = fx.MakeWorkload(1, 1).front().query;
    // Either side's read may fire first; the call must fail, not hang.
    EXPECT_FALSE(client.value()->Estimate(probe).ok());
    FaultRegistry::Global().DisarmAll();
  }
  auto fresh = Dial(*server.value());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value()->Ping().ok());
}

TEST(ServerFaults, InjectedNetWriteFailureSurvives) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  FaultGuard guard;
  {
    auto client = Dial(*server.value());
    ASSERT_TRUE(client.ok());
    FaultRegistry::Global().Arm("net.write", FaultRegistry::kEveryHit);
    const Query probe = fx.MakeWorkload(1, 1).front().query;
    EXPECT_FALSE(client.value()->Estimate(probe).ok());
    FaultRegistry::Global().DisarmAll();
  }
  auto fresh = Dial(*server.value());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value()->Ping().ok());
}

TEST(ServerFaults, InjectedAcceptFailureDropsOneConnection) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  FaultGuard guard;
  FaultRegistry::Global().Arm("net.accept", 1);  // first accept only
  {
    // The TCP handshake completes in the kernel, so Connect succeeds;
    // the injected fault closes the connection server-side and the
    // first call fails.
    auto doomed = Dial(*server.value());
    if (doomed.ok()) EXPECT_FALSE(doomed.value()->Ping().ok());
  }
  auto fresh = Dial(*server.value());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value()->Ping().ok());
}

// Graceful drain: Shutdown answers the in-flight request (or refuses it
// cleanly) and the client sees a definite outcome, never a hang.
TEST(ServerShutdown, DrainAnswersInFlightRequests) {
  Fixture fx;
  auto est = fx.MakeTrained();
  EstimatorServer::Options opts = QuietOptions();
  opts.batch_window_us = 50000;  // 50ms linger: requests are in flight
  auto server = EstimatorServer::Start(est.get(), opts);
  ASSERT_TRUE(server.ok());
  const auto plan = est->serving_plan();
  ASSERT_NE(plan, nullptr);

  // An idle connection (accepted before the requester's) keeps the
  // window open, so the request is still lingering when Shutdown runs.
  auto idle = Dial(*server.value());
  ASSERT_TRUE(idle.ok());
  const Query probe = fx.MakeWorkload(1, 1).front().query;
  std::atomic<int> definite{0};
  std::thread requester([&] {
    auto client = Dial(*server.value());
    if (!client.ok()) return;
    auto r = client.value()->Estimate(probe);
    if (r.ok()) {
      double direct = 0.0;
      plan->EstimateMany(&probe, 1, &direct);
      EXPECT_EQ(std::memcmp(&r.value(), &direct, sizeof(double)), 0);
    }
    definite.fetch_add(1);  // OK or error — either is a definite answer
  });
  // Let the request land in the queue, then drain underneath it.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.value()->Shutdown();
  requester.join();
  EXPECT_EQ(definite.load(), 1);
}

TEST(ServerShutdown, NewConnectionsFailAfterShutdown) {
  Fixture fx;
  auto est = fx.MakeTrained();
  auto server = EstimatorServer::Start(est.get(), QuietOptions());
  ASSERT_TRUE(server.ok());
  const int port = server.value()->port();
  server.value()->Shutdown();
  auto client = EstimatorClient::Connect("127.0.0.1", port, 1000);
  if (client.ok()) {
    // A racing TCP handshake may still succeed against a dying listener
    // backlog; the round trip must fail regardless.
    EXPECT_FALSE(client.value()->Ping().ok());
  }
}

}  // namespace
}  // namespace sel
