// perfbench: measures one benchmark workload and writes its raw samples
// as JSON. perfbench/run.py builds this program, runs it, and turns the
// samples into the reported metrics (perfbench/README.md).
//
//   perfbench --workload wire_box --seed 1 --seconds 20 --trace 0
//             --out raw.json [--trace-file trace.json]
//
// The program drives the library only through its public entry points:
// EstimatorServer/EstimatorClient, CompiledPlan, OnlineEstimator, the
// estimator registry, the proto codec and the geometry volume kernels.
// Everything a run computes is checked: each estimate must be the exact
// bits an in-process CompiledPlan::EstimateMany gives on the plan that
// served it, and must lie in [0, 1].
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "sel/sel.h"

namespace {

using sel::CompiledPlan;
using sel::EstimatorClient;
using sel::EstimatorServer;
using sel::OnlineEstimator;
using sel::Query;
using sel::Workload;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Fixed inputs. The dataset, every training set, every probe set and the
// feedback sequence come from kFixedSeed, so models and q-errors are the
// same in every run; --seed only draws the query streams the callers
// send while the clock runs.

constexpr uint64_t kFixedSeed = 20220612;
constexpr size_t kRows = 200000;         // 2-D power-like tuples
constexpr size_t kBoxTrain = 100;        // wire_box plan training set
constexpr size_t kHalfspaceTrain = 200;  // embedded_halfspace training set
// A coarser split threshold than the default keeps the halfspace plan near
// 100 entries and its training under a second.
constexpr const char* kHalfspaceSpec = "quadhist:tau=0.03";
constexpr size_t kProbe = 400;           // q-error probe set
constexpr size_t kPool = 4096;           // per-seed load stream
constexpr size_t kBandCandidates = 6000;  // selectivity-axis query draw
constexpr size_t kBandQueries = 60;       // queries kept per band
constexpr size_t kBatch = 64;            // EstimateMany batch size
constexpr size_t kWindow = 64;           // online window capacity
constexpr size_t kInterval = 16;         // online retrain interval
constexpr size_t kWarmup = kWindow;      // records fed during set-up
constexpr size_t kPassRecords = 320;     // one timed feedback pass
constexpr int kSetupRepeats = 5;          // set-ups timed per run
constexpr int kOnlineEstimateConnections = 2;
constexpr size_t kFreshnessPasses = 8;    // reader-free feedback passes
constexpr double kWarmupS = 1.0;          // loop time before a window opens

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

bool InUnitInterval(double v) { return v >= 0.0 && v <= 1.0; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(sel::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void Expect(const sel::Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

// ---------------------------------------------------------------------
// Samples and tallies.

/// Steady-clock time in seconds. Every sample carries one, so run.py can
/// keep the samples that completed inside their window.
double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Median wall time of fn() over `reps` calls, in seconds.
template <typename Fn>
double MedianSeconds(int reps, Fn fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    fn();
    t.push_back(Now() - t0);
  }
  std::nth_element(t.begin(), t.begin() + t.size() / 2, t.end());
  return t[t.size() / 2];
}

/// Timed operations of one kind: a value per operation and the time it
/// completed.
struct Series {
  std::vector<double> value;
  std::vector<double> done;

  void Add(double v, double t) {
    value.push_back(v);
    done.push_back(t);
  }
  void Append(const Series& o) {
    value.insert(value.end(), o.value.begin(), o.value.end());
    done.insert(done.end(), o.done.begin(), o.done.end());
  }
};

/// One measured span of a workload: reads (latency in us), feedback
/// round trips (us) and retrains (ms), with the number of reading callers
/// that ran beside them. Only samples completed inside [begin, end) count;
/// the loops run a warm-up before `begin`.
struct Window {
  double begin = 0.0;
  double end = 0.0;
  double queries_per_op = 1.0;
  int readers = 0;
  Series reads;
  Series feedback;
  Series retrain;
};

/// Operations attempted and how they failed. A refused frame
/// (RESOURCE_EXHAUSTED / DEADLINE_EXCEEDED) and a wrong answer both
/// count as failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  uint64_t mismatches = 0;

  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    refused += o.refused;
    mismatches += o.mismatches;
  }
  void CountError(const sel::Status& st) {
    ++failed;
    if (st.code() == sel::StatusCode::kFailedPrecondition) ++refused;
  }
  void CountMismatch() {
    ++failed;
    ++mismatches;
  }
};

/// Host CPU tick counters from /proc/stat: (steal, total).
std::pair<uint64_t, uint64_t> ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t total = 0, steal = 0, v = 0;
  if (!(in >> cpu) || cpu != "cpu") return {0, 0};
  for (int field = 0; field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Host CPU steal over the measured part of a run: the share of all CPU
/// ticks between construction and Percent() that the host took from this
/// guest. Reported as run context, so a noisy-neighbour run can be told
/// apart; no sample is dropped on account of it.
class StealMeter {
 public:
  StealMeter() : start_(ReadCpuTicks()) {}

  double Percent() const {
    const auto now = ReadCpuTicks();
    const uint64_t total = now.second - start_.second;
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(now.first - start_.first) /
                            static_cast<double>(total);
  }

 private:
  std::pair<uint64_t, uint64_t> start_;
};

// ---------------------------------------------------------------------
// Set-up: dataset, ground truth, initial training.

struct Fixture {
  sel::Dataset data;
  std::unique_ptr<sel::CountingKdTree> index;
  double q_floor = 0.0;
};

Fixture MakeFixture() {
  Fixture fx;
  fx.data = sel::MakePowerLike(kRows, kFixedSeed).Project({0, 1});
  fx.index = std::make_unique<sel::CountingKdTree>(fx.data.rows());
  fx.q_floor = 1.0 / static_cast<double>(fx.data.num_rows());
  return fx;
}

Workload Generate(const Fixture& fx, sel::QueryType type, uint64_t seed,
                  size_t n) {
  sel::WorkloadOptions opts;
  opts.query_type = type;
  opts.seed = seed;
  sel::WorkloadGenerator gen(&fx.data, fx.index.get(), opts);
  return gen.Generate(n);
}

/// The online estimator every workload's feedback path runs: QuadHist,
/// window 64, retrain interval 16, warmed on the first 64 records of the
/// fixed sequence (four retrains).
std::unique_ptr<OnlineEstimator> WarmOnlineEstimator(const Workload& warmup) {
  sel::OnlineOptions opts;
  opts.window_capacity = kWindow;
  opts.retrain_interval = kInterval;
  opts.estimator = "quadhist";
  auto est = Unwrap(OnlineEstimator::Create(2, opts), "online estimator");
  for (const auto& z : warmup) {
    Expect(est->Feedback(z.query, z.selectivity), "warm-up feedback");
  }
  if (est->serving_plan() == nullptr) Die("warm-up published no plan");
  return est;
}

struct Inputs {
  Fixture fx;
  Workload probe;            ///< fixed labeled probe set (q-error)
  std::vector<Query> pool;   ///< the seed's load stream
  std::vector<double> expected;  ///< in-process answers for `pool`
  Workload warmup;           ///< fixed feedback sequence: warm-up part
  Workload records;          ///< fixed feedback sequence: timed part
  std::unique_ptr<OnlineEstimator> online;  ///< warmed feedback target
  std::unique_ptr<OnlineEstimator> boxes;   ///< wire_box server model
  std::shared_ptr<const CompiledPlan> plan;  ///< plan the reads hit
};

std::vector<Query> Queries(const Workload& w) { return sel::QueriesOf(w); }

/// Builds everything a workload needs before its clock starts.
Inputs Setup(const std::string& workload, uint64_t seed) {
  Inputs in;
  in.fx = MakeFixture();
  Workload sequence = Generate(in.fx, sel::QueryType::kBox, kFixedSeed + 3,
                               kWarmup + kPassRecords);
  in.warmup.assign(sequence.begin(), sequence.begin() + kWarmup);
  in.records.assign(sequence.begin() + kWarmup, sequence.end());
  in.online = WarmOnlineEstimator(in.warmup);

  const sel::QueryType type = workload == "embedded_halfspace"
                                  ? sel::QueryType::kHalfspace
                                  : sel::QueryType::kBox;
  in.probe = Generate(in.fx, type, kFixedSeed + 2, kProbe);
  in.pool = Queries(Generate(in.fx, type, seed, kPool));
  if (workload == "wire_box") {
    sel::OnlineOptions opts;
    opts.retrain_interval = 0;
    opts.estimator = "quadhist";
    in.boxes = Unwrap(OnlineEstimator::Create(2, opts), "box estimator");
    for (const auto& z :
         Generate(in.fx, sel::QueryType::kBox, kFixedSeed + 1, kBoxTrain)) {
      Expect(in.boxes->Feedback(z.query, z.selectivity), "box feedback");
    }
    Expect(in.boxes->Retrain(), "box training");
    in.plan = in.boxes->serving_plan();
  } else if (workload == "embedded_halfspace") {
    const Workload train = Generate(in.fx, sel::QueryType::kHalfspace,
                                    kFixedSeed + 1, kHalfspaceTrain);
    auto model = Unwrap(
        sel::EstimatorRegistry::Build(kHalfspaceSpec, 2, train.size()),
        "halfspace model");
    Expect(model->Train(train), "halfspace training");
    in.plan = std::make_shared<const CompiledPlan>(
        Unwrap(model->Compile(), "halfspace compile"));
  } else {
    in.plan = in.online->serving_plan();
  }
  if (in.plan == nullptr) Die("set-up produced no plan");
  in.expected = in.plan->EstimateMany(in.pool);
  return in;
}

std::vector<double> QErrors(const CompiledPlan& plan, const Workload& probe,
                            double floor) {
  const std::vector<double> est = plan.EstimateMany(Queries(probe));
  std::vector<double> q(est.size());
  for (size_t i = 0; i < est.size(); ++i) {
    q[i] = sel::QError(est[i], probe[i].selectivity, floor);
  }
  return q;
}

// ---------------------------------------------------------------------
// Closed loops.

/// Starts `n` threads running fn(thread_index, start_time) once all of
/// them are ready, and joins them.
template <typename Fn>
void RunThreads(int n, Fn fn) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  double start = 0.0;
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(t, start);
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  start = Now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
}

std::unique_ptr<EstimatorClient> Connect(const EstimatorServer& server) {
  return Unwrap(EstimatorClient::Connect("127.0.0.1", server.port()),
                "connect");
}

/// wire_box: `connections` callers, one single-query Estimate frame at a
/// time each, checked bit-for-bit against `expected`.
Window WireLoop(OnlineEstimator* est, const Inputs& in, int connections,
                double seconds, Tally* tally) {
  auto server = Unwrap(EstimatorServer::Start(est, EstimatorServer::Options{}),
                       "server start");
  std::vector<std::unique_ptr<EstimatorClient>> clients;
  for (int c = 0; c < connections; ++c) clients.push_back(Connect(*server));
  std::vector<Series> logs(connections);
  std::vector<Tally> tallies(connections);
  Window out;
  out.readers = connections;
  RunThreads(connections, [&](int c, double start) {
    if (c == 0) {
      out.begin = start + kWarmupS;
      out.end = out.begin + seconds;
    }
    const double end = start + kWarmupS + seconds;
    Tally& t = tallies[c];
    size_t i = static_cast<size_t>(c) * (kPool / connections);
    for (double now = start; now < end; ++i) {
      const size_t idx = i % kPool;
      const double t0 = Now();
      auto r = clients[c]->Estimate(in.pool[idx]);
      now = Now();
      ++t.attempted;
      if (!r.ok()) {
        t.CountError(r.status());
      } else if (Bits(r.value()) != Bits(in.expected[idx]) ||
                 !InUnitInterval(r.value())) {
        t.CountMismatch();
      } else {
        logs[c].Add((now - t0) * 1e6, now);
      }
    }
  });
  server->Shutdown();
  for (int c = 0; c < connections; ++c) {
    out.reads.Append(logs[c]);
    tally->Add(tallies[c]);
  }
  return out;
}

/// embedded_halfspace: one caller, 64-query EstimateMany batches.
Window EmbeddedLoop(const Inputs& in, double seconds, Tally* tally) {
  Window out;
  out.queries_per_op = kBatch;
  out.readers = 1;
  out.begin = Now() + kWarmupS;
  out.end = out.begin + seconds;
  std::vector<double> got(kBatch);
  size_t batch = 0;
  for (double now = Now(); now < out.end; ++batch) {
    const size_t off = (batch % (kPool / kBatch)) * kBatch;
    const double t0 = Now();
    in.plan->EstimateMany(&in.pool[off], kBatch, got.data());
    now = Now();
    ++tally->attempted;
    bool ok = true;
    for (size_t i = 0; i < kBatch; ++i) {
      ok = ok && Bits(got[i]) == Bits(in.expected[off + i]) &&
           InUnitInterval(got[i]);
    }
    if (ok) {
      out.reads.Add((now - t0) * 1e6, now);
    } else {
      tally->CountMismatch();
    }
  }
  return out;
}

/// One wire estimate whose answer is checked after the loop against the
/// plans published before and after it was sent.
struct OnlineRead {
  uint32_t idx;
  uint32_t plan_before;
  uint32_t plan_after;
  double value;
};

struct PassResult {
  Window window;
  std::vector<double> qerror;
  uint64_t retrains = 0;
  uint64_t published = 0;
};

size_t RetrainCounter(const OnlineEstimator& est) {
  return est.retrain_count() + est.failed_retrain_count();
}

/// One fixed-length feedback pass over the wire into `est`, with
/// `estimate_connections` callers (possibly none) reading from the same
/// server until the pass ends. Readers run kWarmupS before the feedback
/// caller starts, and the window is the feedback caller's run. A retrain
/// sample is the time from sending the frame that completes a retrain
/// interval until the estimator's retrain counters advance.
PassResult FeedbackPass(OnlineEstimator* est, const Inputs& in,
                        int estimate_connections, Tally* tally) {
  auto server = Unwrap(EstimatorServer::Start(est, EstimatorServer::Options{}),
                       "server start");
  const int threads = 1 + estimate_connections;
  std::vector<std::unique_ptr<EstimatorClient>> clients;
  for (int c = 0; c < threads; ++c) clients.push_back(Connect(*server));
  PassResult out;
  out.window.readers = estimate_connections;
  const size_t retrains_before = RetrainCounter(*est);
  const size_t published_before = est->publish_accepted_count();
  std::atomic<bool> feeding{true};
  std::vector<Series> logs(threads);
  std::vector<Tally> tallies(threads);
  std::vector<std::vector<OnlineRead>> reads(threads);
  std::vector<std::vector<std::shared_ptr<const CompiledPlan>>> plans(threads);

  RunThreads(threads, [&](int c, double start) {
    Tally& t = tallies[c];
    if (c == 0) {
      // The feedback caller. current_retrain_interval() is read only
      // between round trips, after the server has answered.
      if (estimate_connections > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(start + kWarmupS - Now()));
      }
      out.window.begin = Now();
      size_t seen = RetrainCounter(*est);
      size_t interval = est->current_retrain_interval();
      size_t since = 0;
      for (const auto& z : in.records) {
        const bool completes = ++since >= interval;
        const double t0 = Now();
        const sel::Status st = clients[c]->Feedback(z.query, z.selectivity);
        const double t1 = Now();
        ++t.attempted;
        if (st.ok()) {
          out.window.feedback.Add((t1 - t0) * 1e6, t1);
        } else {
          t.CountError(st);
        }
        if (!completes && RetrainCounter(*est) == seen) continue;
        const double give_up = t1 + 30.0;
        while (RetrainCounter(*est) == seen && Now() < give_up) {
          std::this_thread::yield();
        }
        const double advanced = Now();
        if (RetrainCounter(*est) == seen) {
          t.CountMismatch();  // the retrain never happened
        } else {
          out.window.retrain.Add((advanced - t0) * 1e3, advanced);
        }
        seen = RetrainCounter(*est);
        interval = est->current_retrain_interval();
        since = 0;
      }
      out.window.end = Now();
      feeding.store(false, std::memory_order_release);
      return;
    }
    auto& mine = plans[c];
    auto plan_id = [&mine](std::shared_ptr<const CompiledPlan> p) {
      if (mine.empty() || mine.back() != p) mine.push_back(std::move(p));
      return static_cast<uint32_t>(mine.size() - 1);
    };
    size_t i = static_cast<size_t>(c) * (kPool / threads);
    while (feeding.load(std::memory_order_acquire)) {
      const size_t idx = i++ % kPool;
      const uint32_t before = plan_id(est->serving_plan());
      const double t0 = Now();
      auto r = clients[c]->Estimate(in.pool[idx]);
      const double t1 = Now();
      const uint32_t after = plan_id(est->serving_plan());
      ++t.attempted;
      if (!r.ok()) {
        t.CountError(r.status());
        continue;
      }
      reads[c].push_back({static_cast<uint32_t>(idx), before, after,
                          r.value()});
      logs[c].Add((t1 - t0) * 1e6, t1);
    }
  });
  server->Shutdown();

  // Each answer must equal the in-process answer of a plan that was
  // published while its round trip was in flight.
  for (int c = 1; c < threads; ++c) {
    for (const OnlineRead& r : reads[c]) {
      bool ok = false;
      for (uint32_t p : {r.plan_before, r.plan_after}) {
        double want = 0.0;
        plans[c][p]->EstimateMany(&in.pool[r.idx], 1, &want);
        ok = ok || Bits(want) == Bits(r.value);
      }
      if (!ok || !InUnitInterval(r.value)) tallies[c].CountMismatch();
    }
  }
  for (int c = 0; c < threads; ++c) {
    out.window.reads.Append(logs[c]);
    tally->Add(tallies[c]);
  }
  out.retrains = RetrainCounter(*est) - retrains_before;
  out.published = est->publish_accepted_count() - published_before;
  out.qerror = QErrors(*est->serving_plan(), in.probe, in.fx.q_floor);
  return out;
}

// ---------------------------------------------------------------------
// JSON output.

class Json {
 public:
  Json& Key(const std::string& k) {
    Sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    if (!std::isfinite(v)) Die("non-finite sample");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
    return *this;
  }
  Json& Str(const std::string& s) {
    Sep();
    out_ << '"' << s << '"';
    return *this;
  }
  Json& Raw(const std::string& s) {
    Sep();
    out_ << s;
    return *this;
  }
  Json& Nums(const std::vector<double>& v) {
    Open('[');
    for (double x : v) Num(x);
    return Close(']');
  }
  Json& Open(char c) {
    Sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  std::string str() const { return out_.str(); }

 private:
  void Sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

void EmitSeries(Json* j, const char* key, const Series& s) {
  j->Key(key).Open('{');
  j->Key("value").Nums(s.value);
  j->Key("done").Nums(s.done);
  j->Close('}');
}

void EmitWindow(Json* j, const Window& w) {
  j->Open('{');
  j->Key("begin").Num(w.begin).Key("end").Num(w.end);
  j->Key("queries_per_op").Num(w.queries_per_op);
  j->Key("readers").Num(w.readers);
  EmitSeries(j, "reads", w.reads);
  EmitSeries(j, "feedback", w.feedback);
  EmitSeries(j, "retrain", w.retrain);
  j->Close('}');
}

void EmitTally(Json* j, const Tally& t) {
  j->Key("attempted").Num(static_cast<double>(t.attempted));
  j->Key("failed").Num(static_cast<double>(t.failed));
  j->Key("refused").Num(static_cast<double>(t.refused));
  j->Key("mismatches").Num(static_cast<double>(t.mismatches));
}

/// Host reference figures, measured with the benchmark's own code and no
/// library call, so that a run on a host in a different state can be told
/// apart from a change in the library: the median round trip of a one-byte
/// pipe ping-pong between two threads (every closed-loop call pays two such
/// wake-ups), and the time per step of a fixed dependent integer loop.
struct HostReference {
  double wake_us = 0.0;
  double spin_ns = 0.0;
};

HostReference MeasureHost() {
  constexpr int kRounds = 2000;
  constexpr int kSteps = 1 << 22;
  int ab[2], ba[2];
  if (pipe(ab) != 0 || pipe(ba) != 0) Die("pipe");
  std::thread echo([&] {
    char c = 0;
    for (int i = 0; i < kRounds; ++i) {
      if (read(ab[0], &c, 1) != 1 || write(ba[1], &c, 1) != 1) return;
    }
  });
  std::vector<double> rtt;
  char c = 'x';
  for (int i = 0; i < kRounds; ++i) {
    const double t0 = Now();
    if (write(ab[1], &c, 1) != 1 || read(ba[0], &c, 1) != 1) Die("ping-pong");
    rtt.push_back(Now() - t0);
  }
  echo.join();
  for (int fd : {ab[0], ab[1], ba[0], ba[1]}) close(fd);
  std::nth_element(rtt.begin(), rtt.begin() + kRounds / 2, rtt.end());
  uint64_t x = 88172645463325252ull;
  const double spin = MedianSeconds(5, [&x] {
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
  });
  if (x == 0) Die("xorshift reached zero");  // never: keeps the loop live
  return {rtt[kRounds / 2] * 1e6, spin * 1e9 / kSteps};
}

int Connections() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

void EmitContext(Json* j, const StealMeter& steal) {
  j->Key("context").Open('{');
  j->Key("nproc").Num(std::thread::hardware_concurrency());
  j->Key("pool_threads").Num(sel::DefaultPool()->size());
  j->Key("simd").Str(sel::SimdLevelName(sel::ActiveSimdLevel()));
  j->Key("connections").Num(Connections());
  j->Key("steal_pct").Num(steal.Percent());
  const HostReference host = MeasureHost();
  j->Key("host_wake_us").Num(host.wake_us);
  j->Key("host_spin_ns").Num(host.spin_ns);
  j->Close('}');
}

// ---------------------------------------------------------------------
// Workload runs.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string trace_file;
};

/// Runs the fixed feedback pass until at least `min_passes` passes and
/// `seconds` of passes are done, each after the first on a freshly
/// warmed estimator.
void FeedbackPasses(Inputs& in, int estimate_connections, double seconds,
                    size_t min_passes, Tally* tally,
                    std::vector<PassResult>* passes) {
  double measured = 0.0;
  for (size_t n = 0; n < min_passes || measured < seconds; ++n) {
    std::unique_ptr<OnlineEstimator> est =
        in.online != nullptr ? std::move(in.online)
                             : WarmOnlineEstimator(in.warmup);
    passes->push_back(FeedbackPass(est.get(), in, estimate_connections,
                                   tally));
    const Window& w = passes->back().window;
    measured += w.end - w.begin;
  }
}

/// Every pass replays the same fixed sequence, so every pass must end on
/// the same model: identical q-errors, bit for bit.
bool PassesAgree(const std::vector<PassResult>& passes) {
  for (const auto& p : passes) {
    if (p.qerror.size() != passes[0].qerror.size()) return false;
    for (size_t i = 0; i < p.qerror.size(); ++i) {
      if (Bits(p.qerror[i]) != Bits(passes[0].qerror[i])) return false;
    }
  }
  return true;
}

/// The read loop of wire_box or embedded_halfspace.
Window ReadLoop(const std::string& workload, const Inputs& in,
                double seconds, Tally* tally) {
  return workload == "wire_box"
             ? WireLoop(in.boxes.get(), in, Connections(), seconds, tally)
             : EmbeddedLoop(in, seconds, tally);
}

/// The untraced run: set-up timed kSetupRepeats times, then the
/// workload, then kFreshnessPasses feedback passes with no reading
/// connection, which give every workload its feedback and retrain
/// figures. The workload is the read loop of wire_box or
/// embedded_halfspace, or, for online_feedback, feedback passes with two
/// reading connections until `seconds` of passes are measured; those
/// passes give the reads.
std::string RunEndToEnd(const Args& args) {
  std::vector<double> setup_s;
  Inputs in;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = Now();
    in = Setup(args.workload, args.seed);
    setup_s.push_back(Now() - t0);
  }
  const StealMeter steal;
  Tally tally;
  std::vector<Window> windows;
  std::vector<PassResult> passes;
  std::vector<double> qerror;
  if (args.workload == "online_feedback") {
    FeedbackPasses(in, kOnlineEstimateConnections, args.seconds, 1, &tally,
                   &passes);
    qerror = passes[0].qerror;
  } else {
    windows.push_back(ReadLoop(args.workload, in, args.seconds, &tally));
    qerror = QErrors(*in.plan, in.probe, in.fx.q_floor);
  }
  FeedbackPasses(in, 0, 0.0, kFreshnessPasses, &tally, &passes);
  for (const auto& p : passes) windows.push_back(p.window);

  Json j;
  j.Open('{');
  EmitContext(&j, steal);
  j.Key("deterministic").Raw(PassesAgree(passes) ? "true" : "false");
  j.Key("setup_s").Nums(setup_s);
  EmitTally(&j, tally);
  j.Key("windows").Open('[');
  for (const Window& w : windows) EmitWindow(&j, w);
  j.Close(']');
  j.Key("qerror").Nums(qerror);
  j.Close('}');
  return j.str();
}

// --- Traced run ------------------------------------------------------

/// Layer probes, run with tracing off: each times one layer's public
/// entry point in isolation on the workload's own inputs.
void EmitProbes(Json* j, const Inputs& wire, const Inputs& embedded,
                const Inputs& online) {
  j->Key("probes").Open('{');

  // server/proto: encode and decode the wire_box Estimate frames.
  std::vector<std::string> frames;
  for (const Query& q : wire.pool) {
    sel::Frame f;
    f.type = sel::FrameType::kEstimate;
    Expect(sel::EncodeQuery(q, &f.payload), "encode query");
    frames.push_back(sel::EncodeFrame(f));
  }
  size_t sink = 0;
  const double enc = MedianSeconds(9, [&] {
    for (const Query& q : wire.pool) {
      sel::Frame f;
      f.type = sel::FrameType::kEstimate;
      (void)sel::EncodeQuery(q, &f.payload);
      sink += sel::EncodeFrame(f).size();
    }
  });
  const double dec = MedianSeconds(9, [&] {
    for (const std::string& s : frames) {
      sel::Frame f;
      uint32_t len = 0;
      Expect(sel::DecodeFrameHeader(
                 reinterpret_cast<const uint8_t*>(s.data()), &f, &len),
             "decode header");
      sel::WireReader reader(s.data() + sel::kFrameHeaderBytes, len);
      sink += Unwrap(sel::DecodeQuery(&reader), "decode query").dim();
    }
  });
  j->Key("proto_encode_ns").Num(enc * 1e9 / frames.size());
  j->Key("proto_decode_ns").Num(dec * 1e9 / frames.size());

  // serve + pool: the embedded_halfspace plan.
  const CompiledPlan& plan = *embedded.plan;
  j->Key("plan_entries").Num(static_cast<double>(plan.size()));
  sel::PlanEvalStats stats;
  (void)plan.EstimateMany(embedded.pool, &stats);
  j->Key("entries_visited_per_query")
      .Num(static_cast<double>(stats.entries_visited) / embedded.pool.size());
  j->Key("prune_ratio").Num(stats.PruneRatio());
  std::vector<double> many_us, one_us, out(kBatch);
  double sum = 0.0;
  for (size_t off = 0; off + kBatch <= kPool; off += kBatch) {
    const Query* batch = &embedded.pool[off];
    many_us.push_back(1e6 * MedianSeconds(5, [&] {
      plan.EstimateMany(batch, kBatch, out.data());
    }));
    one_us.push_back(1e6 / kBatch * MedianSeconds(5, [&] {
      for (size_t i = 0; i < kBatch; ++i) sum += plan.EstimateOne(batch[i]);
    }));
  }
  j->Key("many_us").Nums(many_us);
  j->Key("one_us").Nums(one_us);
  // The wire_box plan: box queries take the SIMD leaf kernels.
  std::vector<double> box_one_us;
  for (size_t off = 0; off + kBatch <= kPool; off += kBatch) {
    const Query* batch = &wire.pool[off];
    box_one_us.push_back(1e6 / kBatch * MedianSeconds(5, [&] {
      for (size_t i = 0; i < kBatch; ++i) {
        sum += wire.plan->EstimateOne(batch[i]);
      }
    }));
  }
  j->Key("box_one_us").Nums(box_one_us);

  // Selectivity axis: per-query EstimateOne cost and pruning against true
  // selectivity, over a fixed halfspace set large enough to put at least
  // kBandQueries queries in each band run.py reports.
  j->Key("bands").Open('[');
  std::vector<size_t> per_band(4, 0);
  for (const auto& z : Generate(embedded.fx, sel::QueryType::kHalfspace,
                                kFixedSeed + 4, kBandCandidates)) {
    const double truth = z.selectivity;
    const size_t band = truth < 0.01   ? 0
                        : truth < 0.10 ? 1
                        : truth < 0.50 ? 2
                                       : 3;
    if (per_band[band]++ >= kBandQueries) continue;
    sel::PlanEvalStats s;
    sum += plan.EstimateOne(z.query, &s);
    const double us = 1e6 / 32 * MedianSeconds(3, [&] {
      for (int r = 0; r < 32; ++r) sum += plan.EstimateOne(z.query);
    });
    j->Open('[').Num(z.selectivity).Num(us).Num(s.PruneRatio()).Close(']');
  }
  j->Close(']');

  // geometry: exact vol(box ∩ halfspace) over plan boxes × probe queries.
  std::vector<sel::Box> boxes;
  const int d = plan.dim();
  for (size_t e = 0; e < plan.num_box_entries(); ++e) {
    sel::Point lo(d), hi(d);
    for (int c = 0; c < d; ++c) {
      lo[c] = plan.box_lo()[e * d + c];
      hi[c] = plan.box_hi()[e * d + c];
    }
    boxes.emplace_back(lo, hi);
  }
  const double geo = MedianSeconds(5, [&] {
    for (const auto& z : embedded.probe) {
      for (const sel::Box& b : boxes) {
        sum += sel::QueryBoxIntersectionVolume(z.query, b,
                                               plan.volume_options());
      }
    }
  });
  j->Key("box_halfspace_ns")
      .Num(geo * 1e9 /
           (embedded.probe.size() * std::max<size_t>(1, boxes.size())));

  // core: replay the last retrain of the online sequence (its window,
  // minus the gate's held-out quarter) to time compile and the gate.
  const Workload window(online.records.end() - kWindow, online.records.end());
  const size_t holdout = kWindow / 4;
  const Workload train(window.begin(), window.end() - holdout);
  const std::vector<Query> held = Queries(
      Workload(window.end() - holdout, window.end()));
  auto model = Unwrap(sel::EstimatorRegistry::Build("quadhist", 2,
                                                    train.size()),
                      "replay model");
  Expect(model->Train(train), "replay training");
  const double compile = MedianSeconds(9, [&] {
    sink += Unwrap(model->Compile(), "replay compile").size();
  });
  const CompiledPlan candidate = Unwrap(model->Compile(), "replay compile");
  const CompiledPlan& incumbent = *online.plan;
  const double gate = MedianSeconds(9, [&] {
    for (const Query& q : held) {
      sum += candidate.EstimateOne(q) + incumbent.EstimateOne(q);
    }
  });
  j->Key("compile_ms").Num(compile * 1e3);
  j->Key("gate_ms").Num(gate * 1e3);
  // Consumes the probes' results so the compiler keeps the timed calls.
  j->Key("sink").Num(static_cast<double>(sink % 2) + (sum > 0 ? 0.0 : 1.0));
  j->Close('}');
}

/// The traced run: the requested workload untraced, then all three
/// workloads with the SEL_TRACE spans and SEL_METRICS instruments armed
/// (metrics reset per segment), then the layer probes. A segment is the
/// workload's read loop for seconds/2, or one feedback pass with two
/// reading connections for online_feedback.
std::string RunTraced(const Args& args) {
  const double seg_s = std::max(1.0, args.seconds / 2);
  Inputs wire = Setup("wire_box", args.seed);
  Inputs embedded = Setup("embedded_halfspace", args.seed);
  Inputs online = Setup("online_feedback", args.seed);
  std::unique_ptr<OnlineEstimator> traced_online =
      WarmOnlineEstimator(online.warmup);
  std::vector<PassResult> passes;
  auto segment = [&](const std::string& w, OnlineEstimator* est,
                     Tally* tally, PassResult* pass) {
    if (w == "online_feedback") {
      *pass = FeedbackPass(est, online, kOnlineEstimateConnections, tally);
      passes.push_back(*pass);
      return pass->window;
    }
    return ReadLoop(w, w == "wire_box" ? wire : embedded, seg_s, tally);
  };

  const StealMeter steal;
  Json j;
  j.Open('{');
  Tally all;
  PassResult pass;
  j.Key("untraced");
  EmitWindow(&j, segment(args.workload, online.online.get(), &all, &pass));

  sel::SetMetricsEnabled(true);
  sel::TraceRecorder::Global().Start(args.trace_file);
  j.Key("segments").Open('{');
  for (const std::string w :
       {"wire_box", "embedded_halfspace", "online_feedback"}) {
    sel::MetricsRegistry::Global().Reset();
    Tally tally;
    const double t0 = sel::TraceRecorder::NowUs();
    const Window window = segment(w, traced_online.get(), &tally, &pass);
    const double t1 = sel::TraceRecorder::NowUs();
    j.Key(w).Open('{');
    j.Key("t0_us").Num(t0).Key("t1_us").Num(t1);
    EmitTally(&j, tally);
    j.Key("window");
    EmitWindow(&j, window);
    j.Key("retrains").Num(static_cast<double>(pass.retrains));
    j.Key("published").Num(static_cast<double>(pass.published));
    j.Key("metrics").Raw(sel::MetricsRegistry::Global().Snapshot().ToJson());
    j.Close('}');
    all.Add(tally);
  }
  j.Close('}');
  Expect(sel::TraceRecorder::Global().Stop(), "trace flush");
  sel::SetMetricsEnabled(false);

  EmitProbes(&j, wire, embedded, online);
  EmitContext(&j, steal);
  j.Key("deterministic").Raw(PassesAgree(passes) ? "true" : "false");
  EmitTally(&j, all);
  j.Key("trace_file").Str(args.trace_file);
  j.Close('}');
  return j.str();
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--trace-file") a.trace_file = v;
    else Die("unknown argument " + k);
  }
  if (a.workload != "wire_box" && a.workload != "embedded_halfspace" &&
      a.workload != "online_feedback") {
    Die("--workload must be wire_box, embedded_halfspace or online_feedback");
  }
  if (a.out.empty() || (a.trace && a.trace_file.empty())) {
    Die("--out (and --trace-file with --trace 1) are required");
  }
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::string json = args.trace ? RunTraced(args) : RunEndToEnd(args);
  std::ofstream out(args.out);
  out << json << '\n';
  out.flush();
  if (!out.good()) Die("cannot write " + args.out);
  return 0;
}
