// Networked serving throughput (DESIGN.md §14): closed-loop clients
// drive the estimator server over loopback TCP, sweeping client count
// and micro-batch window, in two request shapes — "single" (one
// Estimate frame per query, the per-request path) and "batch" (64
// queries per EstimateBatch frame). Every config pushes the same total
// query count, so elapsed times compare directly and qps isolates the
// frame/syscall amortization. tools/check_bench.py reads the CSV and
// enforces the batched path's >= 2x floor in release CI.
//
// Methodology mirrors tools/check_bench.py: alternating rounds with a
// best-of statistic per cell, so one-sided warmup or a scheduler hiccup
// cannot fake (or hide) a win.
#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace sel;
using namespace sel::bench;

namespace {

constexpr size_t kFrameQueries = 64;  // queries per EstimateBatch frame

struct RunResult {
  double elapsed_ms = 0.0;
  size_t queries = 0;
  bool ok = false;
};

/// One closed-loop run: `clients` connections each push
/// `per_client_queries` through a fresh server, as single-query frames
/// or 64-query batch frames. Wall clock starts once every client is
/// connected, so connect cost never pollutes the throughput number.
RunResult RunConfig(OnlineEstimator* est, const std::vector<Query>& pool,
                    const std::string& mode, int clients, size_t window_us,
                    size_t per_client_queries) {
  EstimatorServer::Options opts;
  opts.port = 0;
  opts.batch_window_us = window_us;
  auto server = EstimatorServer::Start(est, opts);
  SEL_CHECK_MSG(server.ok(), "%s", server.status().ToString().c_str());

  std::atomic<int> connected{0};
  std::atomic<bool> go{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client =
          EstimatorClient::Connect("127.0.0.1", server.value()->port());
      if (!client.ok()) {
        failed.store(true);
        connected.fetch_add(1);
        return;
      }
      connected.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      size_t at = static_cast<size_t>(c) * 17;  // desync the pools
      if (mode == "batch") {
        std::vector<Query> frame;
        frame.reserve(kFrameQueries);
        for (size_t sent = 0; sent < per_client_queries;
             sent += kFrameQueries) {
          frame.clear();
          for (size_t i = 0; i < kFrameQueries; ++i) {
            frame.push_back(pool[at++ % pool.size()]);
          }
          if (!client.value()->EstimateBatch(frame).ok()) {
            failed.store(true);
            return;
          }
        }
      } else {
        for (size_t sent = 0; sent < per_client_queries; ++sent) {
          if (!client.value()->Estimate(pool[at++ % pool.size()]).ok()) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }

  while (connected.load() < clients) {
    std::this_thread::yield();
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  server.value()->Shutdown();

  RunResult out;
  out.elapsed_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.queries = static_cast<size_t>(clients) * per_client_queries;
  out.ok = !failed.load();
  return out;
}

}  // namespace

int main() {
  const PreparedData prep = Prepare("power", 2100000, {0, 1});
  WorkloadOptions wopts;
  wopts.seed = 6400;
  Banner("Networked serving throughput (DESIGN.md §14)", prep, wopts);

  OnlineOptions oopts;
  oopts.retrain_interval = 0;
  auto est = OnlineEstimator::Create(prep.data.dim(), oopts);
  SEL_CHECK_MSG(est.ok(), "%s", est.status().ToString().c_str());
  WorkloadGenerator gen(&prep.data, prep.index.get(), wopts);
  for (const auto& z : gen.Generate(ScaledCount(400, 150))) {
    SEL_CHECK(est.value()->Feedback(z.query, z.selectivity).ok());
  }
  SEL_CHECK(est.value()->Retrain().ok());
  SEL_CHECK(est.value()->trained());

  WorkloadOptions popts = wopts;
  popts.seed = wopts.seed + 1;
  WorkloadGenerator probe_gen(&prep.data, prep.index.get(), popts);
  std::vector<Query> pool;
  for (const auto& z : probe_gen.Generate(512)) pool.push_back(z.query);

  // Same total per-client query count in every cell, rounded to whole
  // batch frames so the two modes push identical work.
  const size_t per_client =
      ((ScaledCount(4096, 640) + kFrameQueries - 1) / kFrameQueries) *
      kFrameQueries;
  const int rounds = 2;

  TablePrinter t({"mode", "clients", "window_us", "queries", "elapsed_ms",
                  "qps"});
  CsvWriter csv("bench_server_throughput.csv");
  csv.WriteRow(std::vector<std::string>{"mode", "clients", "window_us",
                                        "queries", "elapsed_ms", "qps"});

  struct Cell {
    std::string mode;
    int clients;
    size_t window_us;
    double best_qps = 0.0;
    double best_ms = 0.0;
    size_t queries = 0;
  };
  std::vector<Cell> cells;
  for (int clients : {1, 4}) {
    for (size_t window : {size_t{0}, size_t{100}}) {
      cells.push_back({"single", clients, window});
      cells.push_back({"batch", clients, window});
    }
  }

  for (int r = 0; r < rounds; ++r) {
    for (Cell& cell : cells) {
      const RunResult run = RunConfig(est.value().get(), pool, cell.mode,
                                      cell.clients, cell.window_us,
                                      per_client);
      SEL_CHECK_MSG(run.ok, "client failure in %s clients=%d window=%zu",
                    cell.mode.c_str(), cell.clients, cell.window_us);
      const double qps = run.elapsed_ms > 0.0
                             ? 1e3 * static_cast<double>(run.queries) /
                                   run.elapsed_ms
                             : 0.0;
      if (qps > cell.best_qps) {
        cell.best_qps = qps;
        cell.best_ms = run.elapsed_ms;
      }
      cell.queries = run.queries;
    }
  }

  for (const Cell& cell : cells) {
    t.AddRow({cell.mode, std::to_string(cell.clients),
              std::to_string(cell.window_us), std::to_string(cell.queries),
              FormatDouble(cell.best_ms, 2), FormatDouble(cell.best_qps, 0)});
    csv.WriteRow(std::vector<std::string>{
        cell.mode, std::to_string(cell.clients),
        std::to_string(cell.window_us), std::to_string(cell.queries),
        FormatDouble(cell.best_ms), FormatDouble(cell.best_qps)});
  }
  csv.Close();
  t.Print();
  std::printf("\nExpected: the batch shape amortizes one frame round trip "
              "over %zu queries, so its qps should clear the single shape "
              "by well over the CI guard's 2x floor. A micro-batch window "
              "coalesces concurrent single frames into one EstimateMany "
              "dispatch without adding its full length to each request: "
              "the batch leaves as soon as every connected client has its "
              "request in it, so single-shape qps at window 100 should "
              "stay close to window 0 at every client count.\n",
              kFrameQueries);
  return 0;
}
