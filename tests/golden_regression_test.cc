// Golden regression harness: trains every registered estimator on a
// fixed-seed synthetic workload and pins its accuracy inside a
// checked-in tolerance band. The bands are deliberately loose (about 2x
// the observed errors at the time they were recorded) so they catch
// real regressions — a solver change that silently degrades accuracy, a
// workload generator drift — without flaking on minor numeric noise.
//
// The same run doubles as an end-to-end check of the metrics registry:
// on the happy path no solve may fall back to the uniform prior and no
// online retrain may fail, and the observability counters must agree
// with what the harness itself did.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "common/env.h"
#include "common/metrics.h"
#include "core/estimator_registry.h"
#include "core/online.h"
#include "data/generators.h"
#include "index/kdtree.h"
#include "eval_metrics/metrics.h"
#include "workload/workload.h"

namespace sel {
namespace {

struct ToleranceBand {
  double max_rms;  // RMS selectivity error ceiling
  double max_q95;  // 95th-percentile Q-error ceiling
};

// Checked-in accuracy bands per registry name, on the fixed workload
// below (power-like data, 120 train / 60 test, seeds pinned). Update a
// band only when an intentional modeling change shifts the numbers; the
// git history of this table then documents every accuracy shift.
const std::map<std::string, ToleranceBand>& GoldenBands() {
  // Bands recorded from the run of 2026-08-08 with roughly 2x headroom:
  //   gmm      rms=0.130 q95=46.6
  //   isomer   rms=0.045 q95=23.7
  //   ptshist  rms=0.069 q95=57.3
  //   quadhist rms=0.122 q95=46.6
  //   quicksel rms=0.052 q95=10.0
  static const auto* bands = new std::map<std::string, ToleranceBand>{
      {"gmm", {0.26, 95.0}},      {"isomer", {0.10, 50.0}},
      {"ptshist", {0.15, 115.0}}, {"quadhist", {0.25, 95.0}},
      {"quicksel", {0.11, 25.0}},
  };
  return *bands;
}

// The @deadline ctest lane reruns this suite with SEL_SOLVE_DEADLINE_MS=1:
// solves degrade to their fallback stages by design, so the accuracy
// bands and the happy-path counter invariants do not apply there. What
// the lane DOES pin is that degradation stays graceful — no aborts, and
// every non-converged solve engaged a fallback stage.
bool DeadlineLaneActive() {
  return GetEnvInt("SEL_SOLVE_DEADLINE_MS", 0) > 0 ||
         GetEnvInt("SEL_TRAIN_DEADLINE_MS", 0) > 0;
}

struct GoldenFixture {
  Dataset data;
  std::unique_ptr<CountingKdTree> index;
  Workload train;
  Workload test;
};

// 120 training queries keeps every estimator feasible (ISOMER's cutoff
// is 200, §4.1) while staying fast enough for the sanitizer lanes.
GoldenFixture MakeGoldenFixture() {
  GoldenFixture f;
  f.data = MakePowerLike(4000, 7001);
  f.index = std::make_unique<CountingKdTree>(f.data.rows());
  WorkloadOptions wopts;
  wopts.seed = 4242;
  WorkloadGenerator gen(&f.data, f.index.get(), wopts);
  f.train = gen.Generate(120);
  WorkloadOptions topts = wopts;
  topts.seed = 9999;
  WorkloadGenerator test_gen(&f.data, f.index.get(), topts);
  f.test = test_gen.Generate(60);
  return f;
}

TEST(GoldenRegressionTest, EveryTrainableEstimatorStaysInsideItsBand) {
  SetMetricsEnabled(true);
  MetricsRegistry::Global().Reset();

  const GoldenFixture f = MakeGoldenFixture();
  const double q_floor = 1.0 / static_cast<double>(f.data.num_rows());
  size_t trained = 0;

  for (const std::string& name : EstimatorRegistry::Global().Names()) {
    // AVI builds from the dataset at construction, and the compiled-plan
    // wrapper is a uniform prior until loaded from disk and immutable by
    // design; neither has a workload-training mode to regress against.
    if (name == "avi" || name == "plan") {
      continue;
    }
    ASSERT_TRUE(GoldenBands().count(name) == 1)
        << "estimator '" << name
        << "' has no golden tolerance band; add one to GoldenBands()";
    const ToleranceBand& band = GoldenBands().at(name);

    auto spec = EstimatorSpec::Parse(name);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto model =
        EstimatorRegistry::Build(spec.value(), f.data.dim(), f.train.size());
    ASSERT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    ASSERT_TRUE(model.value()->Train(f.train).ok()) << name;
    ++trained;

    // The degradation-chain contract holds in every lane: a solve that
    // did not converge must have engaged a fallback stage — "primary
    // accepted without convergence" is never a legal cell.
    const TrainStats& ts = model.value()->train_stats();
    if (!ts.converged) {
      EXPECT_GT(ts.fallback_level, 0)
          << name << ": non-converged solve accepted at the primary stage"
          << " (trail: " << ts.solver_status << ")";
    }

    const ErrorReport r = EvaluateModel(*model.value(), f.test, q_floor);
    // Observed values land in the log so band updates can be grounded in
    // a real run instead of guesswork.
    std::printf("golden %-10s rms=%.5f q50=%.3f q95=%.3f qmax=%.3f\n",
                name.c_str(), r.rms, r.q50, r.q95, r.qmax);
    if (!DeadlineLaneActive()) {
      EXPECT_LE(r.rms, band.max_rms)
          << name << ": rms regressed (got " << r.rms << ", band "
          << band.max_rms << ")";
      EXPECT_LE(r.q95, band.max_q95)
          << name << ": q95 regressed (got " << r.q95 << ", band "
          << band.max_q95 << ")";
    }
    EXPECT_GE(r.q50, 1.0) << name << ": q-error below 1 is impossible";
  }
  EXPECT_GE(trained, 5u) << "registry shrank: golden coverage is gone";

  // Happy-path observability invariants: the fixed workload is benign,
  // so nothing may have degraded to the uniform-prior fallback, and the
  // registry must have seen every solve the loop above ran. Under an
  // armed deadline the fallbacks are the expected outcome, not a bug.
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  if (!DeadlineLaneActive()) {
    EXPECT_EQ(snap.CounterValue("solver.fallback.uniform"), 0u);
    EXPECT_EQ(snap.CounterValue("online.retrain_failures_total"), 0u);
  }
  EXPECT_GT(snap.CounterValue("solver.solves_total"), 0u);
  EXPECT_GT(snap.CounterValue("predict.queries_total"), 0u);
  const HistogramSnapshot* h = snap.FindHistogram("predict.query_us");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count, 0u);
}

TEST(GoldenRegressionTest, OnlineHappyPathRecordsNoFailures) {
  SetMetricsEnabled(true);
  MetricsRegistry::Global().Reset();

  const GoldenFixture f = MakeGoldenFixture();
  OnlineOptions opts;
  opts.retrain_interval = 40;
  opts.estimator = "quadhist";
  auto online = OnlineEstimator::Create(f.data.dim(), opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  for (const auto& z : f.train) {
    ASSERT_TRUE(online.value()->Feedback(z.query, z.selectivity).ok());
  }
  const size_t attempts = online.value()->retrain_count() +
                          online.value()->failed_retrain_count();
  EXPECT_GE(attempts, 2u);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  if (!DeadlineLaneActive()) {
    // Clean lane: every scheduled retrain published, nothing backed off.
    EXPECT_GE(online.value()->retrain_count(), 2u);
    EXPECT_EQ(snap.CounterValue("online.retrain_failures_total"), 0u);
    EXPECT_EQ(snap.GaugeValue("online.backoff_interval"),
              static_cast<int64_t>(opts.retrain_interval));
  } else {
    // Deadline lane: degraded candidates may be rejected by the gate,
    // but rejection is bookkept, never dropped on the floor.
    EXPECT_EQ(snap.CounterValue("online.retrain_failures_total"),
              online.value()->failed_retrain_count());
  }
  EXPECT_EQ(snap.CounterValue("online.retrains_total"),
            online.value()->retrain_count());
  const HistogramSnapshot* h = snap.FindHistogram("online.retrain_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, attempts);
}

}  // namespace
}  // namespace sel
