// Fault-injection and graceful-degradation tests: the FaultRegistry
// mechanics, the SolveBucketWeights fallback chain engaging level by
// level with one solver run per level, end-to-end Train() survival, the
// OnlineEstimator serving-path degradation, and the IO fault sites.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "common/fault.h"
#include "common/metrics.h"
#include "core/estimator_registry.h"
#include "core/model.h"
#include "core/model_io.h"
#include "core/online.h"
#include "data/csv_io.h"
#include "data/generators.h"
#include "index/kdtree.h"
#include "workload/workload.h"
#include "workload/workload_io.h"

namespace sel {
namespace {

/// Every test disarms on exit so injection state cannot leak across
/// tests (the registry is process-global).
struct FaultGuard {
  FaultGuard() { FaultRegistry::Global().DisarmAll(); }
  ~FaultGuard() { FaultRegistry::Global().DisarmAll(); }
};

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A tiny solvable Eq.-(8) instance: 3 queries x 2 buckets with the
/// exact simplex solution w = (0.3, 0.7).
struct TinyProblem {
  SparseMatrix a;
  Vector s;

  TinyProblem()
      : a(SparseMatrix::FromRows(
            2, {{{0, 1.0}}, {{1, 1.0}}, {{0, 0.5}, {1, 0.5}}})),
        s({0.3, 0.7, 0.5}) {}
};

// ---------------------------------------------------------------------
// FaultRegistry mechanics.
// ---------------------------------------------------------------------

TEST(FaultRegistryTest, UnarmedSitesAreInert) {
  FaultGuard guard;
  EXPECT_FALSE(FaultInjectionActive());
  EXPECT_FALSE(SEL_FAULT_POINT("test.nowhere"));
  // The macro short-circuits before the registry, so no hit is recorded.
  EXPECT_EQ(FaultRegistry::Global().HitCount("test.nowhere"), 0u);
}

TEST(FaultRegistryTest, FiresExactlyOnConfiguredHit) {
  FaultGuard guard;
  FaultRegistry::Global().Arm("test.site", 2);
  EXPECT_TRUE(FaultInjectionActive());
  EXPECT_FALSE(SEL_FAULT_POINT("test.site"));  // hit 1
  EXPECT_TRUE(SEL_FAULT_POINT("test.site"));   // hit 2 fires
  EXPECT_FALSE(SEL_FAULT_POINT("test.site"));  // hit 3
  EXPECT_EQ(FaultRegistry::Global().HitCount("test.site"), 3u);
  EXPECT_EQ(FaultRegistry::Global().FireCount("test.site"), 1u);
}

TEST(FaultRegistryTest, EveryHitTriggerFiresAlways) {
  FaultGuard guard;
  FaultRegistry::Global().Arm("test.always", FaultRegistry::kEveryHit);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(SEL_FAULT_POINT("test.always"));
  }
  EXPECT_EQ(FaultRegistry::Global().FireCount("test.always"), 5u);
}

TEST(FaultRegistryTest, TriggersAccumulatePerSite) {
  FaultGuard guard;
  FaultRegistry::Global().Arm("test.multi", 1);
  FaultRegistry::Global().Arm("test.multi", 3);
  EXPECT_TRUE(SEL_FAULT_POINT("test.multi"));   // hit 1
  EXPECT_FALSE(SEL_FAULT_POINT("test.multi"));  // hit 2
  EXPECT_TRUE(SEL_FAULT_POINT("test.multi"));   // hit 3
  EXPECT_EQ(FaultRegistry::Global().FireCount("test.multi"), 2u);
}

TEST(FaultRegistryTest, DisarmStopsFiringButKeepsCounters) {
  FaultGuard guard;
  FaultRegistry::Global().Arm("test.disarm", FaultRegistry::kEveryHit);
  EXPECT_TRUE(SEL_FAULT_POINT("test.disarm"));
  FaultRegistry::Global().Disarm("test.disarm");
  EXPECT_FALSE(FaultInjectionActive());
  EXPECT_FALSE(SEL_FAULT_POINT("test.disarm"));
  EXPECT_EQ(FaultRegistry::Global().HitCount("test.disarm"), 1u);
  EXPECT_EQ(FaultRegistry::Global().FireCount("test.disarm"), 1u);
}

TEST(FaultRegistryTest, ArmedSitesListsOnlyArmed) {
  FaultGuard guard;
  FaultRegistry::Global().Arm("test.a", 1);
  FaultRegistry::Global().Arm("test.b", FaultRegistry::kEveryHit);
  FaultRegistry::Global().Disarm("test.a");
  const auto armed = FaultRegistry::Global().ArmedSites();
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(armed[0], "test.b");
}

TEST(FaultRegistryTest, ArmFromSpecParsesEntries) {
  FaultGuard guard;
  ASSERT_TRUE(FaultRegistry::Global()
                  .ArmFromSpec("test.x@2, test.y@*, test.z")
                  .ok());
  EXPECT_EQ(FaultRegistry::Global().ArmedSites().size(), 3u);
  EXPECT_FALSE(SEL_FAULT_POINT("test.x"));  // fires on hit 2
  EXPECT_TRUE(SEL_FAULT_POINT("test.x"));
  EXPECT_TRUE(SEL_FAULT_POINT("test.y"));   // every hit
  EXPECT_TRUE(SEL_FAULT_POINT("test.z"));   // default: first hit
  EXPECT_FALSE(SEL_FAULT_POINT("test.z"));
}

TEST(FaultRegistryTest, ArmFromSpecRejectsMalformedEntries) {
  FaultGuard guard;
  for (const char* bad : {"@3", "site@", "site@0", "site@abc", "site@-1"}) {
    const Status st = FaultRegistry::Global().ArmFromSpec(bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_TRUE(FaultRegistry::Global().ArmFromSpec("").ok());
}

// ---------------------------------------------------------------------
// SolveBucketWeights fallback chain.
// ---------------------------------------------------------------------

TEST(FallbackChainTest, UnarmedPathMatchesDirectSolverBitForBit) {
  FaultGuard guard;
  TinyProblem p;
  SimplexLsqOptions opts;
  TrainStats stats;
  auto chained = SolveBucketWeights(p.a, p.s, TrainObjective::kL2, opts,
                                    LpOptions{}, &stats);
  auto direct = SolveSimplexLeastSquares(p.a, p.s, opts);
  ASSERT_TRUE(chained.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(chained.value().size(), direct.value().w.size());
  for (size_t j = 0; j < chained.value().size(); ++j) {
    EXPECT_EQ(chained.value()[j], direct.value().w[j]);
  }
  EXPECT_EQ(stats.fallback_level, 0);
  EXPECT_TRUE(stats.converged);
}

TEST(FallbackChainTest, MalformedInputsFailFastWithoutFallback) {
  FaultGuard guard;
  TinyProblem p;
  TrainStats stats;
  const Vector wrong_rhs{0.5};
  EXPECT_EQ(SolveBucketWeights(p.a, wrong_rhs, TrainObjective::kL2,
                               SimplexLsqOptions{}, LpOptions{}, &stats)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const SparseMatrix no_cols = SparseMatrix::FromRows(0, {{}, {}, {}});
  EXPECT_EQ(SolveBucketWeights(no_cols, p.s, TrainObjective::kL2,
                               SimplexLsqOptions{}, LpOptions{}, &stats)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(FallbackChainTest, L2IterationLimitDegradesWithoutRetry) {
  FaultGuard guard;
  // Fire on the first hit only: a second projected-gradient run would
  // go clean, but the chain does not make one.
  FaultRegistry::Global().Arm("qp.force_iteration_limit", 1);
  TinyProblem p;
  TrainStats stats;
  auto w = SolveBucketWeights(p.a, p.s, TrainObjective::kL2,
                              SimplexLsqOptions{}, LpOptions{}, &stats);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(stats.fallback_level,
            static_cast<int>(FallbackLevel::kNnlsPolish));
  EXPECT_EQ(FaultRegistry::Global().HitCount("qp.force_iteration_limit"),
            1u);
  EXPECT_EQ(stats.solver_status.rfind("l2pg:iteration_limit;nnls_polish:",
                                      0),
            0u);
  EXPECT_EQ(stats.solver_status.find("l2pg:"),
            stats.solver_status.rfind("l2pg:"));
}

TEST(FallbackChainTest, LinfIterationLimitDegradesWithoutRetry) {
  FaultGuard guard;
  FaultRegistry::Global().Arm("lp.force_iteration_limit", 1);
  TinyProblem p;
  TrainStats stats;
  auto w = SolveBucketWeights(p.a, p.s, TrainObjective::kLinf,
                              SimplexLsqOptions{}, LpOptions{}, &stats);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(stats.fallback_level,
            static_cast<int>(FallbackLevel::kL2Gradient));
  EXPECT_EQ(FaultRegistry::Global().HitCount("lp.force_iteration_limit"),
            1u);
  EXPECT_EQ(stats.solver_status.find("linf:"),
            stats.solver_status.rfind("linf:"));
}

TEST(FallbackChainTest, LinfChainDegradesLevelByLevel) {
  TinyProblem p;
  const SimplexLsqOptions qp;
  const LpOptions lp;

  {  // No faults: the LP solves at level 0.
    FaultGuard guard;
    TrainStats stats;
    auto w = SolveBucketWeights(p.a, p.s, TrainObjective::kLinf, qp, lp,
                                &stats);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(stats.fallback_level,
              static_cast<int>(FallbackLevel::kPrimary));
    EXPECT_TRUE(stats.converged);
    EXPECT_NE(stats.solver_status.find("linf:optimal"), std::string::npos);
  }
  {  // LP infeasible -> level 1 (L2 projected gradient).
    FaultGuard guard;
    FaultRegistry::Global().Arm("lp.force_infeasible",
                                FaultRegistry::kEveryHit);
    TrainStats stats;
    auto w = SolveBucketWeights(p.a, p.s, TrainObjective::kLinf, qp, lp,
                                &stats);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(stats.fallback_level,
              static_cast<int>(FallbackLevel::kL2Gradient));
    EXPECT_TRUE(stats.converged);
    EXPECT_NE(stats.solver_status.find("l2pg:converged"),
              std::string::npos);
  }
  {  // LP infeasible + PG failing -> level 2 (NNLS polish).
    FaultGuard guard;
    FaultRegistry::Global().Arm("lp.force_infeasible",
                                FaultRegistry::kEveryHit);
    FaultRegistry::Global().Arm("qp.fail", FaultRegistry::kEveryHit);
    TrainStats stats;
    auto w = SolveBucketWeights(p.a, p.s, TrainObjective::kLinf, qp, lp,
                                &stats);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(stats.fallback_level,
              static_cast<int>(FallbackLevel::kNnlsPolish));
    EXPECT_NE(stats.solver_status.find("nnls_polish"), std::string::npos);
  }
  {  // Everything failing -> level 3: uniform simplex weights.
    FaultGuard guard;
    FaultRegistry::Global().Arm("lp.force_infeasible",
                                FaultRegistry::kEveryHit);
    FaultRegistry::Global().Arm("qp.fail", FaultRegistry::kEveryHit);
    FaultRegistry::Global().Arm("nnls.fail", FaultRegistry::kEveryHit);
    TrainStats stats;
    auto w = SolveBucketWeights(p.a, p.s, TrainObjective::kLinf, qp, lp,
                                &stats);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(stats.fallback_level,
              static_cast<int>(FallbackLevel::kUniform));
    EXPECT_FALSE(stats.converged);
    ASSERT_EQ(w.value().size(), 2u);
    EXPECT_DOUBLE_EQ(w.value()[0], 0.5);
    EXPECT_DOUBLE_EQ(w.value()[1], 0.5);
    EXPECT_NE(stats.solver_status.find("uniform:floor"),
              std::string::npos);
  }
}

TEST(FallbackChainTest, L2ChainSkipsRedundantGradientLevel) {
  FaultGuard guard;
  // Primary IS projected gradient, so level 1 must be skipped: with both
  // PG and NNLS failing the chain lands on uniform weights directly.
  FaultRegistry::Global().Arm("qp.fail", FaultRegistry::kEveryHit);
  FaultRegistry::Global().Arm("nnls.fail", FaultRegistry::kEveryHit);
  TinyProblem p;
  TrainStats stats;
  auto w = SolveBucketWeights(p.a, p.s, TrainObjective::kL2,
                              SimplexLsqOptions{}, LpOptions{}, &stats);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(stats.fallback_level,
            static_cast<int>(FallbackLevel::kUniform));
  // Exactly one l2pg attempt: no level-1 repeat.
  EXPECT_EQ(FaultRegistry::Global().HitCount("qp.fail"), 1u);
  EXPECT_DOUBLE_EQ(w.value()[0], 0.5);
  EXPECT_DOUBLE_EQ(w.value()[1], 0.5);
}

// ---------------------------------------------------------------------
// End-to-end: Train() survives a fully degraded solve.
// ---------------------------------------------------------------------

struct DataFixture {
  DataFixture()
      : data(MakePowerLike(1500, 4100).Project({0, 1})), index(data.rows()) {}

  Workload Make(size_t n, uint64_t seed) const {
    WorkloadOptions opts;
    opts.max_width = 0.4;
    opts.seed = seed;
    WorkloadGenerator gen(&data, &index, opts);
    return gen.Generate(n);
  }

  Dataset data;
  CountingKdTree index;
};

TEST(FaultEndToEndTest, QuadHistTrainsAtUniformFloor) {
  FaultGuard guard;
  FaultRegistry::Global().Arm("qp.fail", FaultRegistry::kEveryHit);
  FaultRegistry::Global().Arm("nnls.fail", FaultRegistry::kEveryHit);
  DataFixture f;
  const Workload train = f.Make(60, 4101);
  auto model = EstimatorRegistry::Build("quadhist", 2, train.size());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model.value()->Train(train).ok());
  EXPECT_EQ(model.value()->train_stats().fallback_level,
            static_cast<int>(FallbackLevel::kUniform));
  EXPECT_FALSE(model.value()->train_stats().converged);
  // Degraded, but still a serving estimator with estimates in [0, 1].
  for (const auto& z : f.Make(20, 4102)) {
    const double est = model.value()->Estimate(z.query);
    EXPECT_GE(est, 0.0);
    EXPECT_LE(est, 1.0);
  }
}

TEST(FaultEndToEndTest, DegenerateMatrixDoesNotAbortTraining) {
  FaultGuard guard;
  FaultRegistry::Global().Arm("matrix.degenerate",
                              FaultRegistry::kEveryHit);
  DataFixture f;
  const Workload train = f.Make(50, 4103);
  for (const char* spec : {"quadhist", "ptshist"}) {
    auto model = EstimatorRegistry::Build(spec, 2, train.size());
    ASSERT_TRUE(model.ok()) << spec;
    EXPECT_TRUE(model.value()->Train(train).ok()) << spec;
    const double est = model.value()->Estimate(train[0].query);
    EXPECT_GE(est, 0.0) << spec;
    EXPECT_LE(est, 1.0) << spec;
  }
}

// ---------------------------------------------------------------------
// One solver run per fallback level, at the full budget.
// ---------------------------------------------------------------------

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// An Eq.-(8) window FISTA does not solve in 3,000 iterations but does
/// within the default budget: 32 box queries on power data over a
/// 12 x 12 grid of box buckets.
struct SlowProblem {
  SlowProblem() {
    DataFixture f;
    const Workload train = f.Make(32, 12);
    std::vector<Box> grid;
    const int k = 12;
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        grid.emplace_back(Point{static_cast<double>(i) / k,
                                static_cast<double>(j) / k},
                          Point{static_cast<double>(i + 1) / k,
                                static_cast<double>(j + 1) / k});
      }
    }
    a = BuildBoxFractionMatrix(train, grid, VolumeOptions{});
    s = SelectivitiesOf(train);
  }

  SparseMatrix a;
  Vector s;
};

/// Checks that the chain accepted `want` as is, at `level`.
void ExpectAccepted(const SimplexLsqResult& want, FallbackLevel level,
                    const Vector& w, const TrainStats& stats) {
  ASSERT_EQ(w.size(), want.w.size());
  for (size_t j = 0; j < w.size(); ++j) {
    ASSERT_EQ(Bits(w[j]), Bits(want.w[j])) << "weight " << j;
  }
  EXPECT_EQ(Bits(stats.train_loss), Bits(want.loss));
  EXPECT_EQ(stats.solver_iterations, want.iterations);
  EXPECT_EQ(stats.fallback_level, static_cast<int>(level));
  EXPECT_EQ(stats.converged, want.converged);
}

/// One SolveBucketWeights call and the metrics it recorded.
struct ChainRun {
  Result<Vector> w = Status::Internal("not run");
  TrainStats stats;
  MetricsSnapshot metrics;
};

/// Runs SolveBucketWeights (L2, `options`) on `p` with metrics on.
template <typename Problem>
ChainRun SolveChain(const Problem& p, const SimplexLsqOptions& options) {
  SetMetricsEnabled(true);
  MetricsRegistry::Global().Reset();
  ChainRun run;
  run.w = SolveBucketWeights(p.a, p.s, TrainObjective::kL2, options,
                             LpOptions{}, &run.stats);
  run.metrics = MetricsRegistry::Global().Snapshot();
  SetMetricsEnabled(false);
  return run;
}

TEST(OneRunPerLevelTest, L2PrimaryIsOneDefaultSolve) {
  FaultGuard guard;
  SlowProblem p;
  const auto direct = SolveSimplexLeastSquares(p.a, p.s);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct.value().converged)
      << "the problem must converge inside the default budget";
  ASSERT_GT(direct.value().iterations, 3000)
      << "the problem must need more than a quarter of the budget";

  const ChainRun run = SolveChain(p, {});
  ASSERT_TRUE(run.w.ok());
  ExpectAccepted(direct.value(), FallbackLevel::kPrimary, run.w.value(),
                 run.stats);
  EXPECT_EQ(run.stats.solver_status, "l2pg:converged");
  EXPECT_EQ(run.metrics.CounterValue("solver.qp.pg.attempts"), 1u);
  EXPECT_EQ(run.metrics.CounterValue("solver.qp.pg.iterations_total"),
            static_cast<uint64_t>(direct.value().iterations));
}

TEST(OneRunPerLevelTest, ForcedLimitOnTheFirstHitLandsAtThePolish) {
  FaultGuard guard;
  // The primary stops after one step, and the chain goes on to the NNLS
  // polish instead of re-running it.
  SlowProblem p;
  SimplexLsqOptions nn;
  nn.method = SimplexLsqOptions::Method::kNnls;
  const auto polish = SolveSimplexLeastSquares(p.a, p.s, nn);
  ASSERT_TRUE(polish.ok());
  FaultRegistry::Global().Arm("qp.force_iteration_limit", 1);
  const ChainRun run = SolveChain(p, {});
  ASSERT_TRUE(run.w.ok());
  // The one-step iterate is far from the optimum, so the polish wins.
  ExpectAccepted(polish.value(), FallbackLevel::kNnlsPolish, run.w.value(),
                 run.stats);
  EXPECT_EQ(run.stats.solver_status,
            std::string("l2pg:iteration_limit;nnls_polish:") +
                SolverTerminationName(polish.value().termination));
  EXPECT_EQ(run.metrics.CounterValue("solver.qp.pg.attempts"), 1u);
  EXPECT_EQ(run.metrics.CounterValue("solver.qp.pg.iterations_total"), 1u);
}

TEST(OneRunPerLevelTest, QpFailOnThePrimaryFallsThroughToThePolish) {
  FaultGuard guard;
  SlowProblem p;
  SimplexLsqOptions nn;
  nn.method = SimplexLsqOptions::Method::kNnls;
  const auto polish = SolveSimplexLeastSquares(p.a, p.s, nn);
  ASSERT_TRUE(polish.ok());
  FaultRegistry::Global().Arm("qp.fail", 1);
  const ChainRun run = SolveChain(p, {});
  ASSERT_TRUE(run.w.ok());
  ExpectAccepted(polish.value(), FallbackLevel::kNnlsPolish, run.w.value(),
                 run.stats);
  EXPECT_EQ(FaultRegistry::Global().HitCount("qp.fail"), 1u);
}

TEST(OneRunPerLevelTest, NnlsPrimaryAtItsLimitRunsNnlsOnce) {
  FaultGuard guard;
  TinyProblem p;
  SimplexLsqOptions nn;
  nn.method = SimplexLsqOptions::Method::kNnls;
  const auto pg = SolveSimplexLeastSquares(p.a, p.s);
  ASSERT_TRUE(pg.ok());
  ASSERT_TRUE(pg.value().converged);
  FaultRegistry::Global().Arm("nnls.force_iteration_limit", 1);
  const ChainRun run = SolveChain(p, nn);
  ASSERT_TRUE(run.w.ok());
  // Lawson–Hanson does not read the budget, so a second NNLS run would
  // repeat the first; the chain degrades to projected gradient.
  ExpectAccepted(pg.value(), FallbackLevel::kL2Gradient, run.w.value(),
                 run.stats);
  EXPECT_EQ(run.stats.solver_status,
            "l2nnls:iteration_limit;l2pg:converged");
  EXPECT_EQ(run.metrics.CounterValue("solver.qp.nnls.attempts"), 1u);
  EXPECT_EQ(run.metrics.CounterValue("solver.qp.pg.attempts"), 1u);
}

// ---------------------------------------------------------------------
// OnlineEstimator serving-path degradation.
// ---------------------------------------------------------------------

TEST(OnlineDegradationTest, FailedRetrainKeepsServingAndBacksOff) {
  FaultGuard guard;
  DataFixture f;
  OnlineOptions opts;
  opts.retrain_interval = 5;
  opts.max_backoff_multiplier = 4;  // cap at 20
  OnlineEstimator est(2, opts);

  // First round trains cleanly: a model is serving.
  const Workload feed = f.Make(60, 4104);
  size_t i = 0;
  for (; i < 5; ++i) {
    ASSERT_TRUE(est.Feedback(feed[i].query, feed[i].selectivity).ok());
  }
  ASSERT_TRUE(est.trained());
  ASSERT_EQ(est.retrain_count(), 1u);
  const double before = est.Estimate(feed[50].query);

  // Now every retrain fails: feedback still succeeds, the old model
  // keeps serving, and the interval backs off 5 -> 10 -> 20 (capped).
  FaultRegistry::Global().Arm("online.fail_retrain",
                              FaultRegistry::kEveryHit);
  for (; i < 10; ++i) {  // 5 more -> failed retrain #1
    EXPECT_TRUE(est.Feedback(feed[i].query, feed[i].selectivity).ok());
  }
  EXPECT_EQ(est.failed_retrain_count(), 1u);
  EXPECT_FALSE(est.last_error().ok());
  EXPECT_EQ(est.current_retrain_interval(), 10u);
  EXPECT_DOUBLE_EQ(est.Estimate(feed[50].query), before);

  for (; i < 20; ++i) {  // 10 more -> failed retrain #2
    EXPECT_TRUE(est.Feedback(feed[i].query, feed[i].selectivity).ok());
  }
  EXPECT_EQ(est.failed_retrain_count(), 2u);
  EXPECT_EQ(est.current_retrain_interval(), 20u);

  for (; i < 40; ++i) {  // 20 more -> failed retrain #3, interval capped
    EXPECT_TRUE(est.Feedback(feed[i].query, feed[i].selectivity).ok());
  }
  EXPECT_EQ(est.failed_retrain_count(), 3u);
  EXPECT_EQ(est.current_retrain_interval(), 20u);
  EXPECT_EQ(est.retrain_count(), 1u);
  EXPECT_DOUBLE_EQ(est.Estimate(feed[50].query), before);

  // Fault clears: the next retrain succeeds, error resets, interval
  // returns to its configured value.
  FaultRegistry::Global().DisarmAll();
  ASSERT_TRUE(est.Retrain().ok());
  EXPECT_TRUE(est.last_error().ok());
  EXPECT_EQ(est.retrain_count(), 2u);
  EXPECT_EQ(est.current_retrain_interval(), 5u);
}

TEST(OnlineDegradationTest, ManualRetrainReportsTheRealFailure) {
  FaultGuard guard;
  FaultRegistry::Global().Arm("online.fail_retrain",
                              FaultRegistry::kEveryHit);
  DataFixture f;
  OnlineOptions opts;
  opts.retrain_interval = 0;  // manual only
  OnlineEstimator est(2, opts);
  for (const auto& z : f.Make(10, 4105)) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  const Status st = est.Retrain();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(est.last_error().code(), StatusCode::kInternal);
  EXPECT_FALSE(est.trained());
  EXPECT_DOUBLE_EQ(est.Estimate(Box::Unit(2)), opts.prior_estimate);
}

TEST(OnlineValidationTest, CreateRejectsBadOptions) {
  OnlineOptions bad_prior;
  bad_prior.prior_estimate = 1.5;
  EXPECT_EQ(OnlineEstimator::Create(2, bad_prior).status().code(),
            StatusCode::kInvalidArgument);

  OnlineOptions nan_prior;
  nan_prior.prior_estimate = std::nan("");
  EXPECT_EQ(OnlineEstimator::Create(2, nan_prior).status().code(),
            StatusCode::kInvalidArgument);

  OnlineOptions zero_window;
  zero_window.window_capacity = 0;
  EXPECT_EQ(OnlineEstimator::Create(2, zero_window).status().code(),
            StatusCode::kInvalidArgument);

  OnlineOptions bad_spec;
  bad_spec.estimator = "quadhist:tau=";
  EXPECT_FALSE(OnlineEstimator::Create(2, bad_spec).ok());

  OnlineOptions unknown;
  unknown.estimator = "nosuchmodel";
  EXPECT_EQ(OnlineEstimator::Create(2, unknown).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(OnlineEstimator::Create(0, OnlineOptions{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(OnlineEstimator::Create(2, OnlineOptions{}).ok());
}

TEST(OnlineValidationTest, DirectConstructionDefersErrorToUse) {
  OnlineOptions unknown;
  unknown.estimator = "nosuchmodel";
  OnlineEstimator est(2, unknown);
  EXPECT_FALSE(est.last_error().ok());
  EXPECT_FALSE(est.Feedback(Box::Unit(2), 0.5).ok());
  EXPECT_FALSE(est.Retrain().ok());
  EXPECT_DOUBLE_EQ(est.Estimate(Box::Unit(2)), 0.5);  // prior still serves
}

// ---------------------------------------------------------------------
// IO fault sites.
// ---------------------------------------------------------------------

TEST(IoFaultTest, ShortReadSitesReturnIOError) {
  FaultGuard guard;
  DataFixture f;

  // A valid model file loads clean, then fails under the fault.
  const Workload train = f.Make(40, 4106);
  auto model = EstimatorRegistry::Build("quadhist", 2, train.size());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model.value()->Train(train).ok());
  const std::string model_path = TempPath("sel_fault_model.model");
  ASSERT_TRUE(SaveModel(*model.value(), model_path).ok());
  ASSERT_TRUE(LoadModel(model_path).ok());

  const std::string workload_path = TempPath("sel_fault_workload.csv");
  ASSERT_TRUE(SaveWorkloadCsv(train, workload_path).ok());
  ASSERT_TRUE(LoadWorkloadCsv(workload_path).ok());

  const std::string csv_path = TempPath("sel_fault_data.csv");
  ASSERT_TRUE(SaveDatasetCsv(f.data, csv_path).ok());
  ASSERT_TRUE(LoadDatasetCsv(csv_path).ok());

  ASSERT_TRUE(FaultRegistry::Global()
                  .ArmFromSpec("io.model_short_read@*,"
                               "io.workload_short_read@*,"
                               "io.csv_short_read@*")
                  .ok());
  EXPECT_EQ(LoadModel(model_path).status().code(), StatusCode::kIOError);
  EXPECT_EQ(LoadWorkloadCsv(workload_path).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(LoadDatasetCsv(csv_path).status().code(), StatusCode::kIOError);

  FaultRegistry::Global().DisarmAll();
  EXPECT_TRUE(LoadModel(model_path).ok());
  EXPECT_TRUE(LoadWorkloadCsv(workload_path).ok());
  EXPECT_TRUE(LoadDatasetCsv(csv_path).ok());

  std::filesystem::remove(model_path);
  std::filesystem::remove(workload_path);
  std::filesystem::remove(csv_path);
}

}  // namespace
}  // namespace sel
