// Tests for the online feedback estimator: retraining schedule, sliding
// window, accuracy gain from feedback, and drift adaptation (§4.3).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "core/online.h"
#include "data/generators.h"
#include "index/kdtree.h"
#include "workload/workload.h"

namespace sel {
namespace {

struct Fixture {
  Fixture()
      : data(MakePowerLike(3000, 950).Project({0, 1})),
        index(data.rows()) {}

  Workload Make(size_t n, uint64_t seed,
                CenterDistribution centers =
                    CenterDistribution::kDataDriven,
                double gaussian_mean = 0.5) const {
    WorkloadOptions opts;
    opts.centers = centers;
    opts.gaussian_mean = gaussian_mean;
    opts.gaussian_stddev = 0.12;
    opts.max_width = 0.4;
    opts.seed = seed;
    WorkloadGenerator gen(&data, &index, opts);
    return gen.Generate(n);
  }

  double Rms(const OnlineEstimator& est, const Workload& test) const {
    double sq = 0.0;
    for (const auto& z : test) {
      const double d = est.Estimate(z.query) - z.selectivity;
      sq += d * d;
    }
    return std::sqrt(sq / static_cast<double>(test.size()));
  }

  Dataset data;
  CountingKdTree index;
};

TEST(OnlineTest, PriorBeforeAnyFeedback) {
  OnlineOptions opts;
  opts.prior_estimate = 0.25;
  OnlineEstimator est(2, opts);
  EXPECT_FALSE(est.trained());
  EXPECT_DOUBLE_EQ(est.Estimate(Box::Unit(2)), 0.25);
}

TEST(OnlineTest, RetrainsOnSchedule) {
  Fixture f;
  OnlineOptions opts;
  opts.retrain_interval = 10;
  OnlineEstimator est(2, opts);
  const Workload feed = f.Make(35, 951);
  for (const auto& z : feed) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  EXPECT_EQ(est.retrain_count(), 3u);  // at 10, 20, 30
  EXPECT_TRUE(est.trained());
  EXPECT_EQ(est.window_size(), 35u);
}

TEST(OnlineTest, WindowCapacityEnforced) {
  Fixture f;
  OnlineOptions opts;
  opts.retrain_interval = 0;  // manual retrain only
  opts.window_capacity = 20;
  OnlineEstimator est(2, opts);
  for (const auto& z : f.Make(50, 952)) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  EXPECT_EQ(est.window_size(), 20u);
  EXPECT_EQ(est.retrain_count(), 0u);
  ASSERT_TRUE(est.Retrain().ok());
  EXPECT_EQ(est.retrain_count(), 1u);
}

TEST(OnlineTest, AccuracyImprovesWithFeedback) {
  Fixture f;
  const Workload test = f.Make(100, 953);
  OnlineOptions opts;
  opts.retrain_interval = 50;
  OnlineEstimator est(2, opts);
  const double rms_prior = f.Rms(est, test);
  for (const auto& z : f.Make(200, 954)) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  const double rms_after = f.Rms(est, test);
  EXPECT_LT(rms_after, rms_prior * 0.5);
  EXPECT_LT(rms_after, 0.05);
}

TEST(OnlineTest, AdaptsToWorkloadDrift) {
  // Feed a Gaussian workload at mean 0.25, then shift to 0.75: the
  // sliding window must flush old feedback and recover accuracy on the
  // new regime.
  Fixture f;
  OnlineOptions opts;
  opts.retrain_interval = 50;
  opts.window_capacity = 150;
  OnlineEstimator est(2, opts);
  for (const auto& z :
       f.Make(150, 955, CenterDistribution::kGaussian, 0.25)) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  const Workload test_new =
      f.Make(80, 956, CenterDistribution::kGaussian, 0.75);
  const size_t retrains_before = est.retrain_count();
  for (const auto& z :
       f.Make(300, 957, CenterDistribution::kGaussian, 0.75)) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  // The sliding window (capacity 150 < 300 new records) now holds only
  // post-shift feedback, retraining happened, and accuracy on the new
  // regime is good.
  EXPECT_EQ(est.window_size(), 150u);
  EXPECT_GT(est.retrain_count(), retrains_before);
  EXPECT_LT(f.Rms(est, test_new), 0.05);
}

TEST(OnlineTest, ManualRetrainOnEmptyWindowIsNoOp) {
  OnlineEstimator est(2, OnlineOptions{});
  EXPECT_TRUE(est.Retrain().ok());
  EXPECT_FALSE(est.trained());
}

TEST(OnlineTest, RejectsBadFeedback) {
  OnlineEstimator est(2, OnlineOptions{});
  EXPECT_FALSE(est.Feedback(Box::Unit(3), 0.5).ok());
  EXPECT_FALSE(est.Feedback(Box::Unit(2), 1.5).ok());
  EXPECT_FALSE(est.Feedback(Box::Unit(2), -0.1).ok());
}

TEST(OnlineTest, RejectsMalformedQueryFeedback) {
  // Constructible-but-degenerate queries (Box's ctor catches inverted
  // intervals, but non-finite parameters slip through every geometry
  // ctor) must be refused at the Feedback door, not pooled into the
  // training window.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  OnlineEstimator est(2, OnlineOptions{});
  EXPECT_EQ(est.Feedback(Box({0.0, 0.0}, {1.0, inf}), 0.5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(est.Feedback(Halfspace({1.0, 0.0}, inf), 0.5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(est.Feedback(Ball({nan, 0.5}, 0.25), 0.5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(est.window_size(), 0u);
  // A well-formed query is still absorbed.
  EXPECT_TRUE(est.Feedback(Box::Unit(2), 0.5).ok());
  EXPECT_EQ(est.window_size(), 1u);
}

TEST(OnlineTest, ValidatesGateOptions) {
  OnlineOptions opts;
  opts.gate_factor = -1.0;
  EXPECT_FALSE(OnlineEstimator::Create(2, opts).ok());
}

TEST(OnlineTest, QualityGateRejectionKeepsIncumbentServing) {
  Fixture f;
  OnlineOptions opts;
  opts.retrain_interval = 0;  // manual retrains only
  OnlineEstimator est(2, opts);
  for (const auto& z : f.Make(60, 970)) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  ASSERT_TRUE(est.Retrain().ok());
  EXPECT_EQ(est.publish_accepted_count(), 1u);
  const auto incumbent_plan = est.serving_plan();
  const Workload probe = f.Make(40, 971);
  std::vector<double> before;
  for (const auto& z : probe) before.push_back(est.Estimate(z.query));

  // Force the gate's verdict deterministically: the injected holdout
  // fault stands in for "candidate scored badly on the held-out slice".
  FaultRegistry::Global().Arm("online.gate.holdout");
  const Status st = est.Retrain();
  FaultRegistry::Global().Disarm("online.gate.holdout");
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(est.publish_rejected_quality_count(), 1u);
  EXPECT_EQ(est.publish_accepted_count(), 1u);
  EXPECT_EQ(est.failed_retrain_count(), 1u);
  EXPECT_EQ(est.rejection_streak(), 1u);
  EXPECT_FALSE(est.last_error().ok());

  // The rejected candidate was dropped wholesale: the incumbent plan
  // pointer is unchanged and its estimates are byte-identical.
  EXPECT_EQ(est.serving_plan(), incumbent_plan);
  for (size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(est.Estimate(probe[i].query), before[i]);
  }

  // The next clean retrain publishes again and clears the streak.
  ASSERT_TRUE(est.Retrain().ok());
  EXPECT_EQ(est.publish_accepted_count(), 2u);
  EXPECT_EQ(est.rejection_streak(), 0u);
}

TEST(OnlineTest, RollbackWalksLastGoodRing) {
  Fixture f;
  OnlineOptions opts;
  opts.retrain_interval = 0;
  OnlineEstimator est(2, opts);
  // Nothing published yet: nothing to roll back to.
  EXPECT_EQ(est.RollbackLastGood().code(), StatusCode::kFailedPrecondition);

  for (const auto& z : f.Make(40, 972)) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  ASSERT_TRUE(est.Retrain().ok());
  const auto plan1 = est.serving_plan();
  ASSERT_NE(plan1, nullptr);
  EXPECT_EQ(est.rollback_ring_size(), 1u);

  for (const auto& z : f.Make(20, 973)) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  ASSERT_TRUE(est.Retrain().ok());
  const auto plan2 = est.serving_plan();
  EXPECT_NE(plan2, plan1);
  EXPECT_EQ(est.rollback_ring_size(), 2u);

  // Roll back: the previous snapshot serves again, the abandoned one is
  // dropped from the ring.
  ASSERT_TRUE(est.RollbackLastGood().ok());
  EXPECT_EQ(est.serving_plan(), plan1);
  EXPECT_EQ(est.rollback_ring_size(), 1u);

  // Only one snapshot left: walking further back fails cleanly.
  EXPECT_EQ(est.RollbackLastGood().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(est.serving_plan(), plan1);
}

TEST(OnlineTest, DeadlineExpiredRetrainKeepsIncumbent) {
  Fixture f;
  OnlineOptions opts;
  opts.retrain_interval = 0;
  OnlineEstimator est(2, opts);
  for (const auto& z : f.Make(60, 974)) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  ASSERT_TRUE(est.Retrain().ok());
  const auto incumbent_plan = est.serving_plan();
  const Workload probe = f.Make(40, 975);
  std::vector<double> before;
  for (const auto& z : probe) before.push_back(est.Estimate(z.query));

  // An already-expired ambient budget: training completes degraded (the
  // solver chain short-circuits to its uniform floor, no abort) and the
  // publication check rejects the degraded candidate.
  {
    ScopedDeadline expired(Deadline::AfterMillis(0));
    const Status st = est.Retrain();
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(est.publish_rejected_deadline_count(), 1u);
  EXPECT_EQ(est.publish_rejected_quality_count(), 0u);
  EXPECT_EQ(est.serving_plan(), incumbent_plan);
  for (size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(est.Estimate(probe[i].query), before[i]);
  }
  // Outside the expired scope, retraining recovers on its own.
  ASSERT_TRUE(est.Retrain().ok());
  EXPECT_EQ(est.rejection_streak(), 0u);
}

TEST(OnlineTest, WorksWithPtsHistBackend) {
  Fixture f;
  OnlineOptions opts;
  opts.estimator = "ptshist";
  opts.retrain_interval = 40;
  OnlineEstimator est(2, opts);
  for (const auto& z : f.Make(120, 958)) {
    ASSERT_TRUE(est.Feedback(z.query, z.selectivity).ok());
  }
  EXPECT_TRUE(est.trained());
  EXPECT_LT(f.Rms(est, f.Make(80, 959)), 0.08);
}

}  // namespace
}  // namespace sel
