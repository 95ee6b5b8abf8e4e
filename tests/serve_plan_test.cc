// Plan-correctness suite for the serving layer (DESIGN.md §11): every
// lowerable estimator's CompiledPlan — the one path its Estimate serves
// from — must reproduce the brute-force Eq. (6)/(7) reference
// (reference_eval.h) within 1e-12, or, for learners that keep their
// buckets private, reproduce their own Eq. (8) training residual; across
// query shapes, seeds, and thread counts. Plans must survive the
// model_io round-trip bit-identically, and OnlineEstimator's model
// hand-off must keep serving during a retrain (the TSAN lane checks the
// hand-off is race-free).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "reference_eval.h"
#include "sel/sel.h"

namespace sel {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SemiAlgebraicSet Disc(double cx, double cy, double r) {
  const int d = 2;
  const Polynomial x = Polynomial::Variable(d, 0);
  const Polynomial y = Polynomial::Variable(d, 1);
  const Polynomial p = (x - Polynomial::Constant(d, cx)) *
                           (x - Polynomial::Constant(d, cx)) +
                       (y - Polynomial::Constant(d, cy)) *
                           (y - Polynomial::Constant(d, cy)) -
                       Polynomial::Constant(d, r * r);
  return SemiAlgebraicSet::Atom(p);
}

struct Fixture {
  Fixture()
      : data(MakePowerLike(3000, 1300).Project({0, 1})),
        index(data.rows()) {}

  Workload MakeTrain(size_t n, uint64_t seed) const {
    WorkloadOptions opts;
    opts.seed = seed;
    WorkloadGenerator gen(&data, &index, opts);
    return gen.Generate(n);
  }

  std::vector<Query> MakeProbes(QueryType type, size_t n,
                                uint64_t seed) const {
    if (type == QueryType::kSemiAlgebraic) {
      Rng rng(seed);
      std::vector<Query> qs;
      for (size_t i = 0; i < n; ++i) {
        const double cx = rng.Uniform(0.2, 0.8);
        const double cy = rng.Uniform(0.2, 0.8);
        const double r = rng.Uniform(0.15, 0.45);
        qs.push_back(SemiAlgebraicSet::And(
            Disc(cx, cy, r),
            SemiAlgebraicSet::Not(Disc(cx + r / 2, cy, r * 0.7))));
      }
      return qs;
    }
    WorkloadOptions opts;
    opts.query_type = type;
    opts.seed = seed;
    WorkloadGenerator gen(&data, &index, opts);
    std::vector<Query> qs;
    for (const auto& z : gen.Generate(n)) qs.push_back(z.query);
    return qs;
  }

  Dataset data;
  CountingKdTree index;
};

// Batch kernel and Estimate agree with EstimateOne bit for bit, at 1 and
// 8 threads: the same arithmetic for any thread count.
void ExpectOnePathEverywhere(const SelectivityModel& model,
                             const std::vector<Query>& probes,
                             const std::string& what) {
  const std::shared_ptr<const CompiledPlan> plan = model.shared_plan();
  ASSERT_NE(plan, nullptr) << what;
  std::vector<double> one(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    one[i] = plan->EstimateOne(probes[i]);
    EXPECT_EQ(model.Estimate(probes[i]), one[i]) << what << " query " << i;
    EXPECT_GE(one[i], 0.0);
    EXPECT_LE(one[i], 1.0);
  }
  for (int threads : {1, 8}) {
    ThreadPool pool(threads);
    ScopedPoolOverride scope(&pool);
    const std::vector<double> many = plan->EstimateMany(probes);
    ASSERT_EQ(many.size(), one.size());
    for (size_t i = 0; i < many.size(); ++i) {
      EXPECT_EQ(many[i], one[i])
          << what << " threads=" << threads << " query " << i;
    }
  }
}

// Every lowerable estimator, every query shape it serves, two training
// seeds. QuadHist and PtsHist export their buckets, so their plans are
// checked per query against the brute-force Eq. (6)/(7) sums within
// 1e-12. QuickSel, Isomer and the arrangement learner keep theirs
// private; their estimates over the training workload must reproduce
// the Eq. (8) residual the trainer reported (train_stats().train_loss)
// within 1e-12 — for Isomer this is the independent check of its
// slab-cut lowering, since its training rows come from
// EffectiveFraction, not from the plan.
TEST(ServePlanTest, PlanMatchesVirtualPathEverywhere) {
  Fixture f;
  const std::vector<QueryType> all_shapes = {
      QueryType::kBox, QueryType::kHalfspace, QueryType::kBall,
      QueryType::kSemiAlgebraic};
  for (uint64_t seed : {901u, 902u}) {
    const Workload train = f.MakeTrain(80, seed);
    for (const char* name : {"quadhist", "ptshist"}) {
      auto built = EstimatorRegistry::Build(name, 2, train.size());
      ASSERT_TRUE(built.ok()) << name << ": " << built.status().ToString();
      SelectivityModel& model = *built.value();
      ASSERT_TRUE(model.Train(train).ok()) << name;
      auto plan = model.Compile();
      ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
      EXPECT_EQ(plan.value().dim(), 2) << name;
      EXPECT_EQ(plan.value().source(), name);
      EXPECT_EQ(plan.value().size(), model.shared_plan()->size()) << name;
      const auto* qh = dynamic_cast<const QuadHist*>(&model);
      const auto* ph = dynamic_cast<const PtsHist*>(&model);
      for (QueryType shape : all_shapes) {
        const std::vector<Query> probes = f.MakeProbes(shape, 25, seed + 17);
        for (size_t i = 0; i < probes.size(); ++i) {
          const double ref =
              qh != nullptr
                  ? ReferenceBoxEstimate(probes[i], qh->LeafBoxes(),
                                         qh->LeafWeights(),
                                         qh->options().volume)
                  : ReferencePointEstimate(probes[i], ph->BucketPoints(),
                                           ph->BucketWeights());
          EXPECT_NEAR(plan.value().EstimateOne(probes[i]), ref, 1e-12)
              << name << " seed=" << seed << " shape "
              << QueryTypeName(shape) << " query " << i;
        }
        ExpectOnePathEverywhere(model, probes,
                                std::string(name) + " " +
                                    QueryTypeName(shape));
      }
    }

    // QuickSel's and ISOMER's paper scope is orthogonal ranges. The
    // arrangement grid grows as (2n)^2 cells, so it trains on a prefix.
    const Workload small(train.begin(), train.begin() + 20);
    std::vector<std::pair<std::string, std::unique_ptr<SelectivityModel>>>
        private_bucket_models;
    for (const char* name : {"quicksel", "isomer"}) {
      auto built = EstimatorRegistry::Build(name, 2, train.size());
      ASSERT_TRUE(built.ok()) << name << ": " << built.status().ToString();
      private_bucket_models.emplace_back(name, std::move(built).value());
    }
    ArrangementOptions discrete;
    discrete.mode = ArrangementOptions::Mode::kDiscrete;
    private_bucket_models.emplace_back(
        "arrangement", std::make_unique<ArrangementLearner>(
                           2, ArrangementOptions{}));
    private_bucket_models.emplace_back(
        "arrangement:discrete",
        std::make_unique<ArrangementLearner>(2, discrete));
    for (auto& [name, model] : private_bucket_models) {
      const Workload& w =
          name.rfind("arrangement", 0) == 0 ? small : train;
      ASSERT_TRUE(model->Train(w).ok()) << name;
      double loss = 0.0;
      for (const auto& z : w) {
        const double d = model->Estimate(z.query) - z.selectivity;
        loss += d * d;
      }
      loss /= static_cast<double>(w.size());
      EXPECT_NEAR(loss, model->train_stats().train_loss, 1e-12)
          << name << " seed=" << seed;
      ExpectOnePathEverywhere(*model, f.MakeProbes(QueryType::kBox, 25,
                                                   seed + 17),
                              name);
    }
  }
}

// The flat forms (what a loaded box or point file becomes) lower
// straight from their records; forms that cannot lower (every weight
// zero, or empty) are refused.
TEST(ServePlanTest, StaticFormsLower) {
  const std::vector<Box> boxes = {Box({0.0, 0.0}, {0.5, 1.0}),
                                  Box({0.5, 0.0}, {1.0, 1.0})};
  const std::vector<Point> points = {{0.25, 0.25}, {0.75, 0.75}};
  auto box_plan = [&](const std::vector<Box>& b, const Vector& w) {
    return PlanModel::Create(
        CompiledPlan::FromBoxBuckets(b, w, VolumeOptions{}, "static"));
  };
  auto point_plan = [&](const Vector& w) {
    return PlanModel::Create(
        CompiledPlan::FromPointBuckets(points, w, "staticpoints"));
  };
  auto h = box_plan(boxes, {0.8, 0.2});
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  auto p = point_plan({0.3, 0.7});
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_NE(h.value()->shared_plan(), nullptr);
  ASSERT_NE(p.value()->shared_plan(), nullptr);
  for (const Query& q :
       {Query(Box({0.0, 0.0}, {0.5, 1.0})), Query(Box({0.1, 0.2}, {0.9, 0.7})),
        Query(Box::Unit(2))}) {
    EXPECT_NEAR(h.value()->Estimate(q),
                ReferenceBoxEstimate(q, boxes, {0.8, 0.2}, VolumeOptions{}),
                1e-12);
    EXPECT_NEAR(p.value()->Estimate(q),
                ReferencePointEstimate(q, points, {0.3, 0.7}), 1e-12);
  }
  EXPECT_FALSE(box_plan(boxes, {0.0, 0.0}).ok());
  EXPECT_FALSE(point_plan({0.0, 0.0}).ok());
  EXPECT_FALSE(box_plan({}, {}).ok());
}

// GMM and AVI have no flat bucket form; Compile says so instead of
// silently mis-lowering, and they keep estimating on their own.
TEST(ServePlanTest, NonLowerableEstimatorsReportUnimplemented) {
  Fixture f;
  const Workload train = f.MakeTrain(40, 1401);
  GmmModel gmm(2, GmmOptions{});
  EXPECT_EQ(gmm.Compile().status().code(), StatusCode::kUnimplemented);
  AviHistogram avi(2, AviOptions{});
  EXPECT_EQ(avi.Compile().status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(avi.shared_plan(), nullptr);
  const double est = avi.Estimate(Box::Unit(2));
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, 1.0);
  // Untrained lowerable models have no plan and fail Compile with
  // FailedPrecondition; Train builds the plan once, and shared_plan()
  // hands out that same plan every time.
  QuadHist qh(2, QuadHistOptions{});
  EXPECT_EQ(qh.Compile().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(qh.shared_plan(), nullptr);
  ASSERT_TRUE(qh.Train(train).ok());
  const auto plan = qh.shared_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(qh.shared_plan().get(), plan.get());
  EXPECT_TRUE(qh.Compile().ok());
}

// Zero-volume buckets lower to point entries at their centers and
// zero-weight buckets are dropped — the plan still reproduces
// QueryBoxFraction's degenerate limit.
TEST(ServePlanTest, DegenerateAndZeroWeightBuckets) {
  const std::vector<Box> buckets = {
      Box({0.0, 0.0}, {0.5, 1.0}),   // proper
      Box({0.7, 0.2}, {0.7, 0.4}),   // zero volume -> point at center
      Box({0.2, 0.2}, {0.4, 0.4}),   // zero weight -> dropped
  };
  auto plan = CompiledPlan::FromBoxBuckets(buckets, {0.5, 0.3, 0.0},
                                           VolumeOptions{}, "test");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().num_box_entries(), 1u);
  EXPECT_EQ(plan.value().num_point_entries(), 1u);
  // Query containing the degenerate bucket's center picks up its weight.
  EXPECT_NEAR(plan.value().EstimateOne(Box({0.6, 0.1}, {0.8, 0.5})), 0.3,
              1e-15);
  // Full domain: 0.5 + 0.3 (the zero-weight bucket contributes nothing).
  EXPECT_NEAR(plan.value().EstimateOne(Box::Unit(2)), 0.8, 1e-15);
}

// Compiled plans survive save -> load with bit-identical estimates and
// save -> load -> save with bit-identical bytes (the canonical tree
// build is a pure function of the entry multiset).
TEST(ServePlanTest, ModelIoRoundTripIsExact) {
  Fixture f;
  const Workload train = f.MakeTrain(80, 905);
  for (const char* name : {"quadhist", "ptshist"}) {
    auto built = EstimatorRegistry::Build(name, 2, train.size());
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value()->Train(train).ok()) << name;
    auto compiled = PlanModel::Create(built.value()->Compile());
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const PlanModel& original = *compiled.value();

    const std::string path = TempPath(std::string("sel_plan_") + name +
                                      ".model");
    ASSERT_TRUE(SaveModel(original, path).ok()) << name;
    auto loaded = LoadModel(path);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->RegistryName(), "plan");
    EXPECT_EQ(loaded.value()->NumBuckets(), original.NumBuckets()) << name;

    for (const Query& q : f.MakeProbes(QueryType::kBox, 40, 906)) {
      EXPECT_EQ(loaded.value()->Estimate(q), original.Estimate(q)) << name;
    }

    const std::string path2 = TempPath(std::string("sel_plan_") + name +
                                       "_2.model");
    ASSERT_TRUE(SaveModel(*loaded.value(), path2).ok()) << name;
    auto slurp = [](const std::string& p) {
      std::ifstream in(p);
      std::stringstream ss;
      ss << in.rdbuf();
      return ss.str();
    };
    EXPECT_EQ(slurp(path), slurp(path2))
        << name << ": save->load->save is not byte-stable";
    std::filesystem::remove(path);
    std::filesystem::remove(path2);
  }
}

// The pruning tree must actually prune: a tiny query visits far fewer
// entries than the plan holds, and the accounting is aggregated across
// a batch.
TEST(ServePlanTest, PruningStatsShowSkippedEntries) {
  Fixture f;
  const Workload train = f.MakeTrain(150, 907);
  auto built = EstimatorRegistry::Build("ptshist", 2, train.size());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->Train(train).ok());
  auto plan = built.value()->Compile();
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan.value().size(), 64u) << "fixture too small to prune";

  PlanEvalStats tiny;
  (void)plan.value().EstimateOne(Box({0.4, 0.4}, {0.41, 0.41}), &tiny);
  EXPECT_EQ(tiny.entries_total, plan.value().size());
  EXPECT_LT(tiny.entries_visited, tiny.entries_total);
  EXPECT_GT(tiny.PruneRatio(), 0.0);

  const std::vector<Query> probes = f.MakeProbes(QueryType::kBox, 20, 908);
  PlanEvalStats batch;
  (void)plan.value().EstimateMany(probes, &batch);
  EXPECT_EQ(batch.entries_total, plan.value().size() * probes.size());
  EXPECT_LE(batch.entries_visited, batch.entries_total);
}

// Malformed queries (non-finite parameters; every ctor-constructible
// degenerate form) must not poison the serving arithmetic: the plan
// answers the empty-range 0 and the checked TryEstimate rejects with
// InvalidArgument, both counted under serve.invalid_query_total.
TEST(ServePlanTest, MalformedQueriesAreRejectedNotPoisonous) {
  Fixture f;
  QuadHist model(2, QuadHistOptions{});
  ASSERT_TRUE(model.Train(f.MakeTrain(40, 911)).ok());
  const auto plan = model.shared_plan();
  ASSERT_NE(plan, nullptr);

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Query> bad = {
      Box({0.0, 0.0}, {1.0, inf}),    // unbounded corner
      Box({-inf, 0.0}, {1.0, 1.0}),   // unbounded corner, low side
      Halfspace({1.0, 0.0}, inf),     // non-finite offset
      Halfspace({1.0, 0.0}, nan),     // NaN offset
      Ball({nan, 0.5}, 0.25),         // NaN center
      Ball({0.5, 0.5}, inf),          // infinite radius
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_FALSE(QueryIsValid(bad[i])) << "query " << i;
    // Plan path: sanitized to the empty-range answer, never NaN.
    EXPECT_EQ(plan->EstimateOne(bad[i]), 0.0) << "query " << i;
    // Checked front door: an explicit rejection the caller can see.
    auto checked = model.TryEstimate(bad[i]);
    ASSERT_FALSE(checked.ok()) << "query " << i;
    EXPECT_EQ(checked.status().code(), StatusCode::kInvalidArgument)
        << "query " << i;
  }
  // The batch kernel inherits the per-query sanitization.
  const std::vector<double> many = plan->EstimateMany(bad);
  for (size_t i = 0; i < many.size(); ++i) {
    EXPECT_EQ(many[i], 0.0) << "query " << i;
  }

  // Well-formed queries flow through the front door unchanged.
  const Query good = Box({0.2, 0.2}, {0.7, 0.7});
  ASSERT_TRUE(QueryIsValid(good));
  auto checked = model.TryEstimate(good);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(checked.value(), model.Estimate(good));
}

// Serving never blocks on retraining: readers hammer Estimate while the
// feedback loop forces several retrains; every observed estimate is
// valid and the hand-off lands a fresh plan. The TSAN lane turns any
// torn or unsynchronized hand-off into a hard failure.
TEST(ServePlanTest, OnlineServingUninterruptedAcrossRetrain) {
  Fixture f;
  OnlineOptions opts;
  opts.retrain_interval = 25;
  opts.estimator = "quadhist";
  auto online = OnlineEstimator::Create(2, opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  OnlineEstimator& est = *online.value();

  const Workload feed = f.MakeTrain(150, 910);
  const Query probe = Box({0.2, 0.2}, {0.7, 0.7});

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> bad{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const double v = est.Estimate(probe);
        if (!(v >= 0.0 && v <= 1.0)) bad.store(true);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Collect statuses and join the readers BEFORE asserting: a failed
  // assertion returns from the test body, and destroying a joinable
  // std::thread calls std::terminate — under fault injection (which
  // legitimately fails Retrain) that would turn an ordinary test
  // failure into an abort.
  Status feed_status = Status::OK();
  for (const auto& z : feed) {
    feed_status = est.Feedback(z.query, z.selectivity);
    if (!feed_status.ok()) break;
  }
  const Status retrain_status =
      feed_status.ok() ? est.Retrain() : Status::OK();
  stop.store(true);
  for (auto& t : readers) t.join();

  ASSERT_TRUE(feed_status.ok()) << feed_status.ToString();
  ASSERT_TRUE(retrain_status.ok()) << retrain_status.ToString();
  EXPECT_FALSE(bad.load()) << "a reader saw an out-of-range estimate";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GE(est.retrain_count(), 5u);
  EXPECT_TRUE(est.trained());
  // quadhist lowers, so the swapped-in model carries a plan.
  EXPECT_NE(est.serving_plan(), nullptr);
}

}  // namespace
}  // namespace sel
