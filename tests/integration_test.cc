// Cross-module integration and property tests: the full pipeline
// (generator -> index -> workload -> model -> metrics), the paper's
// qualitative claims, and the monotonicity/consistency properties §4
// cites as an advantage of distribution-backed models over deep nets.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "sel/sel.h"

namespace sel {
namespace {

/// The first `dim` attribute indices of a dataset.
std::vector<int> FirstColumns(int dim) {
  std::vector<int> cols(static_cast<size_t>(dim));
  for (int j = 0; j < dim; ++j) cols[j] = j;
  return cols;
}

struct Pipeline {
  explicit Pipeline(uint64_t seed = 500, int dim = 2)
      : data(MakePowerLike(5000, seed).Project(FirstColumns(dim))),
        index(data.rows()) {}

  Workload Make(size_t n, uint64_t seed,
                QueryType type = QueryType::kBox,
                CenterDistribution centers =
                    CenterDistribution::kDataDriven) const {
    WorkloadOptions opts;
    opts.query_type = type;
    opts.centers = centers;
    opts.seed = seed;
    WorkloadGenerator gen(&data, &index, opts);
    return gen.Generate(n);
  }

  Dataset data;
  CountingKdTree index;
};

// A baseline that predicts the training-mean selectivity everywhere.
class MeanPredictor : public SelectivityModel {
 public:
  Status Train(const Workload& w) override {
    double s = 0.0;
    for (const auto& z : w) s += z.selectivity;
    mean_ = w.empty() ? 0.0 : s / static_cast<double>(w.size());
    return Status::OK();
  }
  double Estimate(const Query&) const override { return mean_; }
  size_t NumBuckets() const override { return 1; }
  std::string Name() const override { return "Mean"; }

 private:
  double mean_ = 0.0;
};

// Builds a registry estimator or aborts (test-friendly shorthand).
std::unique_ptr<SelectivityModel> BuildOrDie(const std::string& spec,
                                             int dim, size_t n) {
  auto r = EstimatorRegistry::Build(spec, dim, n);
  SEL_CHECK_MSG(r.ok(), "%s", r.status().ToString().c_str());
  return std::move(r).value();
}

// Registry estimators plus the arrangement learner of §3.1, which the
// registry does not carry; "arrangement:discrete" is its Eq. (7) mode.
std::unique_ptr<SelectivityModel> BuildModel(const std::string& kind,
                                             int dim, size_t n) {
  if (kind.rfind("arrangement", 0) == 0) {
    ArrangementOptions o;
    if (kind == "arrangement:discrete") {
      o.mode = ArrangementOptions::Mode::kDiscrete;
    }
    return std::make_unique<ArrangementLearner>(dim, o);
  }
  return BuildOrDie(kind, dim, n);
}

// The arrangement grid has O((2n)^d) cells, so that learner trains on a
// 12-query prefix; every other model trains on the whole workload.
Workload TrainingSetFor(const std::string& kind, const Workload& train) {
  if (kind.rfind("arrangement", 0) != 0) return train;
  return Workload(train.begin(),
                  train.begin() + std::min<size_t>(12, train.size()));
}

// The paper's invariants hold for every distribution-backed model on
// the one path that serves, in every dimension checked here.
const int kInvariantDims[] = {1, 2, 3};

TEST(IntegrationTest, EveryModelBeatsTheMeanPredictor) {
  Pipeline p;
  const Workload train = p.Make(150, 501);
  const Workload test = p.Make(120, 502);
  MeanPredictor mean;
  ASSERT_TRUE(mean.Train(train).ok());
  const double mean_rms = EvaluateModel(mean, test).rms;
  for (const char* kind : {"quadhist", "ptshist", "quicksel",
                            "isomer"}) {
    auto model = BuildOrDie(kind, 2, train.size());
    ASSERT_TRUE(model->Train(train).ok()) << kind;
    EXPECT_LT(EvaluateModel(*model, test).rms, mean_rms)
        << kind;
  }
}

TEST(IntegrationTest, ErrorDecreasesWithTrainingSizeAllModels) {
  Pipeline p;
  const Workload test = p.Make(150, 503);
  for (const char* kind : {"quadhist", "ptshist", "quicksel"}) {
    auto small = BuildOrDie(kind, 2, 25);
    ASSERT_TRUE(small->Train(p.Make(25, 504)).ok());
    auto large = BuildOrDie(kind, 2, 250);
    ASSERT_TRUE(large->Train(p.Make(250, 505)).ok());
    EXPECT_LT(EvaluateModel(*large, test).rms,
              EvaluateModel(*small, test).rms + 1e-6)
        << kind;
  }
}

TEST(IntegrationTest, MonotoneUnderBoxNesting) {
  // §4 "Methods Compared": distribution-backed estimators are monotone —
  // a containing box can never have smaller estimated selectivity.
  for (int d : kInvariantDims) {
    Pipeline p(500, d);
    const Workload train = p.Make(150, 506);
    Rng rng(505 + d);
    for (const char* kind : {"quadhist", "ptshist", "quicksel", "isomer",
                             "arrangement", "arrangement:discrete"}) {
      auto model = BuildModel(kind, d, train.size());
      ASSERT_TRUE(model->Train(TrainingSetFor(kind, train)).ok())
          << kind << " d=" << d;
      for (int t = 0; t < 40; ++t) {
        Point c(d), w_in(d), w_out(d);
        for (int j = 0; j < d; ++j) c[j] = rng.NextDouble();
        for (int j = 0; j < d; ++j) w_in[j] = rng.Uniform(0.05, 0.4);
        for (int j = 0; j < d; ++j) {
          w_out[j] = w_in[j] + rng.Uniform(0.0, 0.4);
        }
        const Box inner = Box::FromCenterAndWidths(c, w_in, Box::Unit(d));
        const Box outer = Box::FromCenterAndWidths(c, w_out, Box::Unit(d));
        EXPECT_LE(model->Estimate(inner), model->Estimate(outer) + 1e-9)
            << kind << " d=" << d;
      }
    }
  }
}

TEST(IntegrationTest, ConsistentAdditivityOverDisjointSplits) {
  // Histogram estimates are finitely additive: splitting a box into two
  // disjoint halves sums back (another §4 consistency property). Point
  // buckets add up only up to boundary mass, so the box-bucket models
  // are checked.
  for (int d : kInvariantDims) {
    Pipeline p(500, d);
    const Workload train = p.Make(150, 508);
    Rng rng(507 + d);
    for (const char* kind : {"quadhist", "quicksel", "isomer",
                             "arrangement"}) {
      auto model = BuildModel(kind, d, train.size());
      ASSERT_TRUE(model->Train(TrainingSetFor(kind, train)).ok())
          << kind << " d=" << d;
      for (int t = 0; t < 30; ++t) {
        Point lo(d), hi(d);
        for (int j = 0; j < d; ++j) lo[j] = rng.Uniform(0.0, 0.5);
        for (int j = 0; j < d; ++j) hi[j] = lo[j] + rng.Uniform(0.1, 0.45);
        const double mid = 0.5 * (lo[0] + hi[0]);
        Point left_hi = hi, right_lo = lo;
        left_hi[0] = mid;
        right_lo[0] = mid;
        const Box whole(lo, hi);
        const Box left(lo, left_hi);
        const Box right(right_lo, hi);
        EXPECT_NEAR(model->Estimate(left) + model->Estimate(right),
                    model->Estimate(whole), 1e-6)
            << kind << " d=" << d;
      }
    }
  }
}

TEST(IntegrationTest, RandomWorkloadStillLearnable) {
  // §4.2: learnability holds for query distributions independent of the
  // data distribution.
  Pipeline p;
  const Workload train =
      p.Make(250, 510, QueryType::kBox, CenterDistribution::kRandom);
  const Workload test =
      p.Make(150, 511, QueryType::kBox, CenterDistribution::kRandom);
  auto model = BuildOrDie("quadhist", 2, train.size());
  ASSERT_TRUE(model->Train(train).ok());
  EXPECT_LT(EvaluateModel(*model, test).rms, 0.05);
}

TEST(IntegrationTest, CrossWorkloadGeneralizationDegradesGracefully) {
  // §4.3: mismatched train/test distributions lose accuracy but not
  // catastrophically when coverage overlaps.
  Pipeline p;
  const Workload train_dd = p.Make(250, 512);
  const Workload test_gauss = p.Make(150, 513, QueryType::kBox,
                                     CenterDistribution::kGaussian);
  auto model = BuildOrDie("quadhist", 2, train_dd.size());
  ASSERT_TRUE(model->Train(train_dd).ok());
  EXPECT_LT(EvaluateModel(*model, test_gauss).rms, 0.12);
}

TEST(IntegrationTest, AllQueryTypesLearnableWithPtsHist) {
  // Theorem 2.1 instantiated for all three §2.2 range spaces.
  const Dataset data = MakeForestLike(5000, 514).Project({0, 1, 2});
  const CountingKdTree index(data.rows());
  for (QueryType qt :
       {QueryType::kBox, QueryType::kBall, QueryType::kHalfspace}) {
    WorkloadOptions opts;
    opts.query_type = qt;
    opts.seed = 515 + static_cast<int>(qt);
    WorkloadGenerator gen(&data, &index, opts);
    const Workload train = gen.Generate(250);
    const Workload test = gen.Generate(120);
    auto model = BuildOrDie("ptshist", 3, train.size());
    ASSERT_TRUE(model->Train(train).ok());
    MeanPredictor mean;
    ASSERT_TRUE(mean.Train(train).ok());
    EXPECT_LT(EvaluateModel(*model, test).rms,
              EvaluateModel(mean, test).rms)
        << QueryTypeName(qt);
  }
}

TEST(IntegrationTest, NoisyLabelsStillTrainable) {
  // The agnostic model (§2.1 Remark) does not assume labels come from a
  // true distribution; inject label noise and verify graceful behavior.
  Pipeline p;
  Workload train = p.Make(200, 516);
  Rng rng(517);
  for (auto& z : train) {
    z.selectivity = std::clamp(
        z.selectivity + rng.Uniform(-0.05, 0.05), 0.0, 1.0);
  }
  const Workload test = p.Make(120, 518);
  auto model = BuildOrDie("quadhist", 2, train.size());
  ASSERT_TRUE(model->Train(train).ok());
  // Noise level 0.05/sqrt(3) bounds achievable rms; allow ~2x.
  EXPECT_LT(EvaluateModel(*model, test).rms, 0.07);
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  auto run_once = [] {
    Pipeline p(600);
    const Workload train = p.Make(80, 601);
    const Workload test = p.Make(40, 602);
    auto model = BuildOrDie("ptshist", 2, train.size());
    SEL_CHECK(model->Train(train).ok());
    std::vector<double> est;
    for (const auto& z : test) est.push_back(model->Estimate(z.query));
    return est;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(IntegrationTest, ArrangementLearnerHasLowestTrainingLoss) {
  // Lemma 3.1: the arrangement learner's training loss lower-bounds the
  // other histogram-style learners on the same (box) workload.
  Pipeline p;
  const Workload train = p.Make(12, 519);
  ArrangementLearner arr(2, ArrangementOptions{});
  ASSERT_TRUE(arr.Train(train).ok());
  auto train_loss = [&train](const SelectivityModel& m) {
    double loss = 0.0;
    for (const auto& z : train) {
      const double d = m.Estimate(z.query) - z.selectivity;
      loss += d * d;
    }
    return loss / static_cast<double>(train.size());
  };
  const double arr_loss = train_loss(arr);
  for (const char* kind : {"quadhist", "quicksel"}) {
    auto model = BuildOrDie(kind, 2, train.size());
    ASSERT_TRUE(model->Train(train).ok());
    EXPECT_LE(arr_loss, train_loss(*model) + 1e-6) << kind;
  }
}

TEST(IntegrationTest, CategoricalPipelineEndToEnd) {
  // Census-like categorical + numeric projection through the whole stack.
  const Dataset data = MakeCensusLike(8000, 520).Project({0, 8});
  const CountingKdTree index(data.rows());
  WorkloadOptions opts;
  opts.seed = 521;
  WorkloadGenerator gen(&data, &index, opts);
  const Workload train = gen.Generate(200);
  const Workload test = gen.Generate(120);
  for (const char* kind : {"quadhist", "ptshist"}) {
    auto model = BuildOrDie(kind, 2, train.size());
    ASSERT_TRUE(model->Train(train).ok()) << kind;
    EXPECT_LT(EvaluateModel(*model, test).rms, 0.1) << kind;
  }
}

TEST(IntegrationTest, EstimateFullAndEmptyExtremes) {
  for (int d : kInvariantDims) {
    Pipeline p(500, d);
    const Workload train = p.Make(100, 522);
    for (const char* kind : {"quadhist", "ptshist", "quicksel", "isomer",
                             "arrangement", "arrangement:discrete"}) {
      auto model = BuildModel(kind, d, train.size());
      ASSERT_TRUE(model->Train(TrainingSetFor(kind, train)).ok())
          << kind << " d=" << d;
      EXPECT_NEAR(model->Estimate(Box::Unit(d)), 1.0, 1e-5)
          << kind << " d=" << d;
      const Box empty(Point(d, 0.999), Point(d, 1.0));
      EXPECT_LE(model->Estimate(empty), 0.2) << kind << " d=" << d;
    }
  }
}

}  // namespace
}  // namespace sel
