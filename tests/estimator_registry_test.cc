// Tests for the estimator registry: spec parsing (round-trips and
// error paths), building/training every registered estimator, save
// capability reporting, and registration invariants.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sel/sel.h"

namespace sel {
namespace {

TEST(EstimatorSpecTest, ParsesBareName) {
  auto spec = EstimatorSpec::Parse("quadhist");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().name, "quadhist");
  EXPECT_FALSE(spec.value().budget_set);
  EXPECT_FALSE(spec.value().seed_set);
  EXPECT_EQ(spec.value().objective, TrainObjective::kL2);
  EXPECT_TRUE(spec.value().extras.empty());
  EXPECT_EQ(spec.value().ToString(), "quadhist");
}

TEST(EstimatorSpecTest, ParsesUniversalAndExtraKeys) {
  auto spec = EstimatorSpec::Parse(
      "quadhist:tau=0.002,budget=4x,objective=linf,seed=7");
  ASSERT_TRUE(spec.ok());
  const EstimatorSpec& s = spec.value();
  EXPECT_EQ(s.name, "quadhist");
  EXPECT_TRUE(s.budget_set);
  EXPECT_EQ(s.budget_mode, EstimatorSpec::BudgetMode::kMultiplier);
  EXPECT_DOUBLE_EQ(s.budget_multiplier, 4.0);
  EXPECT_EQ(s.objective, TrainObjective::kLinf);
  EXPECT_TRUE(s.seed_set);
  EXPECT_EQ(s.seed, 7u);
  ASSERT_EQ(s.extras.size(), 1u);
  EXPECT_EQ(s.extras[0].first, "tau");
  EXPECT_EQ(s.extras[0].second, "0.002");
}

TEST(EstimatorSpecTest, BudgetModes) {
  auto mult = EstimatorSpec::Parse("ptshist:budget=2.5x");
  ASSERT_TRUE(mult.ok());
  EXPECT_EQ(mult.value().ResolveBudget(100), 250u);
  auto abs = EstimatorSpec::Parse("ptshist:budget=800");
  ASSERT_TRUE(abs.ok());
  EXPECT_EQ(abs.value().ResolveBudget(100), 800u);
  auto none = EstimatorSpec::Parse("quadhist:budget=none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().ResolveBudget(100), 0u);
  // The paper's §4.1 convention is the default even when unspecified.
  auto bare = EstimatorSpec::Parse("ptshist");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().ResolveBudget(50), 200u);
}

TEST(EstimatorSpecTest, ToStringRoundTrips) {
  for (const char* spec_string :
       {"quadhist", "quadhist:budget=2x", "ptshist:budget=640,seed=9",
        "quadhist:budget=none,objective=linf",
        "quadhist:objective=linf,tau=0.01,solver=nnls"}) {
    auto first = EstimatorSpec::Parse(spec_string);
    ASSERT_TRUE(first.ok()) << spec_string;
    auto second = EstimatorSpec::Parse(first.value().ToString());
    ASSERT_TRUE(second.ok()) << first.value().ToString();
    EXPECT_EQ(second.value().ToString(), first.value().ToString());
    EXPECT_EQ(second.value().name, first.value().name);
    EXPECT_EQ(second.value().budget_set, first.value().budget_set);
    EXPECT_EQ(second.value().budget_mode, first.value().budget_mode);
    EXPECT_EQ(second.value().objective, first.value().objective);
    EXPECT_EQ(second.value().seed, first.value().seed);
    EXPECT_EQ(second.value().extras, first.value().extras);
  }
}

TEST(EstimatorSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(EstimatorSpec::Parse("").ok());
  EXPECT_FALSE(EstimatorSpec::Parse(":tau=1").ok());
  EXPECT_FALSE(EstimatorSpec::Parse("quadhist:tau").ok());
  EXPECT_FALSE(EstimatorSpec::Parse("quadhist:tau=").ok());
  EXPECT_FALSE(EstimatorSpec::Parse("quadhist:=1").ok());
  EXPECT_FALSE(EstimatorSpec::Parse("quadhist:tau=1,tau=2").ok());
  EXPECT_FALSE(EstimatorSpec::Parse("quadhist:budget=0").ok());
  EXPECT_FALSE(EstimatorSpec::Parse("quadhist:budget=-2x").ok());
  EXPECT_FALSE(EstimatorSpec::Parse("quadhist:budget=abc").ok());
  EXPECT_FALSE(EstimatorSpec::Parse("quadhist:objective=l3").ok());
  EXPECT_FALSE(EstimatorSpec::Parse("quadhist:seed=-1").ok());
  const Status dup = EstimatorSpec::Parse("quadhist:tau=1,tau=2").status();
  EXPECT_NE(dup.ToString().find("duplicate option 'tau'"),
            std::string::npos);
}

TEST(EstimatorRegistryTest, UnknownNameListsRegisteredEstimators) {
  auto built = EstimatorRegistry::Build("nosuchmodel", 2, 50);
  ASSERT_FALSE(built.ok());
  const std::string msg = built.status().ToString();
  EXPECT_NE(msg.find("unknown estimator 'nosuchmodel'"), std::string::npos);
  for (const std::string& name : EstimatorRegistry::Global().Names()) {
    EXPECT_NE(msg.find(name), std::string::npos) << name;
  }
}

TEST(EstimatorRegistryTest, UnknownOptionIsAHardError) {
  auto built = EstimatorRegistry::Build("quadhist:bogus=1", 2, 50);
  ASSERT_FALSE(built.ok());
  const std::string msg = built.status().ToString();
  EXPECT_NE(msg.find("unknown option 'bogus'"), std::string::npos);
  EXPECT_NE(msg.find("tau"), std::string::npos);  // lists supported keys
}

TEST(EstimatorRegistryTest, BadOptionValueIsAHardError) {
  auto built = EstimatorRegistry::Build("quadhist:tau=abc", 2, 50);
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().ToString().find("bad value 'abc'"),
            std::string::npos);
}

TEST(EstimatorRegistryTest, ExpectedNamesAreRegistered) {
  const std::set<std::string> names = [] {
    const auto v = EstimatorRegistry::Global().Names();
    return std::set<std::string>(v.begin(), v.end());
  }();
  for (const char* required : {"quadhist", "ptshist", "quicksel", "isomer",
                               "gmm", "avi", "plan"}) {
    EXPECT_TRUE(names.count(required)) << required;
  }
  // The flat forms load as plans; their kind tags are load aliases in
  // model_io, not estimators.
  for (const char* alias : {"static", "staticpoints"}) {
    EXPECT_FALSE(names.count(alias)) << alias;
  }
}

TEST(EstimatorRegistryTest, BuildTrainEstimateEveryRegisteredName) {
  const Dataset data = MakePowerLike(3000, 1700).Project({0, 1});
  const CountingKdTree index(data.rows());
  WorkloadOptions opts;
  opts.seed = 1701;
  WorkloadGenerator gen(&data, &index, opts);
  const Workload train = gen.Generate(40);
  for (const std::string& name : EstimatorRegistry::Global().Names()) {
    auto built = EstimatorRegistry::Build(name, 2, train.size());
    ASSERT_TRUE(built.ok()) << name << ": " << built.status().ToString();
    SelectivityModel& model = *built.value();
    EXPECT_EQ(model.RegistryName(), name);
    EXPECT_EQ(model.Name(),
              EstimatorRegistry::Global().Find(name)->display_name);
    // Data-driven AVI and the immutable compiled-plan wrapper reject
    // workload training by contract; everything else must train.
    const Status trained = model.Train(train);
    if (name == "avi" || name == "plan") {
      EXPECT_FALSE(trained.ok()) << name;
    } else {
      ASSERT_TRUE(trained.ok()) << name << ": " << trained.ToString();
    }
    const double full = model.Estimate(Box::Unit(2));
    EXPECT_GE(full, 0.0) << name;
    EXPECT_LE(full, 1.0 + 1e-9) << name;
  }
}

TEST(EstimatorRegistryTest, SaveCapabilityMatchesHooks) {
  const EstimatorRegistry& reg = EstimatorRegistry::Global();
  for (const char* savable : {"quadhist", "ptshist", "gmm", "plan"}) {
    EXPECT_TRUE(reg.SupportsSave(savable)) << savable;
  }
  for (const char* transient : {"quicksel", "isomer", "avi"}) {
    EXPECT_FALSE(reg.SupportsSave(transient)) << transient;
  }
  EXPECT_FALSE(reg.SupportsSave("nosuchmodel"));
  for (const std::string& name : reg.SavableNames()) {
    EXPECT_TRUE(reg.SupportsSave(name)) << name;
  }
}

TEST(EstimatorRegistryDeathTest, DuplicateRegistrationAborts) {
  EXPECT_DEATH(
      {
        EstimatorRegistry::Entry entry;
        entry.build = [](int, size_t, const EstimatorSpec&)
            -> Result<std::unique_ptr<SelectivityModel>> {
          return Status::Unimplemented("never built");
        };
        EstimatorRegistry::Global().Register("quadhist", std::move(entry));
      },
      "duplicate estimator registration 'quadhist'");
}

}  // namespace
}  // namespace sel
