#include "core/static_model.h"

#include "common/check.h"
#include "core/estimator_registry.h"
#include "core/model_io.h"

namespace sel {

StaticHistogram::StaticHistogram(std::vector<Box> buckets, Vector weights,
                                 VolumeOptions volume)
    : buckets_(std::move(buckets)), weights_(std::move(weights)),
      volume_(volume) {}

Result<std::unique_ptr<StaticHistogram>> StaticHistogram::Create(
    std::vector<Box> buckets, Vector weights, VolumeOptions volume) {
  std::unique_ptr<StaticHistogram> model(
      new StaticHistogram(std::move(buckets), std::move(weights), volume));
  SEL_RETURN_IF_ERROR(model->StorePlan());
  return model;
}

Status StaticHistogram::Train(const Workload&) {
  return Status::FailedPrecondition(
      "StaticHistogram is immutable; construct a fresh learner to retrain");
}

Result<CompiledPlan> StaticHistogram::Compile() const {
  return CompiledPlan::FromBoxBuckets(buckets_, weights_, volume_,
                                      RegistryName());
}

StaticPointModel::StaticPointModel(std::vector<Point> points, Vector weights)
    : points_(std::move(points)), weights_(std::move(weights)) {}

Result<std::unique_ptr<StaticPointModel>> StaticPointModel::Create(
    std::vector<Point> points, Vector weights) {
  std::unique_ptr<StaticPointModel> model(
      new StaticPointModel(std::move(points), std::move(weights)));
  SEL_RETURN_IF_ERROR(model->StorePlan());
  return model;
}

Status StaticPointModel::Train(const Workload&) {
  return Status::FailedPrecondition(
      "StaticPointModel is immutable; construct a fresh learner to retrain");
}

Result<CompiledPlan> StaticPointModel::Compile() const {
  return CompiledPlan::FromPointBuckets(points_, weights_, RegistryName());
}

namespace {

// The registry builds static models in their blind-prior form (the
// uniform distribution on [0,1]^d); real parameters arrive by loading a
// serialized model, where these entries' load hooks do the work.

Result<std::unique_ptr<SelectivityModel>> BuildStaticHistogram(
    int dim, size_t train_size, const EstimatorSpec& spec) {
  (void)train_size;
  SpecOptionReader reader(spec);
  const Status st = reader.Finish();
  if (!st.ok()) return st;
  auto model = StaticHistogram::Create({Box::Unit(dim)}, Vector{1.0});
  if (!model.ok()) return model.status();
  return std::unique_ptr<SelectivityModel>(std::move(model).value());
}

Result<std::unique_ptr<SelectivityModel>> BuildStaticPointModel(
    int dim, size_t train_size, const EstimatorSpec& spec) {
  (void)train_size;
  SpecOptionReader reader(spec);
  const Status st = reader.Finish();
  if (!st.ok()) return st;
  auto model = StaticPointModel::Create({Point(dim, 0.5)}, Vector{1.0});
  if (!model.ok()) return model.status();
  return std::unique_ptr<SelectivityModel>(std::move(model).value());
}

Status SaveStaticHistogram(const SelectivityModel& model,
                           std::ostream& out) {
  const auto* sh = dynamic_cast<const StaticHistogram*>(&model);
  if (sh == nullptr) {
    return Status::InvalidArgument(
        "save hook: model is not a StaticHistogram");
  }
  return WriteBoxModel(out, model.RegistryName(), sh->buckets(),
                       sh->weights());
}

Status SaveStaticPointModel(const SelectivityModel& model,
                            std::ostream& out) {
  const auto* sp = dynamic_cast<const StaticPointModel*>(&model);
  if (sp == nullptr) {
    return Status::InvalidArgument(
        "save hook: model is not a StaticPointModel");
  }
  return WritePointModel(out, model.RegistryName(), sp->points(),
                         sp->weights());
}

}  // namespace

SEL_REGISTER_ESTIMATOR(
    "static",
    .display_name = "StaticHistogram",
    .paper_section = "§3.1 (Eq. 6)",
    .options_summary = "(no options; uniform prior until loaded)",
    .build = BuildStaticHistogram,
    .save = SaveStaticHistogram,
    .load = LoadBoxModel)

SEL_REGISTER_ESTIMATOR(
    "staticpoints",
    .display_name = "StaticPointModel",
    .paper_section = "§3.1 (Eq. 7)",
    .options_summary = "(no options; uniform prior until loaded)",
    .build = BuildStaticPointModel,
    .save = SaveStaticPointModel,
    .load = LoadPointModel)

}  // namespace sel
