// PlanModel: the SelectivityModel adapter over a CompiledPlan, so a
// serialized plan boots through the ordinary registry/loader machinery
// and serves without any training-time structure in memory. This is the
// one serve/ file that sits above core/ (it IS an estimator); the IR in
// compiled_plan.h keeps the clean geometry/common-only layering.
#ifndef SEL_PLAN_MODEL_H_
#define SEL_PLAN_MODEL_H_

#include <memory>
#include <string>

#include "core/model.h"
#include "serve/compiled_plan.h"

namespace sel {

/// An immutable estimator that executes a CompiledPlan. Registry name
/// "plan"; built by deserializing a compiled model (selcli compile) or
/// wrapping any Compile() result.
class PlanModel : public SelectivityModel {
 public:
  /// Wraps a lowering result; a failed lowering is returned as is.
  static Result<std::unique_ptr<PlanModel>> Create(Result<CompiledPlan> plan);

  /// Plans are serving artifacts: retraining requires recompiling from a
  /// trained estimator. Always fails.
  Status Train(const Workload& workload) override;

  size_t NumBuckets() const override { return shared_plan()->size(); }
  std::string Name() const override { return "CompiledPlan"; }
  std::string RegistryName() const override { return "plan"; }

  /// Already compiled: returns a copy of the wrapped plan.
  Result<CompiledPlan> Compile() const override { return *shared_plan(); }

 private:
  explicit PlanModel(CompiledPlan plan);
};

}  // namespace sel

#endif  // SEL_PLAN_MODEL_H_
