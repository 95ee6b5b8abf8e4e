// Shared experiment plumbing for the bench binaries: train-and-score
// helpers and REPRO_SCALE-aware sweep sizing. Models are built from
// EstimatorRegistry spec strings (see core/estimator_registry.h), which
// encode the paper's conventions (bucket budget 4x the training size,
// §4.1) as defaults.
#ifndef SEL_EVAL_EXPERIMENT_H_
#define SEL_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/estimator_registry.h"
#include "core/model.h"
#include "eval_metrics/metrics.h"

namespace sel {

/// One scored experiment cell.
struct EvalCell {
  std::string model;
  size_t train_size = 0;
  size_t buckets = 0;
  double train_seconds = 0.0;
  double eval_seconds = 0.0;   ///< wall-clock of the batched test scoring
  double train_loss = 0.0;
  double p95_predict_us = 0.0; ///< 95th-pct per-query predict latency (µs)
  int solver_iterations = 0;   ///< TrainStats::solver_iterations of the run
  int fallback_level = 0;      ///< TrainStats::fallback_level of the run
  bool converged = true;       ///< accepted solve met its criterion
  std::string solver_status;   ///< per-stage solver trail (TrainStats)
  std::string serve_path = "virtual";  ///< "plan" iff scored via CompiledPlan
  ErrorReport errors;
  bool ok = false;             ///< false if training failed
  std::string status_message;  ///< error detail when !ok
};

/// Trains `model` on `train` and scores it on `test`.
EvalCell TrainAndEvaluate(SelectivityModel* model, const Workload& train,
                          const Workload& test, double q_floor = 1e-9);

/// The paper runs ISOMER only while it finishes in reasonable time
/// (§4.1: it could not finish 500 training queries in 30 minutes).
bool IsomerFeasible(size_t train_size);

/// Multiplies each size by REPRO_SCALE, rounding and clamping to >= min.
std::vector<size_t> ScaledSizes(const std::vector<size_t>& base,
                                size_t min_size = 25);

/// Scales one count by REPRO_SCALE with a floor.
size_t ScaledCount(size_t base, size_t min_size = 1000);

}  // namespace sel

#endif  // SEL_EVAL_EXPERIMENT_H_
