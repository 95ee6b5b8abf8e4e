// Error measures of §4: RMS error, Q-error quantiles, and L∞ error.
#ifndef SEL_EVAL_METRICS_METRICS_H_
#define SEL_EVAL_METRICS_METRICS_H_

#include <vector>

#include "core/model.h"
#include "workload/workload.h"

namespace sel {

/// Q-error of one prediction: max(est,true)/min(est,true), with both
/// clamped below by `floor` (an empty estimate against an empty truth is
/// a perfect 1). The paper computes Q-error on raw selectivities; the
/// floor corresponds to "less than one tuple" resolution.
double QError(double estimate, double truth, double floor = 1e-9);

/// Summary of a model's predictions against ground truth.
struct ErrorReport {
  double rms = 0.0;        ///< sqrt(mean (est - true)^2)
  double mae = 0.0;        ///< mean |est - true|
  double linf = 0.0;       ///< max |est - true|
  double q50 = 1.0;        ///< median Q-error
  double q95 = 1.0;        ///< 95th-percentile Q-error
  double q99 = 1.0;        ///< 99th-percentile Q-error
  double qmax = 1.0;       ///< max Q-error
  size_t num_queries = 0;
};

/// Computes all §4 error measures of `estimates` against `truths`.
ErrorReport ComputeErrors(const std::vector<double>& estimates,
                          const std::vector<double>& truths,
                          double q_floor = 1e-9);

/// Batched prediction: estimates[i] = model.Estimate(queries[i].query),
/// computed in parallel on the shared pool (Estimate is const and
/// side-effect free for every model in the library). Lowerable models
/// serve through the CompiledPlan their Train built (shared_plan());
/// gmm and avi estimate on their own. When the metrics registry is
/// enabled, per-query latencies land in the "predict.query_us" histogram
/// and the plan path feeds the serve.plan.* instruments.
std::vector<double> EstimateBatch(const SelectivityModel& model,
                                  const Workload& queries);

/// EstimateBatch that additionally reports each query's serving latency
/// in microseconds into `latencies_us` (slot per query, deterministic
/// ordering for any thread count). The bench sweeps use this for their
/// p95_predict_us column.
std::vector<double> EstimateBatch(const SelectivityModel& model,
                                  const Workload& queries,
                                  std::vector<double>* latencies_us);

/// Runs `model` on the test workload and scores it. `q_floor` defaults to
/// one-tuple resolution when the dataset size is supplied.
ErrorReport EvaluateModel(const SelectivityModel& model,
                          const Workload& test, double q_floor = 1e-9);

/// p-th quantile (p in [0,1]) of a sample by linear interpolation.
double Quantile(std::vector<double> values, double p);

}  // namespace sel

#endif  // SEL_EVAL_METRICS_METRICS_H_
