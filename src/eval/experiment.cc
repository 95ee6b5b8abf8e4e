#include "eval/experiment.h"

#include <algorithm>
#include <cmath>

#include "common/env.h"
#include "common/timer.h"

namespace sel {

EvalCell TrainAndEvaluate(SelectivityModel* model, const Workload& train,
                          const Workload& test, double q_floor) {
  EvalCell cell;
  cell.model = model->Name();
  cell.train_size = train.size();
  const Status st = model->Train(train);
  if (!st.ok()) {
    cell.ok = false;
    cell.status_message = st.ToString();
    return cell;
  }
  cell.ok = true;
  cell.buckets = model->NumBuckets();
  cell.train_seconds = model->train_stats().train_seconds;
  cell.train_loss = model->train_stats().train_loss;
  cell.solver_iterations = model->train_stats().solver_iterations;
  cell.fallback_level = model->train_stats().fallback_level;
  cell.converged = model->train_stats().converged;
  cell.solver_status = model->train_stats().solver_status;
  cell.serve_path = model->shared_plan() != nullptr ? "plan" : "virtual";
  WallTimer eval_timer;
  std::vector<double> latencies_us;
  const std::vector<double> est = EstimateBatch(*model, test, &latencies_us);
  std::vector<double> truth;
  truth.reserve(test.size());
  for (const auto& z : test) truth.push_back(z.selectivity);
  cell.errors = ComputeErrors(est, truth, q_floor);
  cell.eval_seconds = eval_timer.Seconds();
  if (!latencies_us.empty()) {
    cell.p95_predict_us = Quantile(latencies_us, 0.95);
  }
  return cell;
}

bool IsomerFeasible(size_t train_size) { return train_size <= 200; }

std::vector<size_t> ScaledSizes(const std::vector<size_t>& base,
                                size_t min_size) {
  const double scale = ReproScale();
  std::vector<size_t> out;
  out.reserve(base.size());
  for (size_t b : base) {
    const size_t scaled = static_cast<size_t>(
        std::llround(static_cast<double>(b) * scale));
    out.push_back(std::max(scaled, min_size));
  }
  // Scaling can collapse adjacent sizes; deduplicate preserving order.
  std::vector<size_t> dedup;
  for (size_t s : out) {
    if (dedup.empty() || dedup.back() != s) dedup.push_back(s);
  }
  return dedup;
}

size_t ScaledCount(size_t base, size_t min_size) {
  const double scale = ReproScale();
  const size_t scaled =
      static_cast<size_t>(std::llround(static_cast<double>(base) * scale));
  return std::max(scaled, min_size);
}

}  // namespace sel
