#include "eval_metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"

namespace sel {

double QError(double estimate, double truth, double floor) {
  const double a = std::max(estimate, floor);
  const double b = std::max(truth, floor);
  return std::max(a, b) / std::min(a, b);
}

double Quantile(std::vector<double> values, double p) {
  SEL_CHECK(!values.empty());
  SEL_CHECK(p >= 0.0 && p <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

ErrorReport ComputeErrors(const std::vector<double>& estimates,
                          const std::vector<double>& truths,
                          double q_floor) {
  SEL_CHECK(estimates.size() == truths.size());
  ErrorReport r;
  r.num_queries = estimates.size();
  if (estimates.empty()) return r;

  double sq = 0.0, abs_sum = 0.0;
  std::vector<double> qerrs;
  qerrs.reserve(estimates.size());
  for (size_t i = 0; i < estimates.size(); ++i) {
    const double d = estimates[i] - truths[i];
    sq += d * d;
    abs_sum += std::abs(d);
    r.linf = std::max(r.linf, std::abs(d));
    qerrs.push_back(QError(estimates[i], truths[i], q_floor));
  }
  r.rms = std::sqrt(sq / static_cast<double>(estimates.size()));
  r.mae = abs_sum / static_cast<double>(estimates.size());
  r.q50 = Quantile(qerrs, 0.50);
  r.q95 = Quantile(qerrs, 0.95);
  r.q99 = Quantile(qerrs, 0.99);
  r.qmax = *std::max_element(qerrs.begin(), qerrs.end());
  return r;
}

std::vector<double> EstimateBatch(const SelectivityModel& model,
                                  const Workload& queries) {
  return EstimateBatch(model, queries, nullptr);
}

std::vector<double> EstimateBatch(const SelectivityModel& model,
                                  const Workload& queries,
                                  std::vector<double>* latencies_us) {
  SEL_TRACE_SPAN("predict.batch");
  SEL_METRIC_SCOPED_LATENCY("predict.batch_us");
  SEL_METRIC_COUNTER_ADD("predict.queries_total", queries.size());
  // Lowerable models serve through the plan their Train built, read
  // directly so the batch can collect pruning stats; non-lowerable ones
  // (gmm, avi) estimate on their own. The shared_ptr keeps the plan
  // alive for the whole batch.
  const std::shared_ptr<const CompiledPlan> plan = model.shared_plan();
  if (plan != nullptr) {
    SEL_METRIC_SCOPED_LATENCY("serve.plan.batch_us");
    SEL_METRIC_COUNTER_ADD("serve.plan.queries_total", queries.size());
  } else {
    SEL_METRIC_COUNTER_ADD("serve.plan.virtual_queries_total",
                           queries.size());
  }
  std::vector<double> est(queries.size());
  if (latencies_us != nullptr) latencies_us->assign(queries.size(), 0.0);
  // Per-query clocks run only when someone consumes them; the plain
  // batched path stays two clock calls total. Pruning stats live in
  // per-query slots so the accounting is race-free and deterministic.
  const bool time_queries = latencies_us != nullptr || MetricsEnabled();
  const bool track_pruning = plan != nullptr && MetricsEnabled();
  std::vector<PlanEvalStats> pruning(track_pruning ? queries.size() : 0);
  ParallelFor(0, static_cast<int64_t>(queries.size()), 4, [&](int64_t i) {
    PlanEvalStats* slot = track_pruning ? &pruning[i] : nullptr;
    if (time_queries) {
      WallTimer timer;
      est[i] = plan != nullptr ? plan->EstimateOne(queries[i].query, slot)
                               : model.Estimate(queries[i].query);
      const double us = timer.Seconds() * 1e6;
      if (latencies_us != nullptr) (*latencies_us)[i] = us;
      SEL_METRIC_HIST_RECORD("predict.query_us", us);
    } else {
      est[i] = plan != nullptr ? plan->EstimateOne(queries[i].query, slot)
                               : model.Estimate(queries[i].query);
    }
  });
  if (track_pruning) {
    PlanEvalStats total;
    for (const PlanEvalStats& s : pruning) {
      total.entries_total += s.entries_total;
      total.entries_visited += s.entries_visited;
    }
    SEL_METRIC_GAUGE_SET("serve.plan.prune_ratio_pct",
                         static_cast<int64_t>(100.0 * total.PruneRatio()));
  }
  return est;
}

ErrorReport EvaluateModel(const SelectivityModel& model,
                          const Workload& test, double q_floor) {
  const std::vector<double> est = EstimateBatch(model, test);
  std::vector<double> truth;
  truth.reserve(test.size());
  for (const auto& z : test) truth.push_back(z.selectivity);
  return ComputeErrors(est, truth, q_floor);
}

}  // namespace sel
