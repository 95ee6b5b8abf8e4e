#include "core/model.h"

#include <cctype>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace sel {

std::string SelectivityModel::RegistryName() const {
  std::string name = Name();
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

Result<CompiledPlan> SelectivityModel::Compile() const {
  return Status::Unimplemented(Name() +
                               " is non-lowerable: no CompiledPlan form");
}

double SelectivityModel::Estimate(const Query& query) const {
  SEL_CHECK_MSG(plan_ != nullptr, "%s::Estimate before Train",
                Name().c_str());
  return plan_->EstimateOne(query);
}

Status SelectivityModel::StorePlan() {
  Result<CompiledPlan> plan = Compile();
  if (!plan.ok()) return plan.status();
  plan_ = std::make_shared<const CompiledPlan>(std::move(plan).value());
  return Status::OK();
}

Result<double> SelectivityModel::TryEstimate(const Query& query) const {
  const Status st = ValidateQuery(query);
  if (!st.ok()) {
    SEL_METRIC_COUNTER_INC("serve.invalid_query_total");
    return st;
  }
  return Estimate(query);
}

SparseMatrix BuildBoxFractionMatrix(const Workload& workload,
                                    const std::vector<Box>& buckets,
                                    const VolumeOptions& volume_options,
                                    double drop_tolerance) {
  SEL_TRACE_SPAN("train.assemble_matrix");
  SEL_METRIC_SCOPED_LATENCY("train.assemble_us");
  // Row-parallel: row i only touches rows[i], and QueryBoxFraction is
  // deterministic (exact or seeded QMC), so the matrix is identical for
  // any thread count.
  std::vector<std::vector<std::pair<int, double>>> rows(workload.size());
  if (SEL_FAULT_POINT("matrix.degenerate")) {
    // Injected degenerate assembly: every row empty (all-zero matrix),
    // the rank-deficient extreme a corrupt geometry batch produces.
    return SparseMatrix::FromRows(static_cast<int>(buckets.size()), rows);
  }
  ParallelFor(0, static_cast<int64_t>(workload.size()), 1, [&](int64_t i) {
    // Deadline-truncated assembly leaves the remaining rows empty — a
    // degraded but well-formed matrix the solver chain still handles
    // (an all-zero row just contributes a constant residual).
    if (DeadlineExpired()) return;
    const Query& q = workload[i].query;
    for (size_t j = 0; j < buckets.size(); ++j) {
      if (q.DisjointFromBox(buckets[j])) continue;
      const double f = QueryBoxFraction(q, buckets[j], volume_options);
      if (f > drop_tolerance) {
        rows[i].emplace_back(static_cast<int>(j), f);
      }
    }
  });
  return SparseMatrix::FromRows(static_cast<int>(buckets.size()), rows);
}

SparseMatrix BuildPointIndicatorMatrix(const Workload& workload,
                                       const std::vector<Point>& buckets) {
  SEL_TRACE_SPAN("train.assemble_matrix");
  SEL_METRIC_SCOPED_LATENCY("train.assemble_us");
  // Indicator rows are cheap; a coarser grain keeps scheduling overhead
  // below the per-row work without changing the (per-slot) output.
  std::vector<std::vector<std::pair<int, double>>> rows(workload.size());
  if (SEL_FAULT_POINT("matrix.degenerate")) {
    return SparseMatrix::FromRows(static_cast<int>(buckets.size()), rows);
  }
  ParallelFor(0, static_cast<int64_t>(workload.size()), 16, [&](int64_t i) {
    if (DeadlineExpired()) return;
    const Query& q = workload[i].query;
    for (size_t j = 0; j < buckets.size(); ++j) {
      if (q.Contains(buckets[j])) {
        rows[i].emplace_back(static_cast<int>(j), 1.0);
      }
    }
  });
  return SparseMatrix::FromRows(static_cast<int>(buckets.size()), rows);
}

Vector SelectivitiesOf(const Workload& workload) {
  Vector s;
  s.reserve(workload.size());
  for (const auto& z : workload) s.push_back(z.selectivity);
  return s;
}

namespace {

/// Escalation factor for the single same-solver retry after a
/// non-converged primary attempt.
constexpr int kRetryBudgetFactor = 4;

/// State threaded through the fallback chain: the best feasible iterate
/// seen so far (converged or not) and the running per-stage trail.
struct FallbackState {
  Vector best_w;
  double best_loss = std::numeric_limits<double>::infinity();
  int best_iterations = 0;
  bool best_converged = false;  ///< the best iterate's own attempt converged
  bool have_iterate = false;
  TrainStats* stats = nullptr;

  void Note(const char* stage, const std::string& outcome) {
    if (!stats->solver_status.empty()) stats->solver_status += ';';
    stats->solver_status += stage;
    stats->solver_status += ':';
    stats->solver_status += outcome;
  }

  /// Records one L2 attempt. True iff the attempt converged (the chain
  /// can stop at the current level). A converged iterate displaces a
  /// non-converged one at equal loss.
  bool Absorb(const char* stage, const Result<SimplexLsqResult>& res) {
    if (!res.ok()) {
      Note(stage, res.status().ToString());
      return false;
    }
    Note(stage, SolverTerminationName(res.value().termination));
    const bool better =
        !have_iterate || res.value().loss < best_loss ||
        (res.value().converged && !best_converged &&
         res.value().loss <= best_loss);
    if (better) {
      best_w = res.value().w;
      best_loss = res.value().loss;
      best_iterations = res.value().iterations;
      best_converged = res.value().converged;
      have_iterate = true;
    }
    return res.value().converged;
  }

  /// Finalizes `stats` and hands back the best iterate; `converged`
  /// reflects the attempt that produced it, not the last one run.
  Vector Accept(FallbackLevel level) {
    stats->fallback_level = static_cast<int>(level);
    stats->converged = best_converged;
    stats->train_loss = best_loss;
    stats->solver_iterations = best_iterations;
    return std::move(best_w);
  }
};

}  // namespace

namespace {

/// Counter name for each FallbackLevel the chain can accept at.
const char* FallbackLevelCounterName(int level) {
  switch (static_cast<FallbackLevel>(level)) {
    case FallbackLevel::kPrimary: return "solver.fallback.primary";
    case FallbackLevel::kL2Gradient: return "solver.fallback.l2grad";
    case FallbackLevel::kNnlsPolish: return "solver.fallback.nnls_polish";
    case FallbackLevel::kUniform: return "solver.fallback.uniform";
  }
  return "solver.fallback.unknown";
}

/// Mirrors the accepted solve's TrainStats into the metrics registry.
/// Dynamic instrument names, so this goes through the registry directly
/// instead of the (per-call-site cached) macros.
void RecordSolveMetrics(const TrainStats& stats) {
  if (!MetricsEnabled()) return;
  MetricsRegistry& m = MetricsRegistry::Global();
  m.GetCounter("solver.solves_total").Increment();
  m.GetCounter(FallbackLevelCounterName(stats.fallback_level)).Increment();
  if (stats.fallback_level > 0) {
    m.GetCounter("solver.fallback_total").Increment();
  }
  if (stats.solver_retries > 0) {
    m.GetCounter("solver.retries_total").Increment(stats.solver_retries);
  }
  if (!stats.converged) {
    m.GetCounter("solver.nonconverged_total").Increment();
  }
  m.GetHistogram("solver.iterations").Record(stats.solver_iterations);
}

Result<Vector> SolveBucketWeightsImpl(const SparseMatrix& a,
                                      const Vector& s,
                                      TrainObjective objective,
                                      const SimplexLsqOptions& qp_options,
                                      const LpOptions& lp_options,
                                      TrainStats* stats);

}  // namespace

Result<Vector> SolveBucketWeights(const SparseMatrix& a, const Vector& s,
                                  TrainObjective objective,
                                  const SimplexLsqOptions& qp_options,
                                  const LpOptions& lp_options,
                                  TrainStats* stats) {
  SEL_TRACE_SPAN("train.solve_weights");
  SEL_METRIC_SCOPED_LATENCY("train.solve_us");
  // One SEL_SOLVE_DEADLINE_MS budget spans the whole degradation chain:
  // once it expires, every remaining stage short-circuits at its entry
  // check and the chain settles on the best iterate collected so far
  // (uniform at worst) — a deadline is a fallback trigger, not an error.
  ScopedDeadline solve_scope(SolveDeadlineFromEnv());
  auto result =
      SolveBucketWeightsImpl(a, s, objective, qp_options, lp_options, stats);
  if (result.ok()) RecordSolveMetrics(*stats);
  return result;
}

namespace {

Result<Vector> SolveBucketWeightsImpl(const SparseMatrix& a,
                                      const Vector& s,
                                      TrainObjective objective,
                                      const SimplexLsqOptions& qp_options,
                                      const LpOptions& lp_options,
                                      TrainStats* stats) {
  SEL_CHECK(stats != nullptr);
  // Malformed inputs are programmer errors, not solver trouble: fail
  // before the degradation chain can mask them with uniform weights.
  if (a.rows() != static_cast<int>(s.size())) {
    return Status::InvalidArgument(
        "SolveBucketWeights: rhs size does not match rows");
  }
  if (a.cols() == 0) {
    return Status::InvalidArgument("SolveBucketWeights: no buckets");
  }

  stats->fallback_level = 0;
  stats->solver_retries = 0;
  stats->converged = true;
  stats->solver_status.clear();

  FallbackState fb;
  fb.stats = stats;
  const bool primary_is_pg =
      objective == TrainObjective::kL2 &&
      qp_options.method == SimplexLsqOptions::Method::kProjectedGradient;

  // ---- Level 0: the requested solver, with one escalated retry. ----
  if (objective == TrainObjective::kL2) {
    const char* stage = primary_is_pg ? "l2pg" : "l2nnls";
    if (fb.Absorb(stage, SolveSimplexLeastSquares(a, s, qp_options))) {
      return fb.Accept(FallbackLevel::kPrimary);
    }
    SimplexLsqOptions escalated = qp_options;
    escalated.max_iterations *= kRetryBudgetFactor;
    ++stats->solver_retries;
    if (fb.Absorb(stage, SolveSimplexLeastSquares(a, s, escalated))) {
      return fb.Accept(FallbackLevel::kPrimary);
    }
  } else {
    auto lp = SolveSimplexChebyshev(a.ToDense(), s, lp_options);
    if (lp.ok()) {
      fb.Note("linf", "optimal");
      stats->fallback_level = static_cast<int>(FallbackLevel::kPrimary);
      stats->converged = true;
      stats->train_loss = MeanSquaredResidual(a, lp.value(), s);
      stats->solver_iterations = 0;
      return std::move(lp.value());
    }
    fb.Note("linf", lp.status().ToString());
    // Only an iteration-limit exit can profit from a bigger budget;
    // infeasible/unbounded degrade immediately.
    if (lp.status().code() == StatusCode::kNotConverged) {
      LpOptions escalated = lp_options;
      escalated.max_iterations *= kRetryBudgetFactor;
      ++stats->solver_retries;
      auto retry = SolveSimplexChebyshev(a.ToDense(), s, escalated);
      if (retry.ok()) {
        fb.Note("linf", "optimal");
        stats->fallback_level = static_cast<int>(FallbackLevel::kPrimary);
        stats->converged = true;
        stats->train_loss = MeanSquaredResidual(a, retry.value(), s);
        stats->solver_iterations = 0;
        return std::move(retry.value());
      }
      fb.Note("linf", retry.status().ToString());
    }
  }

  // ---- Level 1: L2 projected gradient (skipped when it already ran as
  // the primary — repeating an identical failed solve buys nothing). ----
  if (!primary_is_pg) {
    SimplexLsqOptions pg = qp_options;
    pg.method = SimplexLsqOptions::Method::kProjectedGradient;
    if (fb.Absorb("l2pg", SolveSimplexLeastSquares(a, s, pg))) {
      return fb.Accept(FallbackLevel::kL2Gradient);
    }
  }

  // ---- Level 2: NNLS polish — an independent active-set solve whose
  // result competes with the best iterate collected so far. ----
  {
    SimplexLsqOptions nn = qp_options;
    nn.method = SimplexLsqOptions::Method::kNnls;
    fb.Absorb("nnls_polish", SolveSimplexLeastSquares(a, s, nn));
    if (fb.have_iterate) {
      return fb.Accept(FallbackLevel::kNnlsPolish);
    }
  }

  // ---- Level 3: uniform simplex weights, the floor. A query optimizer
  // must always get an answer; uniform weights are the blind prior. ----
  fb.Note("uniform", "floor");
  const int m = a.cols();
  Vector w(m, 1.0 / m);
  fb.best_loss = MeanSquaredResidual(a, w, s);
  fb.best_w = std::move(w);
  fb.best_iterations = 0;
  fb.best_converged = false;
  fb.have_iterate = true;
  return fb.Accept(FallbackLevel::kUniform);
}

}  // namespace

}  // namespace sel
