#include "solver/qp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/trace.h"
#include "solver/nnls.h"
#include "solver/simplex_projection.h"

namespace sel {

namespace {

// Weight of the sum-to-one penalty row of the kNnls system.
constexpr double kNnlsSumPenalty = 1e3;

Result<SimplexLsqResult> SolveByProjectedGradient(
    const SparseMatrix& a, const Vector& s,
    const SimplexLsqOptions& options) {
  SEL_TRACE_SPAN("solver.qp.pg");
  SEL_METRIC_COUNTER_INC("solver.qp.pg.attempts");
  if (SEL_FAULT_POINT("qp.fail")) {
    return Status::Internal("injected fault: qp.fail");
  }
  // Injected limit: cut the budget to one step so the solve terminates
  // with a feasible-but-unconverged iterate, the state a pathological
  // batch would produce at the real cap.
  const int max_iterations = SEL_FAULT_POINT("qp.force_iteration_limit")
                                 ? std::min(1, options.max_iterations)
                                 : options.max_iterations;
  const int m = a.cols();
  // Already-expired deadline: short-circuit before the Lipschitz power
  // iteration and the first gradient step. The uniform start is on the
  // simplex, so "best iterate so far" is always feasible.
  if (DeadlineExpired()) {
    SimplexLsqResult out;
    out.w = Vector(m, 1.0 / m);
    out.loss = MeanSquaredResidual(a, out.w, s);
    out.iterations = 0;
    out.converged = false;
    out.termination = SolverTermination::kDeadlineExceeded;
    return out;
  }
  const SimdOps& ops = Simd();
  const double lip = EstimateLipschitz(a) + options.ridge;
  const double step = 1.0 / std::max(lip * 1.05, 1e-12);

  Vector w(m, 1.0 / m);
  Vector y = w;  // FISTA extrapolation point
  Vector w_prev(m);
  // Workspace: the residual, the gradient and the projection's order
  // live for the whole solve, so no iteration allocates.
  Vector r(static_cast<size_t>(a.rows()));
  Vector g(m);
  SimplexProjector projector;
  double t = 1.0;
  double last_check_obj = std::numeric_limits<double>::infinity();
  bool converged = false;
  bool deadline_hit = false;
  int it = 0;
  for (; it < max_iterations; ++it) {
    // Cooperative cancellation: w is a projected (feasible) iterate at
    // every loop boundary, so stopping here returns a valid simplex
    // point — the degradation chain treats it like an iteration-limit
    // exit with a distinguishable termination reason.
    if (DeadlineExpired()) {
      deadline_hit = true;
      break;
    }
    // gradient at y: A^T (A y - s) + ridge * y
    a.ResidualGradient(y.data(), s.data(), r.data(), g.data());
    if (options.ridge > 0.0) {
      ops.axpy(options.ridge, y.data(), g.data(), static_cast<size_t>(m));
    }
    // w_prev takes the old iterate; the new one overwrites all of w.
    w_prev.swap(w);
    // w = y + (-step) * g, bit-identical to y[j] - step * g[j].
    ops.axpby_out(y.data(), -step, g.data(), w.data(),
                  static_cast<size_t>(m));
    projector.Project(w.data(), static_cast<size_t>(m));

    const double t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double beta = (t - 1.0) / t_next;
    ops.extrapolate(w.data(), w_prev.data(), beta, y.data(),
                    static_cast<size_t>(m));
    t = t_next;

    if ((it + 1) % 10 == 0) {
      a.ResidualGradient(w.data(), s.data(), r.data(), nullptr);
      const double obj = SquaredNorm(r) + options.ridge * SquaredNorm(w);
      if (obj <= last_check_obj &&
          last_check_obj - obj <
              options.tolerance * std::max(1.0, last_check_obj)) {
        ++it;
        converged = true;
        break;
      }
      if (obj > last_check_obj) {
        // FISTA momentum overshoot: restart the extrapolation.
        y = w;
        t = 1.0;
      }
      last_check_obj = std::min(last_check_obj, obj);
    }
  }
  SEL_METRIC_COUNTER_ADD("solver.qp.pg.iterations_total", it);

  SimplexLsqResult out;
  out.loss = MeanSquaredResidual(a, w, s);
  out.w = std::move(w);
  out.iterations = it;
  out.converged = converged;
  out.termination = converged     ? SolverTermination::kConverged
                    : deadline_hit ? SolverTermination::kDeadlineExceeded
                                   : SolverTermination::kIterationLimit;
  return out;
}

Result<SimplexLsqResult> SolveByNnls(const DenseMatrix& a, const Vector& s) {
  SEL_TRACE_SPAN("solver.qp.nnls");
  SEL_METRIC_COUNTER_INC("solver.qp.nnls.attempts");
  const int n = a.rows();
  const int m = a.cols();
  // Augment with a penalty row lambda * 1^T w = lambda.
  DenseMatrix aug(n + 1, m);
  Vector rhs(n + 1);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) aug.at(i, j) = a.at(i, j);
    rhs[i] = s[i];
  }
  for (int j = 0; j < m; ++j) aug.at(n, j) = kNnlsSumPenalty;
  rhs[n] = kNnlsSumPenalty;

  auto nnls = SolveNnls(aug, rhs);
  if (!nnls.ok()) return nnls.status();

  Vector w = std::move(nnls.value().x);
  double sum = 0.0;
  for (double x : w) sum += x;
  if (sum <= 0.0) {
    std::fill(w.begin(), w.end(), 1.0 / m);
  } else {
    for (auto& x : w) x /= sum;
  }
  SimplexLsqResult out;
  out.w = std::move(w);
  out.loss = MeanSquaredResidual(a, out.w, s);
  out.iterations = nnls.value().iterations;
  out.converged = nnls.value().converged;
  out.termination = nnls.value().termination;
  return out;
}

}  // namespace

double EstimateLipschitz(const SparseMatrix& a, int iterations) {
  const int n = a.cols();
  SEL_CHECK(n > 0);
  Vector v(n, 1.0 / std::sqrt(static_cast<double>(n)));
  double lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Vector av = a.Apply(v);
    Vector atav = a.ApplyTranspose(av);
    const double norm = std::sqrt(SquaredNorm(atav));
    if (norm < 1e-30) return 1.0;
    lambda = norm;
    for (int j = 0; j < n; ++j) v[j] = atav[j] / norm;
  }
  return lambda;
}

Result<SimplexLsqResult> SolveSimplexLeastSquares(
    const SparseMatrix& a, const Vector& s,
    const SimplexLsqOptions& options) {
  if (a.rows() != static_cast<int>(s.size())) {
    return Status::InvalidArgument(
        "SolveSimplexLeastSquares: rhs size does not match rows");
  }
  if (a.cols() == 0) {
    return Status::InvalidArgument(
        "SolveSimplexLeastSquares: no buckets (zero columns)");
  }
  if (options.method == SimplexLsqOptions::Method::kNnls) {
    // Lawson–Hanson needs dense column access: densify when affordable,
    // otherwise fall back to projected gradient (same optimum, Eq. 8 is
    // convex with a unique loss value).
    const size_t cells =
        static_cast<size_t>(a.rows() + 1) * static_cast<size_t>(a.cols());
    if (cells <= (4u << 20)) {
      return SolveByNnls(a.ToDense(), s);
    }
  }
  return SolveByProjectedGradient(a, s, options);
}

}  // namespace sel
