#include "solver/lp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace sel {

namespace {

// Dense simplex tableau. Rows 0..m-1 are constraints; row m is the
// objective (reduced costs, with the negated objective value in the rhs
// cell). Column layout: structural | slack/surplus | artificial | rhs.
class Tableau {
 public:
  Tableau(int rows, int cols)
      : rows_(rows), cols_(cols),
        t_(static_cast<size_t>(rows + 1) * (cols + 1), 0.0) {}

  double& at(int i, int j) {
    return t_[static_cast<size_t>(i) * (cols_ + 1) + j];
  }
  double at(int i, int j) const {
    return t_[static_cast<size_t>(i) * (cols_ + 1) + j];
  }
  double& rhs(int i) { return at(i, cols_); }
  double rhs(int i) const { return at(i, cols_); }
  double& obj(int j) { return at(rows_, j); }
  double obj(int j) const { return at(rows_, j); }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  // Gauss–Jordan pivot on (pr, pc).
  void Pivot(int pr, int pc) {
    const double p = at(pr, pc);
    const double inv = 1.0 / p;
    for (int j = 0; j <= cols_; ++j) at(pr, j) *= inv;
    at(pr, pc) = 1.0;
    for (int i = 0; i <= rows_; ++i) {
      if (i == pr) continue;
      const double f = at(i, pc);
      if (f == 0.0) continue;
      for (int j = 0; j <= cols_; ++j) at(i, j) -= f * at(pr, j);
      at(i, pc) = 0.0;
    }
  }

 private:
  int rows_;
  int cols_;
  std::vector<double> t_;
};

// Runs simplex iterations on the tableau until optimal / unbounded /
// iteration cap. `allowed` masks columns that may enter the basis.
// Returns kOptimal when no reduced cost is below -tol.
LpStatus RunSimplex(Tableau* t, std::vector<int>* basis,
                    const std::vector<bool>& allowed, double tol,
                    int max_iter, int* iterations) {
  const int m = t->rows();
  const int n = t->cols();
  int stall = 0;
  double last_obj = -t->rhs(m);
  for (int it = 0; it < max_iter; ++it) {
    // Cooperative cancellation between pivots: an iteration-limit exit
    // is already a fully-handled outcome for every caller, so a blown
    // deadline maps onto it (SolveSimplexChebyshev then reports
    // NotConverged and the degradation chain takes over).
    if (DeadlineExpired()) return LpStatus::kIterationLimit;
    ++*iterations;
    const bool bland = stall > 2 * (m + n);
    // Entering column: most negative reduced cost (or Bland: first).
    int pc = -1;
    double best = -tol;
    for (int j = 0; j < n; ++j) {
      if (!allowed[j]) continue;
      const double rc = t->obj(j);
      if (bland) {
        if (rc < -tol) {
          pc = j;
          break;
        }
      } else if (rc < best) {
        best = rc;
        pc = j;
      }
    }
    if (pc < 0) return LpStatus::kOptimal;

    // Ratio test (Bland tie-break on smallest basis index).
    int pr = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m; ++i) {
      const double aij = t->at(i, pc);
      if (aij > tol) {
        const double ratio = t->rhs(i) / aij;
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 && pr >= 0 &&
             (*basis)[i] < (*basis)[pr])) {
          best_ratio = ratio;
          pr = i;
        }
      }
    }
    if (pr < 0) return LpStatus::kUnbounded;

    t->Pivot(pr, pc);
    (*basis)[pr] = pc;

    const double obj = -t->rhs(m);
    if (obj >= last_obj - 1e-13) {
      ++stall;
    } else {
      stall = 0;
    }
    last_obj = obj;
  }
  return LpStatus::kIterationLimit;
}

}  // namespace

LpResult SolveLinearProgram(const LinearProgram& lp, const LpOptions& opts) {
  const int m = lp.constraint_matrix.rows();
  const int n = lp.constraint_matrix.cols();
  SEL_CHECK(static_cast<int>(lp.objective.size()) == n);
  SEL_CHECK(static_cast<int>(lp.rhs.size()) == m);
  SEL_CHECK(static_cast<int>(lp.senses.size()) == m);

  LpResult result;

  // Normalize rows to have nonnegative rhs, count slack/artificials.
  std::vector<double> row_sign(m, 1.0);
  std::vector<ConstraintSense> senses = lp.senses;
  for (int i = 0; i < m; ++i) {
    if (lp.rhs[i] < 0.0) {
      row_sign[i] = -1.0;
      if (senses[i] == ConstraintSense::kLessEqual) {
        senses[i] = ConstraintSense::kGreaterEqual;
      } else if (senses[i] == ConstraintSense::kGreaterEqual) {
        senses[i] = ConstraintSense::kLessEqual;
      }
    }
  }
  int num_slack = 0;
  int num_artificial = 0;
  for (int i = 0; i < m; ++i) {
    if (senses[i] != ConstraintSense::kEqual) ++num_slack;
    if (senses[i] != ConstraintSense::kLessEqual) ++num_artificial;
  }
  const int total = n + num_slack + num_artificial;

  Tableau t(m, total);
  std::vector<int> basis(m, -1);
  std::vector<bool> is_artificial(total, false);

  int slack_at = n;
  int art_at = n + num_slack;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      t.at(i, j) = row_sign[i] * lp.constraint_matrix.at(i, j);
    }
    t.rhs(i) = row_sign[i] * lp.rhs[i];
    switch (senses[i]) {
      case ConstraintSense::kLessEqual:
        t.at(i, slack_at) = 1.0;
        basis[i] = slack_at++;
        break;
      case ConstraintSense::kGreaterEqual:
        t.at(i, slack_at) = -1.0;  // surplus
        ++slack_at;
        t.at(i, art_at) = 1.0;
        is_artificial[art_at] = true;
        basis[i] = art_at++;
        break;
      case ConstraintSense::kEqual:
        t.at(i, art_at) = 1.0;
        is_artificial[art_at] = true;
        basis[i] = art_at++;
        break;
    }
  }

  // ---- Phase 1: minimize the sum of artificial variables. ----
  if (num_artificial > 0) {
    // Phase-1 cost: +1 on every artificial column, then express in
    // non-basic terms by subtracting each artificial-basic row.
    for (int j = 0; j < total; ++j) {
      if (is_artificial[j]) t.obj(j) = 1.0;
    }
    for (int i = 0; i < m; ++i) {
      if (!is_artificial[basis[i]]) continue;
      for (int j = 0; j <= total; ++j) {
        t.at(m, j) -= t.at(i, j);
      }
    }
    std::vector<bool> allowed(total, true);
    const LpStatus st = RunSimplex(&t, &basis, allowed, opts.tolerance,
                                   opts.max_iterations, &result.iterations);
    if (st == LpStatus::kIterationLimit) {
      result.status = st;
      return result;
    }
    const double phase1_obj = -t.rhs(m);
    if (phase1_obj > 1e-6) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
    // Drive any artificial still in the basis out (degenerate rows).
    for (int i = 0; i < m; ++i) {
      if (!is_artificial[basis[i]]) continue;
      int pc = -1;
      for (int j = 0; j < n + num_slack; ++j) {
        if (std::abs(t.at(i, j)) > opts.tolerance) {
          pc = j;
          break;
        }
      }
      if (pc >= 0) {
        t.Pivot(i, pc);
        basis[i] = pc;
      }
      // Otherwise the row is all-zero: redundant constraint; leave it.
    }
  }

  // ---- Phase 2: original objective. ----
  for (int j = 0; j <= total; ++j) t.at(m, j) = 0.0;
  for (int j = 0; j < n; ++j) t.obj(j) = lp.objective[j];
  // Express the objective in terms of non-basic variables.
  for (int i = 0; i < m; ++i) {
    const int bj = basis[i];
    if (bj < 0 || bj >= n) continue;
    const double c = lp.objective[bj];
    if (c == 0.0) continue;
    for (int j = 0; j <= total; ++j) t.at(m, j) -= c * t.at(i, j);
  }
  std::vector<bool> allowed(total, true);
  for (int j = 0; j < total; ++j) {
    if (is_artificial[j]) allowed[j] = false;
  }
  const LpStatus st = RunSimplex(&t, &basis, allowed, opts.tolerance,
                                 opts.max_iterations, &result.iterations);
  result.status = st;
  if (st != LpStatus::kOptimal) return result;

  result.x.assign(n, 0.0);
  for (int i = 0; i < m; ++i) {
    if (basis[i] >= 0 && basis[i] < n) result.x[basis[i]] = t.rhs(i);
  }
  result.objective = 0.0;
  for (int j = 0; j < n; ++j) result.objective += lp.objective[j] * result.x[j];
  return result;
}

Result<Vector> SolveSimplexChebyshev(const DenseMatrix& a, const Vector& s,
                                     const LpOptions& options) {
  const int n = a.rows();
  const int m = a.cols();
  if (static_cast<int>(s.size()) != n) {
    return Status::InvalidArgument("Chebyshev: rhs size mismatch");
  }
  if (m == 0) return Status::InvalidArgument("Chebyshev: zero columns");
  SEL_TRACE_SPAN("solver.lp");
  SEL_METRIC_COUNTER_INC("solver.lp.attempts");
  if (SEL_FAULT_POINT("lp.force_infeasible")) {
    return Status::FailedPrecondition(
        "Chebyshev LP reported infeasible (injected fault)");
  }
  if (SEL_FAULT_POINT("lp.force_iteration_limit")) {
    return Status::NotConverged(
        "Chebyshev LP hit the iteration limit (injected fault)");
  }
  // An already-blown deadline short-circuits before the O(n*m) tableau
  // build.
  if (DeadlineExpired()) {
    return Status::NotConverged("Chebyshev LP deadline expired before solve");
  }

  // Variables: w_1..w_m, t. Constraints:
  //   (A w)_i - t <= s_i         (n rows)
  //   (A w)_i + t >= s_i         (n rows)
  //   sum_j w_j = 1              (1 row)
  LinearProgram lp;
  const int vars = m + 1;
  lp.objective.assign(vars, 0.0);
  lp.objective[m] = 1.0;  // minimize t
  lp.constraint_matrix = DenseMatrix(2 * n + 1, vars);
  lp.rhs.assign(2 * n + 1, 0.0);
  lp.senses.assign(2 * n + 1, ConstraintSense::kLessEqual);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      lp.constraint_matrix.at(i, j) = a.at(i, j);
      lp.constraint_matrix.at(n + i, j) = a.at(i, j);
    }
    lp.constraint_matrix.at(i, m) = -1.0;
    lp.constraint_matrix.at(n + i, m) = 1.0;
    lp.rhs[i] = s[i];
    lp.rhs[n + i] = s[i];
    lp.senses[i] = ConstraintSense::kLessEqual;
    lp.senses[n + i] = ConstraintSense::kGreaterEqual;
  }
  for (int j = 0; j < m; ++j) {
    lp.constraint_matrix.at(2 * n, j) = 1.0;
  }
  lp.rhs[2 * n] = 1.0;
  lp.senses[2 * n] = ConstraintSense::kEqual;

  const LpResult res = SolveLinearProgram(lp, options);
  if (res.status == LpStatus::kInfeasible) {
    return Status::FailedPrecondition("Chebyshev LP reported infeasible");
  }
  if (res.status == LpStatus::kUnbounded) {
    return Status::Internal("Chebyshev LP reported unbounded");
  }
  if (res.status == LpStatus::kIterationLimit) {
    return Status::NotConverged("Chebyshev LP hit the iteration limit");
  }
  Vector w(res.x.begin(), res.x.begin() + m);
  return w;
}

}  // namespace sel
