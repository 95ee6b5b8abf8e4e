// Dense two-phase simplex linear programming.
//
// Used for (a) the L∞ training objective of §4.6 — minimizing the maximum
// absolute residual over the simplex is an LP — and (b) linear-separability
// feasibility tests in the VC-dimension module (halfspaces shatter a point
// set iff every dichotomy is realizable, an LP feasibility question).
#ifndef SEL_SOLVER_LP_H_
#define SEL_SOLVER_LP_H_

#include <vector>

#include "common/status.h"
#include "solver/dense.h"

namespace sel {

/// Row sense of an LP constraint.
enum class ConstraintSense { kLessEqual, kEqual, kGreaterEqual };

/// A linear program: minimize c^T x subject to A x (sense) b, x >= 0.
struct LinearProgram {
  Vector objective;                       ///< c (size = #variables)
  DenseMatrix constraint_matrix;          ///< A
  Vector rhs;                             ///< b
  std::vector<ConstraintSense> senses;    ///< one per row
};

/// Solver outcome.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/// Result of an LP solve.
struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  Vector x;              ///< Primal solution (valid when kOptimal).
  double objective = 0;  ///< c^T x (valid when kOptimal).
  int iterations = 0;    ///< Total simplex pivots (both phases).
};

/// Options for the simplex method.
struct LpOptions {
  int max_iterations = 80000;  ///< Pivot cap across both phases.
  double tolerance = 1e-9;     ///< Feasibility/optimality tolerance.
};

/// Solves the LP with the two-phase primal simplex method (dense tableau,
/// Bland's anti-cycling rule once stalling is detected).
LpResult SolveLinearProgram(const LinearProgram& lp,
                            const LpOptions& options = {});

/// Minimizes max_i |(A w)_i - s_i| over the probability simplex — the L∞
/// analogue of Eq. (8) studied in §4.6. Returns the weight vector.
Result<Vector> SolveSimplexChebyshev(const DenseMatrix& a, const Vector& s,
                                     const LpOptions& options = {});

}  // namespace sel

#endif  // SEL_SOLVER_LP_H_
