// Weight estimation (Eq. 8): minimize ||A w - s||^2 subject to w in the
// probability simplex. Two interchangeable methods:
//
//  * kProjectedGradient — FISTA with exact simplex projection (default;
//    robust and fast for the bucket counts the experiments use).
//  * kNnls — the paper's route: Lawson–Hanson NNLS on the system
//    augmented with a penalized sum-to-one row, then renormalization.
#ifndef SEL_SOLVER_QP_H_
#define SEL_SOLVER_QP_H_

#include "common/status.h"
#include "solver/sparse.h"
#include "solver/termination.h"

namespace sel {

/// Options for SolveSimplexLeastSquares.
struct SimplexLsqOptions {
  enum class Method { kProjectedGradient, kNnls };

  Method method = Method::kProjectedGradient;

  /// FISTA iteration cap.
  int max_iterations = 12000;

  /// Stop when the relative objective improvement over 10 iterations
  /// falls below this.
  double tolerance = 1e-12;

  /// Optional Tikhonov term mu * ||w||^2 added to the objective
  /// (QuickSel's preference for flat kernel mixtures).
  double ridge = 0.0;
};

/// Result of a simplex-constrained least-squares solve. `w` is a valid
/// simplex point even when `converged` is false (the best iterate at the
/// budget), so callers can decide whether a limit exit is good enough.
struct SimplexLsqResult {
  Vector w;          ///< Weights on the simplex.
  double loss;       ///< Mean squared residual (1/n)||A w - s||^2.
  int iterations;    ///< Iterations used by the chosen method.
  bool converged = true;  ///< False iff the iteration budget ran out.
  SolverTermination termination = SolverTermination::kConverged;
};

/// Solves Eq. (8). `a` is n x m (training queries x buckets) in CSR form,
/// since most buckets miss most ranges; `s` holds the observed
/// selectivities. kNnls mode densifies when small enough and otherwise
/// falls back to projected gradient.
Result<SimplexLsqResult> SolveSimplexLeastSquares(
    const SparseMatrix& a, const Vector& s,
    const SimplexLsqOptions& options = {});

/// Estimates the largest eigenvalue of A^T A (the Lipschitz constant of
/// the least-squares gradient) by power iteration. Exposed for tests.
double EstimateLipschitz(const SparseMatrix& a, int iterations = 50);

}  // namespace sel

#endif  // SEL_SOLVER_QP_H_
