// Weight estimation (Eq. 8): minimize ||A w - s||^2 subject to w in the
// probability simplex. Two interchangeable methods:
//
//  * kProjectedGradient — FISTA with exact simplex projection (default;
//    robust and fast for the bucket counts the experiments use).
//  * kNnls — the paper's route: Lawson–Hanson NNLS on the system
//    augmented with a penalized sum-to-one row, then renormalization.
#ifndef SEL_SOLVER_QP_H_
#define SEL_SOLVER_QP_H_

#include <limits>
#include <optional>

#include "common/status.h"
#include "solver/dense.h"
#include "solver/sparse.h"
#include "solver/termination.h"

namespace sel {

/// Options for SolveSimplexLeastSquares.
struct SimplexLsqOptions {
  enum class Method { kProjectedGradient, kNnls };

  Method method = Method::kProjectedGradient;

  /// FISTA iteration cap.
  int max_iterations = 3000;

  /// Stop when the relative objective improvement over 10 iterations
  /// falls below this.
  double tolerance = 1e-12;

  /// Optional Tikhonov term mu * ||w||^2 added to the objective
  /// (QuickSel's preference for flat kernel mixtures).
  double ridge = 0.0;

  /// Weight of the sum-to-one penalty row in kNnls mode.
  double nnls_sum_penalty = 1e3;
};

/// FISTA's state at an iteration-limit exit of the projected-gradient
/// method: everything the next iteration reads. A solve under a larger
/// budget can continue from it instead of replaying those iterations.
struct FistaState {
  Vector w;               ///< Projected iterate.
  Vector y;               ///< Extrapolation point.
  double t = 1.0;         ///< Momentum parameter.
  /// Lowest objective seen at a 10-iteration check.
  double last_check_obj = std::numeric_limits<double>::infinity();
  int iterations = 0;     ///< Iterations run to reach this state.
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
  /// Set iff projected gradient stopped at its iteration cap.
  std::optional<FistaState> resume;
};

/// Solves Eq. (8). `a` is n x m (training queries x buckets); `s` holds
/// the observed selectivities.
Result<SimplexLsqResult> SolveSimplexLeastSquares(
    const DenseMatrix& a, const Vector& s,
    const SimplexLsqOptions& options = {});

/// Sparse overload: models assemble the fraction matrix of Eq. (8) in CSR
/// form (most buckets miss most ranges). kNnls mode densifies when small
/// enough and otherwise falls back to projected gradient.
///
/// `resume`, when not null, is the `resume` state of an earlier solve of
/// the same `a`, `s` and options, apart from a smaller or equal
/// max_iterations. Projected gradient then continues from it instead of
/// replaying the iterations it already ran, and returns the same bits in
/// every field as a solve without it. A state past the budget is ignored.
Result<SimplexLsqResult> SolveSimplexLeastSquares(
    const SparseMatrix& a, const Vector& s,
    const SimplexLsqOptions& options = {},
    const FistaState* resume = nullptr);

/// Estimates the largest eigenvalue of A^T A (the Lipschitz constant of
/// the least-squares gradient) by power iteration. Exposed for tests.
double EstimateLipschitz(const DenseMatrix& a, int iterations = 50);

/// Sparse overload of EstimateLipschitz.
double EstimateLipschitz(const SparseMatrix& a, int iterations = 50);

}  // namespace sel

#endif  // SEL_SOLVER_QP_H_
