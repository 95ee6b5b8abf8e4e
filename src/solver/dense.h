// Minimal dense linear algebra shared by the solvers. Row-major storage,
// no expression templates — the problem sizes here (thousands of rows /
// columns) do not justify a heavier substrate. Mat-vec rows and norms
// run through the runtime-dispatched SIMD kernels (common/simd.h) with
// the fixed blocked-reduction order, so results are identical under
// every SEL_SIMD level.
#ifndef SEL_SOLVER_DENSE_H_
#define SEL_SOLVER_DENSE_H_

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/simd.h"

namespace sel {

using Vector = std::vector<double>;

/// Row-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols,
                                        fill) {
    SEL_CHECK(rows >= 0 && cols >= 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& at(int i, int j) {
    SEL_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i) * cols_ + j];
  }
  double at(int i, int j) const {
    SEL_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i) * cols_ + j];
  }

  const double* row(int i) const {
    return data_.data() + static_cast<size_t>(i) * cols_;
  }
  double* row(int i) { return data_.data() + static_cast<size_t>(i) * cols_; }

  /// y = A x (SIMD row dots, blocked-reduction order).
  Vector Apply(const Vector& x) const {
    SEL_CHECK(static_cast<int>(x.size()) == cols_);
    SEL_METRIC_COUNTER_INC("simd.kernel.dense_matvec");
    const SimdOps& ops = Simd();
    Vector y(rows_, 0.0);
    for (int i = 0; i < rows_; ++i) {
      y[i] = ops.dot(row(i), x.data(), static_cast<size_t>(cols_));
    }
    return y;
  }

  /// y = A^T x (SIMD row axpys; elementwise, so exact under any level).
  Vector ApplyTranspose(const Vector& x) const {
    SEL_CHECK(static_cast<int>(x.size()) == rows_);
    SEL_METRIC_COUNTER_INC("simd.kernel.dense_matvec");
    const SimdOps& ops = Simd();
    Vector y(cols_, 0.0);
    for (int i = 0; i < rows_; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      ops.axpy(xi, row(i), y.data(), static_cast<size_t>(cols_));
    }
    return y;
  }

  /// r = A x - b and, when `g` is not null, g = A^T r, in one pass over
  /// the rows. Same bits as Apply, then r_i - b_i, then ApplyTranspose:
  /// each r_i is the same row dot, and rows with r_i == 0 add nothing to g,
  /// in row order. `r` holds rows() values, `g` cols().
  void ResidualGradient(const double* x, const double* b, double* r,
                        double* g) const {
    SEL_METRIC_COUNTER_INC("simd.kernel.dense_matvec");
    const SimdOps& ops = Simd();
    const size_t n = static_cast<size_t>(cols_);
    if (g != nullptr) std::fill(g, g + n, 0.0);
    for (int i = 0; i < rows_; ++i) {
      const double ri = ops.dot(row(i), x, n) - b[i];
      r[i] = ri;
      if (g != nullptr && ri != 0.0) ops.axpy(ri, row(i), g, n);
    }
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// Squared Euclidean norm (SIMD blocked reduction).
inline double SquaredNorm(const Vector& v) {
  return Simd().squared_norm(v.data(), v.size());
}

/// Residual r = A x - b.
inline Vector Residual(const DenseMatrix& a, const Vector& x,
                       const Vector& b) {
  SEL_CHECK(static_cast<int>(x.size()) == a.cols());
  SEL_CHECK(static_cast<int>(b.size()) == a.rows());
  Vector r(b.size());
  a.ResidualGradient(x.data(), b.data(), r.data(), nullptr);
  return r;
}

/// Mean squared residual (the empirical loss of Eq. 8).
inline double MeanSquaredResidual(const DenseMatrix& a, const Vector& x,
                                  const Vector& b) {
  if (a.rows() == 0) return 0.0;
  return SquaredNorm(Residual(a, x, b)) / a.rows();
}

}  // namespace sel

#endif  // SEL_SOLVER_DENSE_H_
