// CSR sparse matrix for the weight-estimation systems: most buckets do
// not intersect most training ranges, so the fraction matrix of Eq. (8)
// is sparse, and the projected-gradient solver only needs mat-vec.
// Storage is structure-of-arrays (int32 column run + value run per row)
// so the SIMD sparse-dot kernel can gather directly from the column
// indices; row dots use the fixed blocked-reduction order of
// common/simd.h and are therefore identical under every SEL_SIMD level.
#ifndef SEL_SOLVER_SPARSE_H_
#define SEL_SOLVER_SPARSE_H_

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "solver/dense.h"

namespace sel {

/// (row, col, value) entry used to assemble a SparseMatrix.
struct Triplet {
  int row;
  int col;
  double value;
};

/// Compressed-sparse-row matrix supporting Apply / ApplyTranspose.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from triplets (duplicates are summed). Triplets need not be
  /// sorted.
  static SparseMatrix FromTriplets(int rows, int cols,
                                   std::vector<Triplet> triplets);

  /// Builds row-by-row: `rows[i]` holds (col, value) pairs of row i.
  static SparseMatrix FromRows(
      int cols, const std::vector<std::vector<std::pair<int, double>>>& rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t nnz() const { return vals_.size(); }

  /// y = A x.
  Vector Apply(const Vector& x) const;

  /// y = A^T x.
  Vector ApplyTranspose(const Vector& x) const;

  /// r = A x - b and, when `g` is not null, g = A^T r, in one pass over
  /// the rows. Same bits as Apply, then r_i - b_i, then ApplyTranspose:
  /// each r_i is the same row dot, and rows with r_i == 0 scatter nothing
  /// into g, in row order. `r` holds rows() values, `g` cols().
  void ResidualGradient(const double* x, const double* b, double* r,
                        double* g) const;

  /// Dense copy (for tests and small NNLS fallback).
  DenseMatrix ToDense() const;

  /// Row i's entries, column-sorted: columns RowCols(i)[k] with values
  /// RowVals(i)[k] for k in [0, RowSize(i)).
  const int32_t* RowCols(int i) const { return cols_idx_.data() + row_ptr_[i]; }
  const double* RowVals(int i) const { return vals_.data() + row_ptr_[i]; }
  size_t RowSize(int i) const { return row_ptr_[i + 1] - row_ptr_[i]; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<size_t> row_ptr_;
  std::vector<int32_t> cols_idx_;
  std::vector<double> vals_;

  void Finalize(std::vector<Triplet> triplets);
};

inline SparseMatrix SparseMatrix::FromTriplets(int rows, int cols,
                                               std::vector<Triplet> t) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.Finalize(std::move(t));
  return m;
}

inline SparseMatrix SparseMatrix::FromRows(
    int cols, const std::vector<std::vector<std::pair<int, double>>>& rows) {
  std::vector<Triplet> t;
  size_t total = 0;
  for (const auto& r : rows) total += r.size();
  t.reserve(total);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const auto& [c, v] : rows[i]) {
      t.push_back(Triplet{static_cast<int>(i), c, v});
    }
  }
  return FromTriplets(static_cast<int>(rows.size()), cols, std::move(t));
}

inline void SparseMatrix::Finalize(std::vector<Triplet> triplets) {
  for (const auto& t : triplets) {
    SEL_CHECK(t.row >= 0 && t.row < rows_ && t.col >= 0 && t.col < cols_);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return std::tie(a.row, a.col) < std::tie(b.row, b.col);
            });
  row_ptr_.assign(rows_ + 1, 0);
  cols_idx_.clear();
  vals_.clear();
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    if (sum != 0.0) {
      cols_idx_.push_back(static_cast<int32_t>(triplets[i].col));
      vals_.push_back(sum);
      ++row_ptr_[triplets[i].row + 1];
    }
    i = j;
  }
  for (int i = 0; i < rows_; ++i) row_ptr_[i + 1] += row_ptr_[i];
}

inline Vector SparseMatrix::Apply(const Vector& x) const {
  SEL_CHECK(static_cast<int>(x.size()) == cols_);
  SEL_METRIC_COUNTER_INC("simd.kernel.sparse_matvec");
  const SimdOps& ops = Simd();
  Vector y(rows_, 0.0);
  for (int i = 0; i < rows_; ++i) {
    y[i] = ops.sparse_dot(RowCols(i), RowVals(i), RowSize(i), x.data());
  }
  return y;
}

inline Vector SparseMatrix::ApplyTranspose(const Vector& x) const {
  SEL_CHECK(static_cast<int>(x.size()) == rows_);
  Vector y(cols_, 0.0);
  for (int i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const int32_t* cols = RowCols(i);
    const double* vals = RowVals(i);
    const size_t n = RowSize(i);
    for (size_t k = 0; k < n; ++k) {
      y[cols[k]] += vals[k] * xi;
    }
  }
  return y;
}

inline void SparseMatrix::ResidualGradient(const double* x, const double* b,
                                           double* r, double* g) const {
  SEL_METRIC_COUNTER_INC("simd.kernel.sparse_matvec");
  const SimdOps& ops = Simd();
  if (g != nullptr) std::fill(g, g + cols_, 0.0);
  for (int i = 0; i < rows_; ++i) {
    const int32_t* cols = RowCols(i);
    const double* vals = RowVals(i);
    const size_t n = RowSize(i);
    const double ri = ops.sparse_dot(cols, vals, n, x) - b[i];
    r[i] = ri;
    if (g == nullptr || ri == 0.0) continue;
    for (size_t k = 0; k < n; ++k) {
      g[cols[k]] += vals[k] * ri;
    }
  }
}

inline DenseMatrix SparseMatrix::ToDense() const {
  DenseMatrix d(rows_, cols_);
  for (int i = 0; i < rows_; ++i) {
    const int32_t* cols = RowCols(i);
    const double* vals = RowVals(i);
    const size_t n = RowSize(i);
    for (size_t k = 0; k < n; ++k) {
      d.at(i, cols[k]) = vals[k];
    }
  }
  return d;
}

/// Residual r = A x - b for sparse A.
inline Vector Residual(const SparseMatrix& a, const Vector& x,
                       const Vector& b) {
  SEL_CHECK(static_cast<int>(x.size()) == a.cols());
  SEL_CHECK(static_cast<int>(b.size()) == a.rows());
  Vector r(b.size());
  a.ResidualGradient(x.data(), b.data(), r.data(), nullptr);
  return r;
}

/// Mean squared residual for sparse A.
inline double MeanSquaredResidual(const SparseMatrix& a, const Vector& x,
                                  const Vector& b) {
  if (a.rows() == 0) return 0.0;
  return SquaredNorm(Residual(a, x, b)) / a.rows();
}

}  // namespace sel

#endif  // SEL_SOLVER_SPARSE_H_
