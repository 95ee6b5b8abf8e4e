// Tests for the solver substrate: dense/sparse linear algebra, QR least
// squares, Lawson–Hanson NNLS, simplex projection, the Eq. (8) QP, the
// two-phase simplex LP, and the §4.6 Chebyshev (L∞) fit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "geometry/point.h"
#include "solver/lp.h"
#include "solver/nnls.h"
#include "solver/qp.h"
#include "solver/simplex_projection.h"
#include "solver/sparse.h"

namespace sel {
namespace {

// ---------- Dense / sparse linear algebra ----------

TEST(DenseMatrixTest, ApplyAndTranspose) {
  DenseMatrix a(2, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(0, 2) = 3;
  a.at(1, 0) = 4;
  a.at(1, 1) = 5;
  a.at(1, 2) = 6;
  const Vector y = a.Apply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const Vector z = a.ApplyTranspose({1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(SparseMatrixTest, FromTripletsSumsDuplicates) {
  auto m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}});
  const auto d = m.ToDense();
  EXPECT_DOUBLE_EQ(d.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.at(1, 1), 5.0);
  EXPECT_EQ(m.nnz(), 2u);
}

TEST(SparseMatrixTest, ApplyMatchesDense) {
  Rng rng(21);
  std::vector<Triplet> t;
  const int rows = 13, cols = 17;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.3) {
        t.push_back({i, j, rng.Uniform(-1.0, 1.0)});
      }
    }
  }
  const auto sp = SparseMatrix::FromTriplets(rows, cols, t);
  const auto de = sp.ToDense();
  Vector x(cols), y(rows);
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  for (auto& v : y) v = rng.Uniform(-1.0, 1.0);
  const Vector ax1 = sp.Apply(x), ax2 = de.Apply(x);
  const Vector aty1 = sp.ApplyTranspose(y), aty2 = de.ApplyTranspose(y);
  for (int i = 0; i < rows; ++i) EXPECT_NEAR(ax1[i], ax2[i], 1e-12);
  for (int j = 0; j < cols; ++j) EXPECT_NEAR(aty1[j], aty2[j], 1e-12);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// The solver's one-pass gradient must give the bits of the three-pass
// form it replaced, r = Apply(x) - b then g = ApplyTranspose(r), on both
// matrix types, including rows whose residual is exactly zero (skipped).
TEST(SparseMatrixTest, ResidualGradientMatchesThreePassForm) {
  Rng rng(22);
  std::vector<Triplet> t;
  const int rows = 29, cols = 41;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.4) {
        t.push_back({i, j, rng.Uniform(-1.0, 1.0)});
      }
    }
  }
  const auto sp = SparseMatrix::FromTriplets(rows, cols, t);
  const auto de = sp.ToDense();
  Vector x(cols);
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  for (const bool dense : {false, true}) {
    Vector b = dense ? de.Apply(x) : sp.Apply(x);
    for (int i = 0; i < rows; i += 3) b[i] += rng.Uniform(-1.0, 1.0);
    Vector r = dense ? de.Apply(x) : sp.Apply(x);
    for (int i = 0; i < rows; ++i) r[i] = r[i] - b[i];
    const Vector g = dense ? de.ApplyTranspose(r) : sp.ApplyTranspose(r);

    Vector r1(rows, -1.0), g1(cols, -1.0), r2(rows, -1.0);
    if (dense) {
      de.ResidualGradient(x.data(), b.data(), r1.data(), g1.data());
      de.ResidualGradient(x.data(), b.data(), r2.data(), nullptr);
    } else {
      sp.ResidualGradient(x.data(), b.data(), r1.data(), g1.data());
      sp.ResidualGradient(x.data(), b.data(), r2.data(), nullptr);
    }
    int zero_rows = 0;
    for (int i = 0; i < rows; ++i) {
      zero_rows += r[i] == 0.0;
      EXPECT_EQ(Bits(r1[i]), Bits(r[i]));
      EXPECT_EQ(Bits(r2[i]), Bits(r[i]));
    }
    EXPECT_GT(zero_rows, 0) << "no row exercised the zero-residual skip";
    for (int j = 0; j < cols; ++j) {
      EXPECT_EQ(Bits(g1[j]), Bits(g[j]))
          << (dense ? "dense" : "sparse") << " column " << j;
    }
  }
}

TEST(SparseMatrixTest, FromRowsLayout) {
  std::vector<std::vector<std::pair<int, double>>> rows(2);
  rows[0] = {{1, 2.0}};
  rows[1] = {{0, 3.0}, {2, 4.0}};
  const auto m = SparseMatrix::FromRows(3, rows);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  const Vector y = m.Apply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

// ---------- QR least squares ----------

TEST(QrLeastSquaresTest, ExactSquareSystem) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  const Vector x = SolveLeastSquaresQr(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(QrLeastSquaresTest, OverdeterminedRecoversPlantedSolution) {
  Rng rng(22);
  const int m = 30, n = 6;
  DenseMatrix a(m, n);
  Vector truth(n);
  for (auto& v : truth) v = rng.Uniform(-2.0, 2.0);
  Vector b(m, 0.0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      a.at(i, j) = rng.Uniform(-1.0, 1.0);
      b[i] += a.at(i, j) * truth[j];
    }
  }
  const Vector x = SolveLeastSquaresQr(a, b);
  for (int j = 0; j < n; ++j) EXPECT_NEAR(x[j], truth[j], 1e-8);
}

TEST(QrLeastSquaresTest, ResidualOrthogonalToColumns) {
  Rng rng(23);
  const int m = 20, n = 5;
  DenseMatrix a(m, n);
  Vector b(m);
  for (int i = 0; i < m; ++i) {
    b[i] = rng.Uniform(-1.0, 1.0);
    for (int j = 0; j < n; ++j) a.at(i, j) = rng.Uniform(-1.0, 1.0);
  }
  const Vector x = SolveLeastSquaresQr(a, b);
  const Vector r = Residual(a, x, b);
  const Vector atr = a.ApplyTranspose(r);
  for (int j = 0; j < n; ++j) EXPECT_NEAR(atr[j], 0.0, 1e-8);
}

// ---------- NNLS ----------

TEST(NnlsTest, UnconstrainedOptimumAlreadyNonnegative) {
  DenseMatrix a(3, 2);
  a.at(0, 0) = 1;
  a.at(1, 1) = 1;
  a.at(2, 0) = 1;
  a.at(2, 1) = 1;
  const Vector b = {1.0, 2.0, 3.0};
  auto res = SolveNnls(a, b);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res.value().x[0], 1.0, 1e-8);
  EXPECT_NEAR(res.value().x[1], 2.0, 1e-8);
}

TEST(NnlsTest, ClampsNegativeComponent) {
  // min (x0 - (-1))^2 + (x1 - 2)^2 over x >= 0: x0 = 0, x1 = 2.
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(1, 1) = 1;
  auto res = SolveNnls(a, {-1.0, 2.0});
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res.value().x[0], 0.0, 1e-10);
  EXPECT_NEAR(res.value().x[1], 2.0, 1e-10);
  EXPECT_NEAR(res.value().residual_norm, 1.0, 1e-10);
}

TEST(NnlsTest, MatchesProjectedGradientOnRandomProblems) {
  Rng rng(24);
  for (int t = 0; t < 10; ++t) {
    const int m = 12, n = 6;
    DenseMatrix a(m, n);
    Vector b(m);
    for (int i = 0; i < m; ++i) {
      b[i] = rng.NextDouble();
      for (int j = 0; j < n; ++j) a.at(i, j) = rng.NextDouble();
    }
    auto nnls = SolveNnls(a, b);
    ASSERT_TRUE(nnls.ok());
    // KKT: gradient must be >= -tol on active coordinates, ~0 on passive.
    const Vector r = Residual(a, nnls.value().x, b);
    const Vector g = a.ApplyTranspose(r);  // gradient of 0.5||Ax-b||^2
    for (int j = 0; j < n; ++j) {
      if (nnls.value().x[j] > 1e-9) {
        EXPECT_NEAR(g[j], 0.0, 1e-7);
      } else {
        EXPECT_GE(g[j], -1e-7);
      }
    }
  }
}

TEST(NnlsTest, RhsSizeMismatchRejected) {
  DenseMatrix a(2, 2);
  auto res = SolveNnls(a, {1.0});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

// ---------- Simplex projection ----------

TEST(SimplexProjectionTest, AlreadyOnSimplexIsFixed) {
  Vector v = {0.2, 0.3, 0.5};
  ProjectToSimplex(&v);
  EXPECT_NEAR(v[0], 0.2, 1e-12);
  EXPECT_NEAR(v[1], 0.3, 1e-12);
  EXPECT_NEAR(v[2], 0.5, 1e-12);
}

TEST(SimplexProjectionTest, UniformFromZero) {
  Vector v = {0.0, 0.0, 0.0, 0.0};
  ProjectToSimplex(&v);
  for (double x : v) EXPECT_NEAR(x, 0.25, 1e-12);
}

TEST(SimplexProjectionTest, DominantCoordinateSaturates) {
  Vector v = {10.0, 0.0, 0.0};
  ProjectToSimplex(&v);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 0.0, 1e-12);
}

TEST(SimplexProjectionTest, ResultAlwaysFeasibleAndClosest) {
  Rng rng(25);
  for (int t = 0; t < 50; ++t) {
    const int n = 2 + static_cast<int>(rng.UniformInt(8));
    Vector v(n);
    for (auto& x : v) x = rng.Uniform(-2.0, 2.0);
    const Vector p = SimplexProjection(v);
    double sum = 0.0;
    for (double x : p) {
      EXPECT_GE(x, -1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Optimality: projection is no farther than random feasible points.
    const double dp = SquaredDistance(p, v);
    for (int k = 0; k < 20; ++k) {
      Vector q(n);
      double qs = 0.0;
      for (auto& x : q) {
        x = rng.NextDouble();
        qs += x;
      }
      for (auto& x : q) x /= qs;
      EXPECT_LE(dp, SquaredDistance(q, v) + 1e-9);
    }
  }
}

TEST(SimplexProjectionTest, CustomTotalMass) {
  Vector v = {1.0, 2.0, 3.0};
  ProjectToSimplex(&v, 2.0);
  double sum = 0.0;
  for (double x : v) sum += x;
  EXPECT_NEAR(sum, 2.0, 1e-9);
}

// ---------- Eq. (8): simplex-constrained least squares ----------

TEST(SimplexLsqTest, RecoversPlantedSimplexWeights) {
  Rng rng(26);
  const int n = 40, m = 5;
  Vector truth = {0.1, 0.4, 0.2, 0.05, 0.25};
  std::vector<Triplet> t;
  Vector s(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      const double v = rng.NextDouble();
      t.push_back({i, j, v});
      s[i] += v * truth[j];
    }
  }
  auto res = SolveSimplexLeastSquares(SparseMatrix::FromTriplets(n, m, t), s);
  ASSERT_TRUE(res.ok());
  EXPECT_LT(res.value().loss, 1e-10);
  for (int j = 0; j < m; ++j) EXPECT_NEAR(res.value().w[j], truth[j], 1e-3);
}

TEST(SimplexLsqTest, NnlsModeMatchesProjectedGradient) {
  Rng rng(27);
  const int n = 30, m = 6;
  std::vector<Triplet> t;
  Vector s(n);
  for (int i = 0; i < n; ++i) {
    s[i] = rng.NextDouble() * 0.5;
    for (int j = 0; j < m; ++j) t.push_back({i, j, rng.NextDouble()});
  }
  const auto a = SparseMatrix::FromTriplets(n, m, t);
  SimplexLsqOptions pg;
  SimplexLsqOptions nn;
  nn.method = SimplexLsqOptions::Method::kNnls;
  auto r1 = SolveSimplexLeastSquares(a, s, pg);
  auto r2 = SolveSimplexLeastSquares(a, s, nn);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Same convex objective: losses agree even if weights differ.
  EXPECT_NEAR(r1.value().loss, r2.value().loss, 2e-3);
}

TEST(SimplexLsqTest, WeightsAlwaysOnSimplex) {
  Rng rng(29);
  const int n = 15, m = 8;
  std::vector<Triplet> t;
  Vector s(n);
  for (int i = 0; i < n; ++i) {
    s[i] = rng.NextDouble();
    for (int j = 0; j < m; ++j) t.push_back({i, j, rng.NextDouble() * 0.1});
  }
  auto res = SolveSimplexLeastSquares(SparseMatrix::FromTriplets(n, m, t), s);
  ASSERT_TRUE(res.ok());
  double sum = 0.0;
  for (double w : res.value().w) {
    EXPECT_GE(w, -1e-12);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-8);
}

TEST(SimplexLsqTest, RidgeFlattensWeights) {
  // Two identical columns: ridge prefers splitting the mass evenly.
  std::vector<Triplet> t;
  for (int i = 0; i < 4; ++i) {
    t.push_back({i, 0, 0.5});
    t.push_back({i, 1, 0.5});
  }
  const Vector s(4, 0.5);
  SimplexLsqOptions opts;
  opts.ridge = 1.0;
  auto res =
      SolveSimplexLeastSquares(SparseMatrix::FromTriplets(4, 2, t), s, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res.value().w[0], 0.5, 1e-6);
  EXPECT_NEAR(res.value().w[1], 0.5, 1e-6);
}

TEST(SimplexLsqTest, ZeroColumnsRejected) {
  const auto a = SparseMatrix::FromTriplets(2, 0, {});
  auto res = SolveSimplexLeastSquares(a, {0.0, 0.0});
  EXPECT_FALSE(res.ok());
}

TEST(EstimateLipschitzTest, MatchesKnownSpectralNorm) {
  // Diagonal matrix: largest eigenvalue of A^T A is max diag^2.
  const auto a =
      SparseMatrix::FromTriplets(3, 3, {{0, 0, 1.0}, {1, 1, 3.0}, {2, 2, 2.0}});
  EXPECT_NEAR(EstimateLipschitz(a), 9.0, 1e-6);
}

// ---------- LP ----------

TEST(LpTest, SimpleMaximizationViaMinimization) {
  // min -x0 - x1 s.t. x0 + x1 <= 1, x >= 0 -> objective -1.
  LinearProgram lp;
  lp.objective = {-1.0, -1.0};
  lp.constraint_matrix = DenseMatrix(1, 2);
  lp.constraint_matrix.at(0, 0) = 1.0;
  lp.constraint_matrix.at(0, 1) = 1.0;
  lp.rhs = {1.0};
  lp.senses = {ConstraintSense::kLessEqual};
  const LpResult r = SolveLinearProgram(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-9);
}

TEST(LpTest, EqualityAndGreaterConstraints) {
  // min x0 + 2 x1 s.t. x0 + x1 = 1, x0 >= 0.25 -> x = (1, 0) obj 1.
  LinearProgram lp;
  lp.objective = {1.0, 2.0};
  lp.constraint_matrix = DenseMatrix(2, 2);
  lp.constraint_matrix.at(0, 0) = 1.0;
  lp.constraint_matrix.at(0, 1) = 1.0;
  lp.constraint_matrix.at(1, 0) = 1.0;
  lp.rhs = {1.0, 0.25};
  lp.senses = {ConstraintSense::kEqual, ConstraintSense::kGreaterEqual};
  const LpResult r = SolveLinearProgram(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 0.0, 1e-9);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(LpTest, DetectsInfeasible) {
  // x0 <= 1 and x0 >= 2 simultaneously.
  LinearProgram lp;
  lp.objective = {1.0};
  lp.constraint_matrix = DenseMatrix(2, 1);
  lp.constraint_matrix.at(0, 0) = 1.0;
  lp.constraint_matrix.at(1, 0) = 1.0;
  lp.rhs = {1.0, 2.0};
  lp.senses = {ConstraintSense::kLessEqual, ConstraintSense::kGreaterEqual};
  EXPECT_EQ(SolveLinearProgram(lp).status, LpStatus::kInfeasible);
}

TEST(LpTest, DetectsUnbounded) {
  // min -x0 with only x0 >= 1.
  LinearProgram lp;
  lp.objective = {-1.0};
  lp.constraint_matrix = DenseMatrix(1, 1);
  lp.constraint_matrix.at(0, 0) = 1.0;
  lp.rhs = {1.0};
  lp.senses = {ConstraintSense::kGreaterEqual};
  EXPECT_EQ(SolveLinearProgram(lp).status, LpStatus::kUnbounded);
}

TEST(LpTest, NegativeRhsNormalized) {
  // -x0 <= -2  <=>  x0 >= 2; min x0 -> 2.
  LinearProgram lp;
  lp.objective = {1.0};
  lp.constraint_matrix = DenseMatrix(1, 1);
  lp.constraint_matrix.at(0, 0) = -1.0;
  lp.rhs = {-2.0};
  lp.senses = {ConstraintSense::kLessEqual};
  const LpResult r = SolveLinearProgram(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(LpTest, RandomFeasibleProblemsSatisfyConstraints) {
  Rng rng(30);
  for (int t = 0; t < 20; ++t) {
    const int n = 3, m = 4;
    LinearProgram lp;
    lp.objective.assign(n, 0.0);
    for (auto& c : lp.objective) c = rng.Uniform(0.0, 1.0);
    lp.constraint_matrix = DenseMatrix(m, n);
    lp.rhs.assign(m, 0.0);
    lp.senses.assign(m, ConstraintSense::kLessEqual);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        lp.constraint_matrix.at(i, j) = rng.Uniform(0.0, 1.0);
      }
      lp.rhs[i] = rng.Uniform(0.5, 2.0);
    }
    const LpResult r = SolveLinearProgram(lp);
    ASSERT_EQ(r.status, LpStatus::kOptimal);  // x=0 is always feasible
    for (int i = 0; i < m; ++i) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        lhs += lp.constraint_matrix.at(i, j) * r.x[j];
      }
      EXPECT_LE(lhs, lp.rhs[i] + 1e-7);
    }
  }
}

// ---------- Chebyshev (L∞) fit ----------

TEST(ChebyshevTest, ExactFitHasZeroError) {
  // Identity-like system with a consistent simplex solution.
  DenseMatrix a(3, 3);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = 1.0;
  a.at(2, 2) = 1.0;
  const Vector s = {0.2, 0.3, 0.5};
  auto res = SolveSimplexChebyshev(a, s);
  ASSERT_TRUE(res.ok());
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(res.value()[j], s[j], 1e-7);
}

TEST(ChebyshevTest, MinimizesMaxResidualBelowL2Fit) {
  Rng rng(31);
  const int n = 25, m = 6;
  std::vector<Triplet> t;
  Vector s(n);
  for (int i = 0; i < n; ++i) {
    s[i] = rng.NextDouble() * 0.4;
    for (int j = 0; j < m; ++j) t.push_back({i, j, rng.NextDouble()});
  }
  const auto sparse = SparseMatrix::FromTriplets(n, m, t);
  const DenseMatrix a = sparse.ToDense();
  auto linf = SolveSimplexChebyshev(a, s);
  ASSERT_TRUE(linf.ok());
  auto l2 = SolveSimplexLeastSquares(sparse, s);
  ASSERT_TRUE(l2.ok());
  auto max_resid = [&](const Vector& w) {
    double worst = 0.0;
    const Vector r = Residual(a, w, s);
    for (double x : r) worst = std::max(worst, std::abs(x));
    return worst;
  };
  EXPECT_LE(max_resid(linf.value()), max_resid(l2.value().w) + 1e-6);
}

TEST(ChebyshevTest, SolutionOnSimplex) {
  Rng rng(32);
  const int n = 12, m = 5;
  DenseMatrix a(n, m);
  Vector s(n);
  for (int i = 0; i < n; ++i) {
    s[i] = rng.NextDouble();
    for (int j = 0; j < m; ++j) a.at(i, j) = rng.NextDouble();
  }
  auto res = SolveSimplexChebyshev(a, s);
  ASSERT_TRUE(res.ok());
  double sum = 0.0;
  for (double w : res.value()) {
    EXPECT_GE(w, -1e-9);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-7);
}

}  // namespace
}  // namespace sel
