// Property suite for the SIMD kernel layer (DESIGN.md §12).
//
// The contract under test is stronger than "close enough": a given
// input must produce BIT-IDENTICAL results under every dispatch level
// (scalar, sse2, avx2 — whichever the host supports), because every
// variant implements the same fixed lane-striped blocked reduction and
// the same per-element operation sequence. Cross-level checks compare
// bit patterns, so -0.0 vs +0.0 counts as a difference. Against a naive
// sequential reference the blocked order may differ, which is what the
// 1e-12 plan-vs-reference tolerance (tests/reference_eval.h) absorbs;
// reductions are checked against that reference at 1e-12 as well.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "sel/sel.h"

namespace sel {
namespace {

/// Forces a dispatch level for one scope, restoring the previous one.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(ActiveSimdLevel()) {
    SetSimdLevel(level);
  }
  ~ScopedSimdLevel() { SetSimdLevel(prev_); }

 private:
  SimdLevel prev_;
};

/// Every level this host can actually run (always includes kScalar).
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const int max = static_cast<int>(MaxSupportedSimdLevel());
  if (max >= static_cast<int>(SimdLevel::kSse2)) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (max >= static_cast<int>(SimdLevel::kAvx2)) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

/// Bit patterns, so cross-level checks tell -0.0 from +0.0.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> bits(v.size());
  for (size_t i = 0; i < v.size(); ++i) bits[i] = Bits(v[i]);
  return bits;
}

std::vector<double> RandomVector(Rng* rng, size_t n, double lo = -1.0,
                                 double hi = 1.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->Uniform(lo, hi);
  return v;
}

TEST(SimdDispatchTest, ParseKnowsEverySpelling) {
  SimdLevel level = SimdLevel::kAvx2;
  EXPECT_TRUE(ParseSimdLevel("scalar", &level));
  EXPECT_EQ(level, SimdLevel::kScalar);
  EXPECT_TRUE(ParseSimdLevel("sse2", &level));
  EXPECT_EQ(level, SimdLevel::kSse2);
  EXPECT_TRUE(ParseSimdLevel("avx2", &level));
  EXPECT_EQ(level, SimdLevel::kAvx2);
  EXPECT_TRUE(ParseSimdLevel("auto", &level));
  EXPECT_EQ(level, MaxSupportedSimdLevel());
  EXPECT_FALSE(ParseSimdLevel("", &level));
  EXPECT_FALSE(ParseSimdLevel("AVX2", &level));
  EXPECT_FALSE(ParseSimdLevel("avx512", &level));
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSse2), "sse2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdDispatchTest, SetLevelClampsAndReportsActive) {
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scope(level);
    EXPECT_EQ(ActiveSimdLevel(), level);
    EXPECT_EQ(Simd().level, level);
  }
  // A request above hardware support clamps down instead of crashing.
  ScopedSimdLevel scope(SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(MaxSupportedSimdLevel()));
}

TEST(SimdDispatchTest, PathGaugeTracksDispatch) {
  SetMetricsEnabled(true);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scope(level);
    EXPECT_EQ(MetricsRegistry::Global().GetGauge("simd.path").Value(),
              static_cast<int64_t>(level));
  }
  SetMetricsEnabled(false);
}

TEST(SimdLayoutTest, PaddedCountCoversFullWidthLoads) {
  for (size_t n = 0; n <= 200; ++n) {
    const size_t padded = SimdPaddedCount(n);
    EXPECT_EQ(padded % kSimdBlock, 0u) << n;
    EXPECT_GE(padded, n) << n;
    // A full block load starting at the LAST real element must fit.
    if (n > 0) {
      EXPECT_GE(padded, n - 1 + kSimdBlock) << n;
    }
  }
}

TEST(SimdLayoutTest, AlignedVectorIsCacheLineAligned) {
  for (size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    AlignedVector v(n, 0.0);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kSimdAlign, 0u) << n;
  }
}

// dot / squared_norm / sparse_dot: bit-identical across levels, 1e-12
// against the naive sequential sum. Sizes stress every tail residue.
TEST(SimdKernelTest, ReductionsBitIdenticalAcrossLevels) {
  Rng rng(2101);
  const std::vector<SimdLevel> levels = SupportedLevels();
  for (size_t n :
       {0u, 1u, 2u, 3u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 64u, 100u}) {
    const std::vector<double> a = RandomVector(&rng, n);
    const std::vector<double> b = RandomVector(&rng, n);
    // A sparse row gathering from a larger x, columns deliberately
    // shuffled and duplicated.
    const std::vector<double> x = RandomVector(&rng, 256);
    std::vector<int32_t> cols(n);
    for (auto& c : cols) c = static_cast<int32_t>(rng.UniformInt(256));

    double ref_dot = 0.0, ref_sq = 0.0, ref_sparse = 0.0;
    for (size_t j = 0; j < n; ++j) {
      ref_dot += a[j] * b[j];
      ref_sq += a[j] * a[j];
      ref_sparse += a[j] * x[cols[j]];
    }

    double base_dot = 0.0, base_sq = 0.0, base_sparse = 0.0;
    for (size_t li = 0; li < levels.size(); ++li) {
      ScopedSimdLevel scope(levels[li]);
      const SimdOps& ops = Simd();
      const double d = ops.dot(a.data(), b.data(), n);
      const double sq = ops.squared_norm(a.data(), n);
      const double sp = ops.sparse_dot(cols.data(), a.data(), n, x.data());
      if (li == 0) {
        base_dot = d;
        base_sq = sq;
        base_sparse = sp;
        EXPECT_NEAR(d, ref_dot, 1e-12) << "n=" << n;
        EXPECT_NEAR(sq, ref_sq, 1e-12) << "n=" << n;
        EXPECT_NEAR(sp, ref_sparse, 1e-12) << "n=" << n;
      } else {
        EXPECT_EQ(Bits(d), Bits(base_dot))
            << "dot n=" << n << " level " << SimdLevelName(levels[li]);
        EXPECT_EQ(Bits(sq), Bits(base_sq))
            << "sqnorm n=" << n << " level " << SimdLevelName(levels[li]);
        EXPECT_EQ(Bits(sp), Bits(base_sparse))
            << "sparse n=" << n << " level " << SimdLevelName(levels[li]);
      }
    }
  }
}

// Elementwise kernels: exact equality per element across levels (they
// are clamp/fused-free arithmetic, no reduction involved). Besides
// random inputs, every size runs signed zeros — alpha/beta = -0.0 and
// -0.0 entries, where y + alpha * x keeps -0.0 only if alpha's sign
// survives the broadcast — and shift_relu at tau = 0 over v[j] == tau
// and v[j] = -0.0, where only maxpd's operand order gives +0.0.
TEST(SimdKernelTest, ElementwiseKernelsExactAcrossLevels) {
  Rng rng(2102);
  const std::vector<SimdLevel> levels = SupportedLevels();
  const size_t sizes[] = {0, 1, 3, 4, 7, 8, 13, 32, 57};
  for (size_t trial = 0; trial < 2 * std::size(sizes); ++trial) {
    const size_t n = sizes[trial / 2];
    const bool signed_zeros = trial % 2 == 1;
    std::vector<double> x = RandomVector(&rng, n);
    std::vector<double> y = RandomVector(&rng, n);
    double alpha = rng.Uniform(-2.0, 2.0);
    double tau = rng.Uniform(-0.5, 0.5);
    if (signed_zeros) {
      alpha = -0.0;
      for (size_t j = 0; j < n; j += 2) x[j] = -0.0;
      for (size_t j = 0; j < n; j += 3) y[j] = -0.0;
      if (n > 1) x[1] = 0.0;
      tau = 0.0;
    }

    std::vector<double> axpy_base, axpby_base, extra_base, relu_base;
    for (size_t li = 0; li < levels.size(); ++li) {
      ScopedSimdLevel scope(levels[li]);
      const SimdOps& ops = Simd();
      std::vector<double> axpy_v = y;
      ops.axpy(alpha, x.data(), axpy_v.data(), n);
      std::vector<double> axpby_v(n, 0.0);
      ops.axpby_out(x.data(), alpha, y.data(), axpby_v.data(), n);
      std::vector<double> extra_v(n, 0.0);
      ops.extrapolate(x.data(), y.data(), alpha, extra_v.data(), n);
      std::vector<double> relu_v = x;
      ops.shift_relu(relu_v.data(), tau, n);
      if (li == 0) {
        axpy_base = axpy_v;
        axpby_base = axpby_v;
        extra_base = extra_v;
        relu_base = relu_v;
        for (size_t j = 0; j < n; ++j) {
          EXPECT_EQ(Bits(axpy_v[j]), Bits(y[j] + alpha * x[j]));
          EXPECT_EQ(Bits(axpby_v[j]), Bits(x[j] + alpha * y[j]));
          EXPECT_EQ(Bits(extra_v[j]), Bits(x[j] + alpha * (x[j] - y[j])));
          EXPECT_GE(relu_v[j], 0.0);
        }
      } else {
        const char* name = SimdLevelName(levels[li]);
        EXPECT_EQ(Bits(axpy_v), Bits(axpy_base)) << name << " n=" << n;
        EXPECT_EQ(Bits(axpby_v), Bits(axpby_base)) << name << " n=" << n;
        EXPECT_EQ(Bits(extra_v), Bits(extra_base)) << name << " n=" << n;
        EXPECT_EQ(Bits(relu_v), Bits(relu_base)) << name << " n=" << n;
      }
    }
  }
}

/// Builds a padded coordinate-major box SoA the way CompiledPlan does:
/// stride = SimdPaddedCount(n), sentinel boxes (lo=+2 > hi=-2) beyond n.
struct PaddedBoxes {
  int dim;
  size_t n, stride;
  AlignedVector lo, hi, weight, inv_vol;

  PaddedBoxes(Rng* rng, int d, size_t count)
      : dim(d), n(count), stride(SimdPaddedCount(count)) {
    lo.assign(static_cast<size_t>(d) * stride, 2.0);
    hi.assign(static_cast<size_t>(d) * stride, -2.0);
    weight.assign(stride, 0.0);
    inv_vol.assign(stride, 0.0);
    for (size_t j = 0; j < n; ++j) {
      double vol = 1.0;
      for (int c = 0; c < d; ++c) {
        const double a = rng->Uniform(0.0, 0.9);
        const double b = a + rng->Uniform(0.01, 1.0 - a);
        lo[static_cast<size_t>(c) * stride + j] = a;
        hi[static_cast<size_t>(c) * stride + j] = b;
        vol *= b - a;
      }
      weight[j] = rng->Uniform(0.0, 1.0);
      inv_vol[j] = 1.0 / vol;
    }
  }
};

// Leaf kernels over random dims in [1, 12], entry counts with ragged
// tails, and arbitrary [begin, end) subranges (leaves start mid-array):
// bit-identical across levels, 1e-12 against the naive per-entry sum.
TEST(SimdKernelTest, BoxLeafSumAcrossLevels) {
  Rng rng(2103);
  const std::vector<SimdLevel> levels = SupportedLevels();
  for (int trial = 0; trial < 40; ++trial) {
    const int d = 1 + static_cast<int>(rng.UniformInt(12));
    const size_t n = 1 + rng.UniformInt(70);
    PaddedBoxes boxes(&rng, d, n);
    const size_t begin = rng.UniformInt(n);
    const size_t end = begin + 1 + rng.UniformInt(n - begin);
    // Some lower bounds are -0.0 and must give the same bits at every
    // level. Box lows are positive, so Max(qlo, lo) is lo in either
    // operand order; the relu and elementwise cases check that order.
    std::vector<double> qlo(d), qhi(d);
    for (int c = 0; c < d; ++c) {
      qlo[c] = rng.UniformInt(4) == 0 ? -0.0 : rng.Uniform(0.0, 0.6);
      qhi[c] = qlo[c] + rng.Uniform(0.0, 1.0 - qlo[c]);
    }

    double ref = 0.0;
    for (size_t j = begin; j < end; ++j) {
      double inter = 1.0;
      bool dead = false;
      for (int c = 0; c < d; ++c) {
        const size_t at = static_cast<size_t>(c) * boxes.stride + j;
        const double l = std::max(qlo[c], boxes.lo[at]);
        const double h = std::min(qhi[c], boxes.hi[at]);
        if (h - l <= 0.0) dead = true;
        inter *= h - l;
      }
      if (!dead) {
        ref += boxes.weight[j] *
               std::clamp(inter * boxes.inv_vol[j], 0.0, 1.0);
      }
    }

    double base = 0.0;
    for (size_t li = 0; li < levels.size(); ++li) {
      ScopedSimdLevel scope(levels[li]);
      const double got = Simd().box_leaf_sum(
          qlo.data(), qhi.data(), d, boxes.lo.data(), boxes.hi.data(),
          boxes.weight.data(), boxes.inv_vol.data(), boxes.stride, begin,
          end);
      if (li == 0) {
        base = got;
        EXPECT_NEAR(got, ref, 1e-12)
            << "d=" << d << " n=" << n << " [" << begin << "," << end << ")";
      } else {
        EXPECT_EQ(Bits(got), Bits(base))
            << "d=" << d << " n=" << n << " [" << begin << "," << end
            << ") level " << SimdLevelName(levels[li]);
      }
    }
  }
}

TEST(SimdKernelTest, PointLeafSumAcrossLevels) {
  Rng rng(2104);
  const std::vector<SimdLevel> levels = SupportedLevels();
  for (int trial = 0; trial < 40; ++trial) {
    const int d = 1 + static_cast<int>(rng.UniformInt(12));
    const size_t n = 1 + rng.UniformInt(70);
    const size_t stride = SimdPaddedCount(n);
    AlignedVector coords(static_cast<size_t>(d) * stride, 0.0);
    AlignedVector weight(stride, 0.0);
    for (size_t j = 0; j < n; ++j) {
      for (int c = 0; c < d; ++c) {
        coords[static_cast<size_t>(c) * stride + j] = rng.Uniform(0.0, 1.0);
      }
      weight[j] = rng.Uniform(0.0, 1.0);
    }
    const size_t begin = rng.UniformInt(n);
    const size_t end = begin + 1 + rng.UniformInt(n - begin);
    // Queries sometimes touch point coordinates exactly (boundary hits).
    std::vector<double> qlo(d), qhi(d);
    for (int c = 0; c < d; ++c) {
      if (rng.UniformInt(4) == 0) {
        qlo[c] = coords[static_cast<size_t>(c) * stride + begin];
        qhi[c] = qlo[c];
      } else {
        qlo[c] = rng.Uniform(0.0, 0.7);
        qhi[c] = qlo[c] + rng.Uniform(0.0, 1.0 - qlo[c]);
      }
    }

    double ref = 0.0;
    for (size_t j = begin; j < end; ++j) {
      bool alive = true;
      for (int c = 0; c < d; ++c) {
        const double x = coords[static_cast<size_t>(c) * stride + j];
        alive = alive && x >= qlo[c] && x <= qhi[c];
      }
      if (alive) ref += weight[j];
    }

    double base = 0.0;
    for (size_t li = 0; li < levels.size(); ++li) {
      ScopedSimdLevel scope(levels[li]);
      const double got = Simd().point_leaf_sum(qlo.data(), qhi.data(), d,
                                               coords.data(), weight.data(),
                                               stride, begin, end);
      if (li == 0) {
        base = got;
        EXPECT_NEAR(got, ref, 1e-12) << "d=" << d << " n=" << n;
      } else {
        EXPECT_EQ(Bits(got), Bits(base))
            << "d=" << d << " n=" << n << " level "
            << SimdLevelName(levels[li]);
      }
    }
  }
}

// Whole-plan property: EstimateOne is bit-identical under every dispatch
// level, and within 1e-12 of the per-bucket Eq. (6) reference.
TEST(SimdKernelTest, CompiledPlanIdenticalAcrossLevels) {
  Rng rng(2105);
  const std::vector<SimdLevel> levels = SupportedLevels();
  for (int d : {1, 2, 3, 5}) {
    std::vector<Box> buckets;
    std::vector<double> weights;
    const size_t n = 40 + rng.UniformInt(60);
    double total = 0.0;
    for (size_t j = 0; j < n; ++j) {
      Point lo(d), hi(d);
      for (int c = 0; c < d; ++c) {
        lo[c] = rng.Uniform(0.0, 0.9);
        hi[c] = lo[c] + rng.Uniform(0.01, 1.0 - lo[c]);
      }
      buckets.emplace_back(lo, hi);
      weights.push_back(rng.Uniform(0.0, 1.0));
      total += weights.back();
    }
    for (auto& w : weights) w /= total;
    auto plan =
        CompiledPlan::FromBoxBuckets(buckets, weights, VolumeOptions{}, "t");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();

    for (int probe = 0; probe < 20; ++probe) {
      Point qlo(d), qhi(d);
      for (int c = 0; c < d; ++c) {
        qlo[c] = rng.Uniform(0.0, 0.8);
        qhi[c] = qlo[c] + rng.Uniform(0.0, 1.0 - qlo[c]);
      }
      const Query q(Box(qlo, qhi));
      double ref = 0.0;
      for (size_t j = 0; j < n; ++j) {
        ref += BoxBucketTerm(q, buckets[j], weights[j],
                             1.0 / buckets[j].Volume(), VolumeOptions{});
      }

      double base = 0.0;
      for (size_t li = 0; li < levels.size(); ++li) {
        ScopedSimdLevel scope(levels[li]);
        const double got = plan.value().EstimateOne(q);
        if (li == 0) {
          base = got;
          EXPECT_NEAR(got, ref, 1e-12) << "d=" << d << " probe " << probe;
        } else {
          EXPECT_EQ(Bits(got), Bits(base))
              << "d=" << d << " probe " << probe << " level "
              << SimdLevelName(levels[li]);
        }
      }
    }
  }
}

// Matrix wrappers ride the same kernels: Apply / ApplyTranspose /
// SquaredNorm / Residual agree bitwise across levels for dense and
// sparse forms.
TEST(SimdKernelTest, MatrixOpsIdenticalAcrossLevels) {
  Rng rng(2106);
  const std::vector<SimdLevel> levels = SupportedLevels();
  const int rows = 23, cols = 17;
  DenseMatrix dense(rows, cols);
  std::vector<Triplet> trips;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.UniformInt(3) == 0) {
        const double v = rng.Uniform(-1.0, 1.0);
        dense.at(i, j) = v;
        trips.push_back(Triplet{i, j, v});
      }
    }
  }
  const SparseMatrix sparse =
      SparseMatrix::FromTriplets(rows, cols, trips);
  const Vector x = RandomVector(&rng, cols);
  const Vector z = RandomVector(&rng, rows);

  Vector base_dy, base_dt, base_sy, base_st;
  double base_norm = 0.0;
  for (size_t li = 0; li < levels.size(); ++li) {
    ScopedSimdLevel scope(levels[li]);
    const Vector dy = dense.Apply(x);
    const Vector dt = dense.ApplyTranspose(z);
    const Vector sy = sparse.Apply(x);
    const Vector st = sparse.ApplyTranspose(z);
    const double norm = SquaredNorm(x);
    if (li == 0) {
      base_dy = dy;
      base_dt = dt;
      base_sy = sy;
      base_st = st;
      base_norm = norm;
      // Dense and sparse hold the same matrix; both run the blocked
      // order but over different element sequences (dense includes the
      // zeros), so compare at the library tolerance.
      for (int i = 0; i < rows; ++i) EXPECT_NEAR(dy[i], sy[i], 1e-12);
    } else {
      EXPECT_EQ(Bits(dy), Bits(base_dy)) << SimdLevelName(levels[li]);
      EXPECT_EQ(Bits(dt), Bits(base_dt)) << SimdLevelName(levels[li]);
      EXPECT_EQ(Bits(sy), Bits(base_sy)) << SimdLevelName(levels[li]);
      EXPECT_EQ(Bits(st), Bits(base_st)) << SimdLevelName(levels[li]);
      EXPECT_EQ(Bits(norm), Bits(base_norm)) << SimdLevelName(levels[li]);
    }
  }
}

// The full solver stack on top of the kernels: identical weights out of
// SolveSimplexLeastSquares under every dispatch level.
TEST(SimdKernelTest, SolverIdenticalAcrossLevels) {
  Rng rng(2107);
  const std::vector<SimdLevel> levels = SupportedLevels();
  const int rows = 30, cols = 12;
  std::vector<Triplet> trips;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.UniformInt(2) == 0) {
        trips.push_back(Triplet{i, j, rng.Uniform(0.0, 1.0)});
      }
    }
  }
  const Vector s = RandomVector(&rng, rows, 0.0, 1.0);
  SimplexLsqOptions opts;
  opts.max_iterations = 300;

  Vector base_w;
  for (size_t li = 0; li < levels.size(); ++li) {
    ScopedSimdLevel scope(levels[li]);
    const SparseMatrix a = SparseMatrix::FromTriplets(rows, cols, trips);
    auto result = SolveSimplexLeastSquares(a, s, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (li == 0) {
      base_w = result.value().w;
    } else {
      EXPECT_EQ(Bits(result.value().w), Bits(base_w))
          << SimdLevelName(levels[li]);
    }
  }
}

}  // namespace
}  // namespace sel
