// Property-based tests for the Euclidean simplex projection (Duchi et
// al. 2008), the primitive under the projected-gradient QP solver.
// Rather than pinning outputs, these assert the algebraic contract on
// hundreds of seeded random inputs: the output lies on the simplex, the
// map is idempotent, permutation-equivariant, and optimal (no feasible
// point is closer to the input). The warm-order SimplexProjector the
// solver uses is checked bit for bit against a cold sort-everything
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "solver/simplex_projection.h"

namespace sel {
namespace {

constexpr double kTol = 1e-9;

double Sum(const Vector& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double Dist2(const Vector& a, const Vector& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    d += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return d;
}

Vector RandomInput(Rng* rng, int n, double spread) {
  Vector v(n);
  for (auto& x : v) x = rng->Uniform(-spread, spread);
  return v;
}

TEST(SimplexProjectionProperty, OutputIsOnTheSimplex) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.Uniform(0.0, 40.0));
    const double total = trial % 3 == 0 ? 2.5 : 1.0;
    Vector v = RandomInput(&rng, n, 10.0);
    ProjectToSimplex(&v, total);
    ASSERT_NEAR(Sum(v), total, 1e-7) << "mass not conserved, n=" << n;
    for (double x : v) {
      ASSERT_GE(x, -kTol) << "negative coordinate, n=" << n;
    }
  }
}

TEST(SimplexProjectionProperty, Idempotent) {
  Rng rng(202);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.Uniform(0.0, 30.0));
    Vector v = RandomInput(&rng, n, 5.0);
    const Vector once = SimplexProjection(v);
    const Vector twice = SimplexProjection(once);
    for (size_t i = 0; i < once.size(); ++i) {
      ASSERT_NEAR(once[i], twice[i], 1e-9)
          << "projection moved an already-feasible point, i=" << i;
    }
  }
}

TEST(SimplexProjectionProperty, PermutationEquivariant) {
  // Projecting a shuffled vector equals shuffling the projection: the
  // simplex is symmetric, so coordinate order cannot matter.
  Rng rng(303);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(0.0, 20.0));
    const Vector v = RandomInput(&rng, n, 3.0);
    std::vector<size_t> perm(v.size());
    std::iota(perm.begin(), perm.end(), 0u);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.UniformInt(i)]);
    }
    Vector shuffled(v.size());
    for (size_t i = 0; i < v.size(); ++i) shuffled[i] = v[perm[i]];

    const Vector direct = SimplexProjection(v);
    const Vector via_shuffle = SimplexProjection(shuffled);
    for (size_t i = 0; i < v.size(); ++i) {
      ASSERT_NEAR(via_shuffle[i], direct[perm[i]], 1e-9);
    }
  }
}

TEST(SimplexProjectionProperty, NoFeasiblePointIsCloser) {
  // Optimality: the projection minimizes ||w - v|| over the simplex, so
  // any other feasible candidate must be at least as far from v.
  Rng rng(404);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(0.0, 15.0));
    const Vector v = RandomInput(&rng, n, 4.0);
    const Vector proj = SimplexProjection(v);
    const double best = Dist2(proj, v);
    for (int cand = 0; cand < 20; ++cand) {
      Vector w(n);
      double mass = 0.0;
      for (auto& x : w) {
        x = rng.Uniform(0.0, 1.0);
        mass += x;
      }
      for (auto& x : w) x /= mass;  // random point on the simplex
      ASSERT_GE(Dist2(w, v), best - 1e-9);
    }
  }
}

TEST(SimplexProjectionProperty, FeasibleInputIsAFixedPoint) {
  Rng rng(505);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 1 + static_cast<int>(rng.Uniform(0.0, 25.0));
    Vector w(n);
    double mass = 0.0;
    for (auto& x : w) {
      x = rng.Uniform(0.0, 1.0);
      mass += x;
    }
    for (auto& x : w) x /= mass;
    const Vector proj = SimplexProjection(w);
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_NEAR(proj[i], w[i], 1e-9);
    }
  }
}

// The projection as a cold sort of every coordinate (Duchi et al.),
// with the threshold applied as maxpd does: x - tau if it is greater
// than 0, else +0.
Vector ColdProjection(Vector v, double total = 1.0) {
  Vector sorted = v;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double cumsum = 0.0;
  double tau = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    cumsum += sorted[i];
    const double t = (cumsum - total) / static_cast<double>(i + 1);
    if (sorted[i] - t > 0.0) tau = t;
  }
  for (double& x : v) x = x - tau > 0.0 ? x - tau : 0.0;
  return v;
}

/// Projects `v` with the warm projector and the cold reference and
/// requires the same bits, signed zeros included.
void ExpectSameBits(SimplexProjector* warm, const Vector& v,
                    const char* what, double total = 1.0) {
  Vector got = v;
  warm->Project(got.data(), got.size(), total);
  const Vector want = ColdProjection(v, total);
  for (size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
              std::bit_cast<uint64_t>(want[i]))
        << what << ": n=" << v.size() << " i=" << i << " got " << got[i]
        << " want " << want[i];
  }
}

TEST(SimplexProjectorDifferential, PerturbedSequencesMatchColdSort) {
  // Successive small perturbations keep most of the order, as FISTA's
  // iterates do; larger ones churn it. One projector serves the whole
  // sequence, so every call after the first starts from a warm order.
  Rng rng(606);
  for (const int n : {1, 2, 3, 7, 16, 64, 192, 700}) {
    for (const double jitter : {1e-6, 1e-3, 0.5}) {
      SimplexProjector warm;
      Vector v = RandomInput(&rng, n, 1.0);
      for (int step = 0; step < 40; ++step) {
        ExpectSameBits(&warm, v, "perturbed");
        for (double& x : v) x += rng.Uniform(-jitter, jitter);
      }
    }
  }
}

TEST(SimplexProjectorDifferential, TiesAndSignedZerosMatchColdSort) {
  Rng rng(707);
  SimplexProjector warm;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.Uniform(0.0, 50.0));
    // Few distinct values, so most coordinates tie; +0.0 and -0.0 mix.
    const double levels[] = {-0.0, 0.0, 0.25, -0.25, 0.5, 1.0, 1e-300};
    Vector v(n);
    for (double& x : v) x = levels[rng.UniformInt(7)];
    ExpectSameBits(&warm, v, "ties", trial % 4 == 0 ? 0.5 : 1.0);
  }
}

TEST(SimplexProjectorDifferential, AllEqualVectorsMatchColdSort) {
  SimplexProjector warm;
  for (const int n : {1, 5, 33, 200}) {
    for (const double c : {0.0, -0.0, -3.0, 1.0 / 3.0, 7.5}) {
      ExpectSameBits(&warm, Vector(n, c), "all-equal");
    }
  }
}

TEST(SimplexProjectorDifferential, ReversedOrderTakesTheFullSort) {
  // An ascending vector after a descending one leaves the warm order
  // fully reversed: insertion would need n(n-1)/2 shifts, past the
  // n*log2(n) budget for every n >= 8, so the projector re-sorts.
  Rng rng(808);
  for (const int n : {2, 8, 9, 64, 500}) {
    SimplexProjector warm;
    Vector v(n);
    for (int i = 0; i < n; ++i) v[i] = 1.0 - i / static_cast<double>(n);
    ExpectSameBits(&warm, v, "descending");
    std::reverse(v.begin(), v.end());
    ExpectSameBits(&warm, v, "reversed");
    std::reverse(v.begin(), v.end());
    ExpectSameBits(&warm, v, "reversed back");
    // A random shuffle in between: neither order nor its reverse.
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.UniformInt(i)]);
    }
    ExpectSameBits(&warm, v, "shuffled");
  }
}

TEST(SimplexProjectorDifferential, LengthChangeStartsAFreshOrder) {
  Rng rng(909);
  SimplexProjector warm;
  for (const int n : {10, 3, 10, 40, 1}) {
    ExpectSameBits(&warm, RandomInput(&rng, n, 2.0), "resized");
  }
}

}  // namespace
}  // namespace sel
