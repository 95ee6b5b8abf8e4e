// Test-only brute-force evaluation of the two sums every
// distribution-backed estimator predicts with: Eq. (6)
// Σ_j w_j·vol(B_j∩R)/vol(B_j) over box buckets and Eq. (7)
// Σ_j w_j·1(p_j∈R) over point buckets. One pass over every bucket, no
// pruning tree, no SIMD, no precomputed inverse volumes — the oracle
// CompiledPlan's kernels are checked against.
#ifndef SEL_TESTS_REFERENCE_EVAL_H_
#define SEL_TESTS_REFERENCE_EVAL_H_

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "geometry/box.h"
#include "geometry/query.h"
#include "geometry/volume.h"
#include "solver/dense.h"

namespace sel {

/// Eq. (6): sum_j w_j * vol(B_j ∩ R)/vol(B_j), clamped to [0, 1].
inline double ReferenceBoxEstimate(const Query& query,
                                   const std::vector<Box>& buckets,
                                   const Vector& weights,
                                   const VolumeOptions& volume_options) {
  SEL_CHECK(buckets.size() == weights.size());
  double s = 0.0;
  for (size_t j = 0; j < buckets.size(); ++j) {
    if (weights[j] == 0.0 || query.DisjointFromBox(buckets[j])) continue;
    s += weights[j] * QueryBoxFraction(query, buckets[j], volume_options);
  }
  return std::clamp(s, 0.0, 1.0);
}

/// Eq. (7): sum_j w_j * 1(p_j in R), clamped to [0, 1].
inline double ReferencePointEstimate(const Query& query,
                                     const std::vector<Point>& points,
                                     const Vector& weights) {
  SEL_CHECK(points.size() == weights.size());
  double s = 0.0;
  for (size_t j = 0; j < points.size(); ++j) {
    if (weights[j] != 0.0 && query.Contains(points[j])) s += weights[j];
  }
  return std::clamp(s, 0.0, 1.0);
}

}  // namespace sel

#endif  // SEL_TESTS_REFERENCE_EVAL_H_
