// Euclidean projection onto the probability simplex
// {w : w >= 0, sum w = 1} (Duchi, Shalev-Shwartz, Singer, Chandra 2008),
// the building block of the projected-gradient QP solver for Eq. (8).
#ifndef SEL_SOLVER_SIMPLEX_PROJECTION_H_
#define SEL_SOLVER_SIMPLEX_PROJECTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "solver/dense.h"

namespace sel {

/// Projects `v` in place onto the simplex of the given total mass
/// (default 1). O(n log n): one sort of the coordinates.
void ProjectToSimplex(Vector* v, double total = 1.0);

/// Returns the projection of `v` onto the simplex.
Vector SimplexProjection(Vector v, double total = 1.0);

/// Repeated projections of vectors whose coordinate order changes little
/// from one call to the next, such as successive FISTA iterates. Keeps
/// the previous call's descending order and insertion-sorts it against
/// the new values: O(n + shifts), falling back to a full sort once the
/// shifts pass n * log2(n), so a call never costs much more than
/// ProjectToSimplex. The result has the same bits as ProjectToSimplex:
/// the descending sequence of values is unique, so its prefix sums, rho
/// and tau are too. One instance per solve; not thread-safe.
class SimplexProjector {
 public:
  /// Projects v[0..n) in place onto the simplex of mass `total`.
  void Project(double* v, size_t n, double total = 1.0);

 private:
  struct Entry {
    double value;
    int32_t index;
  };
  std::vector<Entry> order_;  ///< Descending by value after each call.
};

}  // namespace sel

#endif  // SEL_SOLVER_SIMPLEX_PROJECTION_H_
