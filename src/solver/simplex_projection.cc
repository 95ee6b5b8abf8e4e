#include "solver/simplex_projection.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/simd.h"

namespace sel {

namespace {

/// Sorts e[0..n) descending by value by insertion when that takes at most
/// `budget` element shifts. Returns false, with e left a permutation of
/// its input, once the shifts pass the budget.
template <typename Entry>
bool InsertionSortDescending(Entry* e, size_t n, size_t budget) {
  size_t shifts = 0;
  for (size_t i = 1; i < n; ++i) {
    const Entry x = e[i];
    size_t j = i;
    while (j > 0 && e[j - 1].value < x.value) {
      e[j] = e[j - 1];
      --j;
    }
    e[j] = x;
    shifts += i - j;
    if (shifts > budget) return false;
  }
  return true;
}

}  // namespace

void SimplexProjector::Project(double* v, size_t n, double total) {
  SEL_CHECK(v != nullptr && n > 0);
  SEL_CHECK(total > 0.0);
  const auto descending = [](const Entry& a, const Entry& b) {
    return a.value > b.value;
  };
  if (order_.size() != n) {
    order_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      order_[i] = Entry{v[i], static_cast<int32_t>(i)};
    }
    std::sort(order_.begin(), order_.end(), descending);
  } else {
    for (Entry& e : order_) e.value = v[e.index];
    if (!InsertionSortDescending(order_.data(), n,
                                 n * static_cast<size_t>(std::bit_width(n)))) {
      std::sort(order_.begin(), order_.end(), descending);
    }
  }
  // Duchi et al.: find tau so that sum max(v_i - tau, 0) = total.
  double cumsum = 0.0;
  double tau = 0.0;
  int rho = 0;
  for (size_t i = 0; i < n; ++i) {
    const double x = order_[i].value;
    cumsum += x;
    const double t = (cumsum - total) / static_cast<double>(i + 1);
    if (x - t > 0.0) {
      rho = static_cast<int>(i + 1);
      tau = t;
    }
  }
  SEL_CHECK(rho > 0);
  Simd().shift_relu(v, tau, n);
}

void ProjectToSimplex(Vector* v, double total) {
  SEL_CHECK(v != nullptr);
  SimplexProjector().Project(v->data(), v->size(), total);
}

Vector SimplexProjection(Vector v, double total) {
  ProjectToSimplex(&v, total);
  return v;
}

}  // namespace sel
