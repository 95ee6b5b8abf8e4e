// SSE2 variant (x86-64 baseline): the kernel body of simd_vector.inc at
// 2 doubles per vector, four vectors per block. Compiled with
// -ffp-contract=off (src/CMakeLists.txt); on non-x86 targets the
// guarded body vanishes and GetSse2Ops() returns nullptr.
#include "common/simd.h"

#if defined(__x86_64__) && defined(__SSE2__)

#include <emmintrin.h>

#include <cstring>

namespace sel {
namespace simd_detail {
namespace {

constexpr int kWidth = 2;
typedef double V __attribute__((vector_size(kWidth * sizeof(double))));

inline V Splat(double x) { return V{x, x}; }
inline V Max(V a, V b) { return _mm_max_pd(a, b); }
inline V Min(V a, V b) { return _mm_min_pd(a, b); }
inline V And(V a, V b) { return _mm_and_pd(a, b); }
inline V Ge(V a, V b) { return _mm_cmpge_pd(a, b); }
inline V Le(V a, V b) { return _mm_cmple_pd(a, b); }
inline V Gather(const double* x, const int32_t* i) {
  return V{x[i[0]], x[i[1]]};
}

#include "common/simd_vector.inc"

}  // namespace

const SimdOps* GetSse2Ops() {
  static constexpr SimdOps ops = VectorOps(SimdLevel::kSse2);
  return &ops;
}

}  // namespace simd_detail
}  // namespace sel

#else  // !(x86-64 && SSE2)

namespace sel {
namespace simd_detail {
const SimdOps* GetSse2Ops() { return nullptr; }
}  // namespace simd_detail
}  // namespace sel

#endif
