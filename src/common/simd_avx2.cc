// AVX2 variant: the kernel body of simd_vector.inc at 4 doubles per
// vector, two vectors per block. Compiled with per-file -mavx2 -mfma
// -ffp-contract=off (src/CMakeLists.txt); where the flags are
// unavailable the guarded body vanishes and GetAvx2Ops() returns
// nullptr, so the binary keeps running on SSE2-only hosts. FMA is
// required by the dispatch gate but never fused into value-bearing
// arithmetic, which would break bit-identity across levels (simd.h).
#include "common/simd.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>

namespace sel {
namespace simd_detail {
namespace {

constexpr int kWidth = 4;
typedef double V __attribute__((vector_size(kWidth * sizeof(double))));

inline V Splat(double x) { return V{x, x, x, x}; }
inline V Max(V a, V b) { return _mm256_max_pd(a, b); }
inline V Min(V a, V b) { return _mm256_min_pd(a, b); }
inline V And(V a, V b) { return _mm256_and_pd(a, b); }
inline V Ge(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
inline V Le(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
inline V Gather(const double* x, const int32_t* i) {
  const V zero{};  // masked form: the unmasked one warns (undefined source)
  return _mm256_mask_i32gather_pd(
      zero, x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(i)),
      (V)(zero == zero), 8);
}

#include "common/simd_vector.inc"

}  // namespace

const SimdOps* GetAvx2Ops() {
  static constexpr SimdOps ops = VectorOps(SimdLevel::kAvx2);
  return &ops;
}

}  // namespace simd_detail
}  // namespace sel

#else  // !(x86-64 && AVX2 && FMA)

namespace sel {
namespace simd_detail {
const SimdOps* GetAvx2Ops() { return nullptr; }
}  // namespace simd_detail
}  // namespace sel

#endif
