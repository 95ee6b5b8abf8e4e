// Portable SIMD kernel layer with one-time runtime dispatch.
//
// The serving and solver hot loops — the CompiledPlan box/point leaf
// scans (Eq. 6/7) and the FISTA/PGD matvec-and-update loops of Eq. (8)
// — all reduce to a handful of flat-array kernels. This header names
// those kernels once (`SimdOps`); three translation units implement
// them per ISA:
//
//   common/simd.cc       scalar reference (always present, any arch)
//   common/simd_sse2.cc  SSE2 (x86-64 baseline; 2-wide doubles)
//   common/simd_avx2.cc  AVX2+FMA (4-wide doubles; the TU is compiled
//                        with per-file -mavx2 -mfma, never a global
//                        -march, so the binary stays runnable on
//                        SSE2-only hosts)
//
// One variant is selected at startup: CPUID (via
// __builtin_cpu_supports) picks the widest supported table, and the
// SEL_SIMD={auto,avx2,sse2,scalar} environment knob — parsed once,
// mirroring SEL_THREADS / SEL_METRICS — can pin it down for
// A/B-testing or bug triage. Requests above what the host supports
// clamp down; malformed values abort at startup (the SEL_FAULTS
// convention). Tests force variants programmatically via
// SetSimdLevel().
//
// Determinism contract (DESIGN.md §12): every reduction kernel uses the
// SAME fixed lane-striped blocked order in every variant — kSimdBlock
// running partial sums S_i (element j accumulates into S_{j mod 8}),
// combined as m_i = S_i + S_{i+4} and finally (m0+m2) + (m1+m3) — and
// no variant uses FMA contraction in value-bearing arithmetic. A given
// input therefore produces BIT-IDENTICAL results under every SEL_SIMD
// value; only the old purely-sequential summation order changed, which
// is covered by the plan-vs-virtual <= 1e-12 tolerance.
#ifndef SEL_COMMON_SIMD_H_
#define SEL_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace sel {

/// Dispatch levels, widest last. kSse2/kAvx2 exist only on x86-64; on
/// other architectures MaxSupportedSimdLevel() is kScalar.
enum class SimdLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// "scalar", "sse2", "avx2" — the SEL_SIMD spellings.
const char* SimdLevelName(SimdLevel level);

/// Parses a SEL_SIMD value ("auto" resolves to MaxSupportedSimdLevel()).
/// Returns false on an unknown spelling.
bool ParseSimdLevel(const std::string& text, SimdLevel* out);

/// Widest level both compiled in and supported by this CPU.
SimdLevel MaxSupportedSimdLevel();

/// The level actually serving (env knob ∧ CPU support ∧ overrides).
SimdLevel ActiveSimdLevel();

/// Programmatic override of the SEL_SIMD knob (tests, benches). Levels
/// above MaxSupportedSimdLevel() clamp down. Updates the `simd.path`
/// gauge. Not for use concurrently with running kernels.
void SetSimdLevel(SimdLevel level);

/// Doubles per reduction block: the widest vector (4) times two
/// accumulators. Every reduction kernel strides its lane sums by this,
/// so the combine order is variant-independent.
inline constexpr size_t kSimdBlock = 8;

/// Alignment (bytes) of kernel-facing backing stores: one full block
/// per cache line.
inline constexpr size_t kSimdAlign = 64;

/// Padded length of a kernel-facing run of `n` doubles: a multiple of
/// kSimdBlock with at least kSimdBlock-1 slack, so a full-width load
/// starting at ANY in-range element stays in bounds — kernels never
/// need scalar tail loops over padded arrays.
inline constexpr size_t SimdPaddedCount(size_t n) {
  return (n + 2 * (kSimdBlock - 1)) / kSimdBlock * kSimdBlock;
}

/// Minimal 64-byte-aligned allocator for kernel backing stores.
template <typename T>
struct SimdAllocator {
  using value_type = T;
  SimdAllocator() = default;
  template <typename U>
  SimdAllocator(const SimdAllocator<U>&) {}  // NOLINT(runtime/explicit)
  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kSimdAlign)));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t(kSimdAlign));
  }
  template <typename U>
  bool operator==(const SimdAllocator<U>&) const { return true; }
  template <typename U>
  bool operator!=(const SimdAllocator<U>&) const { return false; }
};

/// 64-byte-aligned double vector (the CompiledPlan SoA backing store).
using AlignedVector = std::vector<double, SimdAllocator<double>>;

/// One ISA variant's kernel table. All pointers are non-null in every
/// table. Reduction kernels follow the blocked-order contract above;
/// elementwise kernels perform the identical per-element operation
/// sequence in every variant, so both families are bit-stable across
/// dispatch levels.
struct SimdOps {
  SimdLevel level;

  /// Eq. (6) partial sum over box entries [begin, end) of a PADDED
  /// coordinate-major SoA (coordinate c's run starts at c*run_stride;
  /// run_stride >= SimdPaddedCount(total entries)). Per entry:
  /// branchless clamp/intersect width product over all dims, dead if
  /// any width <= 0, else weight * min(1, max(0, prod * inv_vol)).
  double (*box_leaf_sum)(const double* qlo, const double* qhi, int dim,
                         const double* lo, const double* hi,
                         const double* weight, const double* inv_vol,
                         size_t run_stride, size_t begin, size_t end);

  /// Eq. (7) partial sum over point entries [begin, end) of a PADDED
  /// coordinate-major SoA: alive-mask AND over dims of
  /// qlo[c] <= x <= qhi[c], summing the weights of alive entries.
  double (*point_leaf_sum)(const double* qlo, const double* qhi, int dim,
                           const double* coords, const double* weight,
                           size_t run_stride, size_t begin, size_t end);

  /// Blocked dot product over unpadded arrays (tail block is lane-
  /// filled, never reordered).
  double (*dot)(const double* a, const double* b, size_t n);

  /// Blocked sum of squares (dot(a, a) in one pass).
  double (*squared_norm)(const double* a, size_t n);

  /// Blocked sparse row dot: sum_k vals[k] * x[cols[k]] over one CSR
  /// row's (col, value) run. Tail blocks are lane-filled from temps, so
  /// the run needs no padding.
  double (*sparse_dot)(const int32_t* cols, const double* vals, size_t n,
                       const double* x);

  // Elementwise kernels (identical per-element rounding in every
  // variant; alpha/beta applied as one multiply then one add, no FMA).
  void (*axpy)(double alpha, const double* x, double* y, size_t n);
  /// out[i] = x[i] + alpha * y[i].
  void (*axpby_out)(const double* x, double alpha, const double* y,
                    double* out, size_t n);
  /// y[i] = w[i] + beta * (w[i] - w_prev[i])  (FISTA extrapolation).
  void (*extrapolate)(const double* w, const double* w_prev, double beta,
                      double* y, size_t n);
  /// r[i] -= s[i].
  void (*sub_inplace)(double* r, const double* s, size_t n);
  /// v[i] = max(0, v[i] - tau)  (simplex-projection threshold).
  void (*shift_relu)(double* v, double tau, size_t n);
};

/// The active variant's kernel table (one relaxed atomic load; the
/// first call resolves SEL_SIMD and CPUID).
const SimdOps& Simd();

// --- Call-site wrappers with per-kernel usage counters (inert unless
// SEL_METRICS is on). Serving counts per leaf; solver code counts at
// the matvec/solve level instead (see dense.h / sparse.h / qp.cc). ---

inline double SimdBoxLeafSum(const double* qlo, const double* qhi, int dim,
                             const double* lo, const double* hi,
                             const double* weight, const double* inv_vol,
                             size_t run_stride, size_t begin, size_t end) {
  SEL_METRIC_COUNTER_INC("simd.kernel.box_leaf");
  return Simd().box_leaf_sum(qlo, qhi, dim, lo, hi, weight, inv_vol,
                             run_stride, begin, end);
}

inline double SimdPointLeafSum(const double* qlo, const double* qhi, int dim,
                               const double* coords, const double* weight,
                               size_t run_stride, size_t begin, size_t end) {
  SEL_METRIC_COUNTER_INC("simd.kernel.point_leaf");
  return Simd().point_leaf_sum(qlo, qhi, dim, coords, weight, run_stride,
                               begin, end);
}

namespace simd_detail {
// Per-ISA table factories; a TU compiled without its ISA returns
// nullptr and dispatch falls through to the next narrower level.
const SimdOps* GetScalarOps();
const SimdOps* GetSse2Ops();
const SimdOps* GetAvx2Ops();
}  // namespace simd_detail

}  // namespace sel

#endif  // SEL_COMMON_SIMD_H_
