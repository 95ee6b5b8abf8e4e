// Runtime dispatch plus the scalar reference variant of every kernel.
//
// The scalar kernels are the semantic definition of the layer: each one
// spells out the exact per-element operation sequence and the fixed
// lane-striped blocked reduction the vector variants must reproduce
// bit-for-bit (see simd.h). Helper Min/Max mirror the x86 minpd/maxpd
// operand semantics ((a OP b) ? a : b) so the scalar and vector paths
// agree even on the sign of zero.
#include "common/simd.h"

#include <atomic>

#include "common/check.h"
#include "common/env.h"

namespace sel {

namespace simd_detail {
namespace {

/// Matches _mm_max_pd(a, b): a > b ? a : b.
inline double MaxPd(double a, double b) { return a > b ? a : b; }
/// Matches _mm_min_pd(a, b): a < b ? a : b.
inline double MinPd(double a, double b) { return a < b ? a : b; }

/// The canonical combine of kSimdBlock lane sums: m_i = S_i + S_{i+4},
/// then (m0+m2) + (m1+m3). Every reduction kernel in every variant
/// funnels through exactly this shape.
inline double CombineLanes(const double s[kSimdBlock]) {
  const double m0 = s[0] + s[4];
  const double m1 = s[1] + s[5];
  const double m2 = s[2] + s[6];
  const double m3 = s[3] + s[7];
  return (m0 + m2) + (m1 + m3);
}

double BoxLeafSumScalar(const double* qlo, const double* qhi, int dim,
                        const double* lo, const double* hi,
                        const double* weight, const double* inv_vol,
                        size_t run_stride, size_t begin, size_t end) {
  double lanes[kSimdBlock] = {0.0};
  for (size_t j = begin; j < end; ++j) {
    // Branchless Eq. (6) term: full-width product over every dimension
    // with a dead flag instead of an early break, exactly what the
    // vector variants compute per lane.
    double inter = 1.0;
    bool dead = false;
    for (int c = 0; c < dim; ++c) {
      const size_t at = static_cast<size_t>(c) * run_stride + j;
      const double l = MaxPd(qlo[c], lo[at]);
      const double h = MinPd(qhi[c], hi[at]);
      const double width = h - l;
      dead = dead || width <= 0.0;
      inter *= width;
    }
    const double frac = MinPd(1.0, MaxPd(0.0, inter * inv_vol[j]));
    lanes[(j - begin) % kSimdBlock] += dead ? 0.0 : weight[j] * frac;
  }
  return CombineLanes(lanes);
}

double PointLeafSumScalar(const double* qlo, const double* qhi, int dim,
                          const double* coords, const double* weight,
                          size_t run_stride, size_t begin, size_t end) {
  double lanes[kSimdBlock] = {0.0};
  for (size_t j = begin; j < end; ++j) {
    bool alive = true;
    for (int c = 0; c < dim; ++c) {
      const double x = coords[static_cast<size_t>(c) * run_stride + j];
      alive = alive && x >= qlo[c] && x <= qhi[c];
    }
    lanes[(j - begin) % kSimdBlock] += alive ? weight[j] : 0.0;
  }
  return CombineLanes(lanes);
}

double DotScalar(const double* a, const double* b, size_t n) {
  double lanes[kSimdBlock] = {0.0};
  for (size_t j = 0; j < n; ++j) lanes[j % kSimdBlock] += a[j] * b[j];
  return CombineLanes(lanes);
}

double SquaredNormScalar(const double* a, size_t n) {
  return DotScalar(a, a, n);
}

double SparseDotScalar(const int32_t* cols, const double* vals, size_t n,
                       const double* x) {
  double lanes[kSimdBlock] = {0.0};
  for (size_t j = 0; j < n; ++j) {
    lanes[j % kSimdBlock] += vals[j] * x[cols[j]];
  }
  return CombineLanes(lanes);
}

void AxpyScalar(double alpha, const double* x, double* y, size_t n) {
  for (size_t j = 0; j < n; ++j) y[j] = y[j] + alpha * x[j];
}

void AxpbyOutScalar(const double* x, double alpha, const double* y,
                    double* out, size_t n) {
  for (size_t j = 0; j < n; ++j) out[j] = x[j] + alpha * y[j];
}

void ExtrapolateScalar(const double* w, const double* w_prev, double beta,
                       double* y, size_t n) {
  for (size_t j = 0; j < n; ++j) y[j] = w[j] + beta * (w[j] - w_prev[j]);
}

void ShiftReluScalar(double* v, double tau, size_t n) {
  for (size_t j = 0; j < n; ++j) v[j] = MaxPd(v[j] - tau, 0.0);
}

}  // namespace

const SimdOps* GetScalarOps() {
  static const SimdOps ops = {
      SimdLevel::kScalar,  BoxLeafSumScalar, PointLeafSumScalar,
      DotScalar,           SquaredNormScalar, SparseDotScalar,
      AxpyScalar,          AxpbyOutScalar,    ExtrapolateScalar,
      ShiftReluScalar,
  };
  return &ops;
}

}  // namespace simd_detail

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kSse2: return "sse2";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "unknown";
}

SimdLevel MaxSupportedSimdLevel() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const SimdLevel max = [] {
    if (simd_detail::GetAvx2Ops() != nullptr &&
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return SimdLevel::kAvx2;
    }
    if (simd_detail::GetSse2Ops() != nullptr) return SimdLevel::kSse2;
    return SimdLevel::kScalar;
  }();
  return max;
#else
  return SimdLevel::kScalar;
#endif
}

bool ParseSimdLevel(const std::string& text, SimdLevel* out) {
  if (text == "auto") {
    *out = MaxSupportedSimdLevel();
    return true;
  }
  if (text == "avx2") {
    *out = SimdLevel::kAvx2;
    return true;
  }
  if (text == "sse2") {
    *out = SimdLevel::kSse2;
    return true;
  }
  if (text == "scalar") {
    *out = SimdLevel::kScalar;
    return true;
  }
  return false;
}

namespace {

std::atomic<const SimdOps*> g_active{nullptr};

const SimdOps* TableFor(SimdLevel level) {
  // Clamp to what the host actually supports, then fall through to the
  // next narrower compiled-in table.
  if (static_cast<int>(level) > static_cast<int>(MaxSupportedSimdLevel())) {
    level = MaxSupportedSimdLevel();
  }
  const SimdOps* t = nullptr;
  if (level == SimdLevel::kAvx2) t = simd_detail::GetAvx2Ops();
  if (t == nullptr && level >= SimdLevel::kSse2) {
    t = simd_detail::GetSse2Ops();
  }
  if (t == nullptr) t = simd_detail::GetScalarOps();
  return t;
}

void PublishTable(const SimdOps* table) {
  g_active.store(table, std::memory_order_relaxed);
  // Direct registry write (not the macro): the gauge must reflect the
  // dispatch choice even when it is made before metrics are enabled.
  MetricsRegistry::Global()
      .GetGauge("simd.path")
      .Set(static_cast<int64_t>(table->level));
}

/// One-time SEL_SIMD parse. A malformed value aborts at startup — the
/// SEL_FAULTS convention: a mistyped ops knob must not silently run the
/// wrong variant.
const SimdOps* InitFromEnv() {
  const std::string v = GetEnvString("SEL_SIMD", "auto");
  SimdLevel level = SimdLevel::kScalar;
  SEL_CHECK_MSG(ParseSimdLevel(v, &level),
                "SEL_SIMD must be auto, avx2, sse2, or scalar (got \"%s\")",
                v.c_str());
  const SimdOps* table = TableFor(level);
  PublishTable(table);
  return table;
}

}  // namespace

const SimdOps& Simd() {
  static const SimdOps* init = InitFromEnv();
  (void)init;
  return *g_active.load(std::memory_order_relaxed);
}

SimdLevel ActiveSimdLevel() { return Simd().level; }

void SetSimdLevel(SimdLevel level) {
  (void)Simd();  // force the env parse first, so it never wins later
  PublishTable(TableFor(level));
}

}  // namespace sel
