#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace zerotune::nn::kernels {

#if ZEROTUNE_SIMD_AVX2
namespace avx2 {
// Implemented in kernels_avx2.cc (the only TU built with -mavx2 -mfma).
void AddF64(double* acc, const double* x, size_t n);
void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out);
void GemmRowMajorF32(const float* a, size_t m, size_t k, const float* b,
                     size_t n, float* out);
void AddF32(float* acc, const float* x, size_t n);
void MeanRowsF32(float* dst, const float* const* rows, size_t count,
                 size_t n);
void BiasActRowF32(float* x, const float* bias, size_t n, FusedAct act);
}  // namespace avx2
#endif  // ZEROTUNE_SIMD_AVX2

namespace {

std::atomic<bool> g_force_scalar{false};

bool DetectSimd() {
#if ZEROTUNE_SIMD_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// One relaxed load on the hot path; the cpuid probe runs once.
inline bool UseSimd() {
  static const bool supported = DetectSimd();
  return supported && !g_force_scalar.load(std::memory_order_relaxed);
}

// -------------------------------------------------------------------
// Scalar reference implementations: plain loops in the summation order
// the numerics contract in kernels.h documents, with no fused rounding.
// -------------------------------------------------------------------
namespace scalar {

void AddF64(double* acc, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += x[i];
}

void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out) {
  std::fill(out, out + m * n, 0.0);
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = out + i * n;
    for (size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      if (aik == 0.0) continue;  // feature rows are sparse; 0·x adds ±0
      const double* brow = b + kk * n;
      for (size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
}

void GemmRowMajorF32(const float* a, size_t m, size_t k, const float* b,
                     size_t n, float* out) {
  std::memset(out, 0, m * n * sizeof(float));
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;  // feature rows are sparse; 0·x adds ±0
      const float* brow = b + kk * n;
      for (size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
}

void AddF32(float* acc, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += x[i];
}

void MeanRowsF32(float* dst, const float* const* rows, size_t count,
                 size_t n) {
  const float inv = 1.0f / static_cast<float>(count);
  for (size_t i = 0; i < n; ++i) {
    float acc = rows[0][i];
    for (size_t r = 1; r < count; ++r) acc += rows[r][i];
    dst[i] = acc * inv;
  }
}

void BiasActRowF32(float* x, const float* bias, size_t n, FusedAct act) {
  for (size_t i = 0; i < n; ++i) x[i] += bias[i];
  if (act == FusedAct::kLeakyRelu) {
    const float slope = static_cast<float>(kLeakyReluSlope);
    for (size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : slope * x[i];
  }
}

}  // namespace scalar
}  // namespace

const char* IsaName(Isa isa) {
  return isa == Isa::kAvx2Fma ? "avx2-fma" : "scalar";
}

bool SimdCompiledIn() {
#if ZEROTUNE_SIMD_AVX2
  return true;
#else
  return false;
#endif
}

bool SimdSupported() {
  static const bool supported = DetectSimd();
  return supported;
}

Isa ActiveIsa() { return UseSimd() ? Isa::kAvx2Fma : Isa::kScalar; }

void ForceScalar(bool on) {
  g_force_scalar.store(on, std::memory_order_relaxed);
}

#if ZEROTUNE_SIMD_AVX2
#define ZT_KERNEL_DISPATCH(fn, ...) \
  return UseSimd() ? avx2::fn(__VA_ARGS__) : scalar::fn(__VA_ARGS__)
#else
#define ZT_KERNEL_DISPATCH(fn, ...) return scalar::fn(__VA_ARGS__)
#endif

void AddF64(double* acc, const double* x, size_t n) {
  ZT_KERNEL_DISPATCH(AddF64, acc, x, n);
}

void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out) {
  ZT_KERNEL_DISPATCH(GemmRowMajorF64, a, m, k, b, n, out);
}

void GemmRowMajorF32(const float* a, size_t m, size_t k, const float* b,
                     size_t n, float* out) {
  ZT_KERNEL_DISPATCH(GemmRowMajorF32, a, m, k, b, n, out);
}

void AddF32(float* acc, const float* x, size_t n) {
  ZT_KERNEL_DISPATCH(AddF32, acc, x, n);
}

void MeanRowsF32(float* dst, const float* const* rows, size_t count,
                 size_t n) {
  ZT_KERNEL_DISPATCH(MeanRowsF32, dst, rows, count, n);
}

void BiasActRowF32(float* x, const float* bias, size_t n, FusedAct act) {
  ZT_KERNEL_DISPATCH(BiasActRowF32, x, bias, n, act);
}

#undef ZT_KERNEL_DISPATCH

}  // namespace zerotune::nn::kernels
