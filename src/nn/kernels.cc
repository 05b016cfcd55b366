#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

namespace zerotune::nn::kernels {

#if ZEROTUNE_SIMD_AVX2
namespace avx2 {
// Implemented in kernels_avx2.cc (the only TU built with -mavx2 -mfma).
void AddF64(double* acc, const double* x, size_t n);
void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out);
void GemmTransAF64(const double* a, size_t k, size_t m, const double* b,
                   size_t n, double* out);
void AdamStepF64(double* w, double* m, double* v, const double* grad,
                 size_t n, const AdamStepF64Args& args);
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

/// The fp64 GEMM over a left operand whose element (i, kk) is
/// a[i·row_step + kk·k_step]: GemmRowMajorF64 (row_step k, k_step 1) and
/// GemmTransAF64 (row_step 1, k_step m) are the same sums.
void GemmStridedAF64(const double* a, size_t row_step, size_t k_step,
                     size_t m, size_t k, const double* b, size_t n,
                     double* out) {
  std::fill(out, out + m * n, 0.0);
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * row_step;
    double* orow = out + i * n;
    for (size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk * k_step];
      if (aik == 0.0) continue;  // feature rows are sparse; 0·x adds ±0
      const double* brow = b + kk * n;
      for (size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
}

void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out) {
  GemmStridedAF64(a, k, 1, m, k, b, n, out);
}

void GemmTransAF64(const double* a, size_t k, size_t m, const double* b,
                   size_t n, double* out) {
  GemmStridedAF64(a, 1, m, m, k, b, n, out);
}

void AdamStepF64(double* w, double* m, double* v, const double* grad,
                 size_t n, const AdamStepF64Args& args) {
  const double c1 = 1.0 - args.beta1;
  const double c2 = 1.0 - args.beta2;
  const bool decay = args.weight_decay > 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double g = grad[i] * args.grad_scale;
    m[i] = args.beta1 * m[i] + c1 * g;
    v[i] = args.beta2 * v[i] + c2 * g * g;
    const double mhat = m[i] / args.bias_correction1;
    const double vhat = v[i] / args.bias_correction2;
    double update = mhat / (std::sqrt(vhat) + args.epsilon);
    if (decay) update += args.weight_decay * w[i];
    w[i] -= args.learning_rate * update;
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

void GemmTransAF64(const double* a, size_t k, size_t m, const double* b,
                   size_t n, double* out) {
  ZT_KERNEL_DISPATCH(GemmTransAF64, a, k, m, b, n, out);
}

void AdamStepF64(double* w, double* m, double* v, const double* grad,
                 size_t n, const AdamStepF64Args& args) {
  ZT_KERNEL_DISPATCH(AdamStepF64, w, m, v, grad, n, args);
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
