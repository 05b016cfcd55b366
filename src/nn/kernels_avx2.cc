// AVX2+FMA kernel implementations. This is the ONLY translation unit in
// the project built with -mavx2 -mfma (see src/nn/CMakeLists.txt) and
// the only place raw vendor intrinsics are allowed (ztlint ZT-S007):
// code here runs strictly behind the runtime cpuid dispatch in
// kernels.cc, so the rest of the binary stays runnable on any x86-64.
//
// Numerics: the GEMMs use the broadcast formulation (for each output
// row, broadcast a[i][k] into column-vector accumulators), so every
// output element sums its k terms in ascending order. The fp32 GEMM
// fuses each step with FMA, its only difference from the scalar path.
// The fp64 GEMMs multiply and add separately, and the Adam step uses
// only correctly rounded operations (vdivpd, vsqrtpd) in the scalar
// order; this file builds with -ffp-contract=off, so the compiler cannot
// fuse them, and they are bit-identical to scalar like the element-wise
// kernels.
//
// All loads and stores are unaligned (loadu/storeu/maskload/maskstore):
// callers may slice rows at any element offset.
#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/kernels.h"

namespace zerotune::nn::kernels::avx2 {

namespace {

/// Load mask for the final 1–7 floats of a row (rem in [0, 8)).
inline __m256i TailMask8(size_t rem) {
  alignas(32) static const int32_t kMask[16] = {-1, -1, -1, -1, -1, -1, -1,
                                                -1, 0,  0,  0,  0,  0,  0,
                                                0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + (8 - rem)));
}

/// Two A-rows per k pass at the project's hidden width (n = 48): twelve
/// accumulators hold both 48-wide output rows, so each B row is loaded
/// once per *pair* of FMAs instead of once per FMA — the single-row tile
/// is load-bound, not FMA-bound, at these shapes. Per-row accumulation
/// stays ascending-k with one fused rounding per element, and a k step
/// is skipped only when both a-elements are zero (0·x + acc == acc), so
/// each output row is bit-identical to the single-row tile's.
/// Register budget: 12 accumulators + 2 broadcasts + 1 B temp ≤ 16 ymm.
void GemmRowPairF32N48(const float* a0, const float* a1, size_t k,
                       const float* b, float* o0, float* o1) {
  __m256 p00 = _mm256_setzero_ps(), p01 = _mm256_setzero_ps();
  __m256 p02 = _mm256_setzero_ps(), p03 = _mm256_setzero_ps();
  __m256 p04 = _mm256_setzero_ps(), p05 = _mm256_setzero_ps();
  __m256 p10 = _mm256_setzero_ps(), p11 = _mm256_setzero_ps();
  __m256 p12 = _mm256_setzero_ps(), p13 = _mm256_setzero_ps();
  __m256 p14 = _mm256_setzero_ps(), p15 = _mm256_setzero_ps();
  for (size_t kk = 0; kk < k; ++kk) {
    const float x0 = a0[kk];
    const float x1 = a1[kk];
    if ((x0 == 0.0f) & (x1 == 0.0f)) continue;
    const __m256 v0 = _mm256_set1_ps(x0);
    const __m256 v1 = _mm256_set1_ps(x1);
    const float* brow = b + kk * 48;
    __m256 t = _mm256_loadu_ps(brow);
    p00 = _mm256_fmadd_ps(v0, t, p00);
    p10 = _mm256_fmadd_ps(v1, t, p10);
    t = _mm256_loadu_ps(brow + 8);
    p01 = _mm256_fmadd_ps(v0, t, p01);
    p11 = _mm256_fmadd_ps(v1, t, p11);
    t = _mm256_loadu_ps(brow + 16);
    p02 = _mm256_fmadd_ps(v0, t, p02);
    p12 = _mm256_fmadd_ps(v1, t, p12);
    t = _mm256_loadu_ps(brow + 24);
    p03 = _mm256_fmadd_ps(v0, t, p03);
    p13 = _mm256_fmadd_ps(v1, t, p13);
    t = _mm256_loadu_ps(brow + 32);
    p04 = _mm256_fmadd_ps(v0, t, p04);
    p14 = _mm256_fmadd_ps(v1, t, p14);
    t = _mm256_loadu_ps(brow + 40);
    p05 = _mm256_fmadd_ps(v0, t, p05);
    p15 = _mm256_fmadd_ps(v1, t, p15);
  }
  _mm256_storeu_ps(o0, p00);
  _mm256_storeu_ps(o0 + 8, p01);
  _mm256_storeu_ps(o0 + 16, p02);
  _mm256_storeu_ps(o0 + 24, p03);
  _mm256_storeu_ps(o0 + 32, p04);
  _mm256_storeu_ps(o0 + 40, p05);
  _mm256_storeu_ps(o1, p10);
  _mm256_storeu_ps(o1 + 8, p11);
  _mm256_storeu_ps(o1 + 16, p12);
  _mm256_storeu_ps(o1 + 24, p13);
  _mm256_storeu_ps(o1 + 32, p14);
  _mm256_storeu_ps(o1 + 40, p15);
}

/// One fp64 output-row tile of kVecs·4 columns starting at column j:
/// kVecs accumulators stay in registers across the whole k loop (at
/// n = 48, twelve of them cover the row in one pass). The row's kk-th
/// a-element is arow[kk·k_step].
template <size_t kVecs>
inline void GemmRowTileF64(const double* arow, size_t k_step, size_t k,
                           const double* b, size_t n, size_t j,
                           double* orow) {
  __m256d acc[kVecs];
  for (size_t v = 0; v < kVecs; ++v) acc[v] = _mm256_setzero_pd();
  for (size_t kk = 0; kk < k; ++kk) {
    const double aik = arow[kk * k_step];
    if (aik == 0.0) continue;
    const __m256d av = _mm256_set1_pd(aik);
    const double* brow = b + kk * n + j;
    for (size_t v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_add_pd(
          acc[v], _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4 * v)));
    }
  }
  for (size_t v = 0; v < kVecs; ++v) {
    _mm256_storeu_pd(orow + j + 4 * v, acc[v]);
  }
}

/// One output row of the fp64 GEMM whose left operand's row is
/// arow[kk·k_step] for kk in [0, k).
void GemmRowF64(const double* arow, size_t k_step, size_t k, const double* b,
                size_t n, double* orow) {
  size_t j = 0;
  for (; j + 48 <= n; j += 48) {
    GemmRowTileF64<12>(arow, k_step, k, b, n, j, orow);
  }
  for (; j + 16 <= n; j += 16) {
    GemmRowTileF64<4>(arow, k_step, k, b, n, j, orow);
  }
  for (; j + 4 <= n; j += 4) GemmRowTileF64<1>(arow, k_step, k, b, n, j, orow);
  // Columns past the last 4-wide tile (the readout's n = 2): the same
  // sum, one scalar accumulator per column.
  for (; j < n; ++j) {
    double acc = 0.0;
    for (size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk * k_step];
      if (aik == 0.0) continue;
      acc += aik * b[kk * n + j];
    }
    orow[j] = acc;
  }
}

}  // namespace

void AddF64(double* acc, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                               _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out) {
  for (size_t i = 0; i < m; ++i) GemmRowF64(a + i * k, 1, k, b, n, out + i * n);
}

void GemmTransAF64(const double* a, size_t k, size_t m, const double* b,
                   size_t n, double* out) {
  for (size_t i = 0; i < m; ++i) GemmRowF64(a + i, m, k, b, n, out + i * n);
}

void AdamStepF64(double* w, double* m, double* v, const double* grad,
                 size_t n, const AdamStepF64Args& args) {
  const double c1 = 1.0 - args.beta1;
  const double c2 = 1.0 - args.beta2;
  const bool decay = args.weight_decay > 0.0;
  const __m256d beta1 = _mm256_set1_pd(args.beta1);
  const __m256d beta2 = _mm256_set1_pd(args.beta2);
  const __m256d one_minus_beta1 = _mm256_set1_pd(c1);
  const __m256d one_minus_beta2 = _mm256_set1_pd(c2);
  const __m256d bc1 = _mm256_set1_pd(args.bias_correction1);
  const __m256d bc2 = _mm256_set1_pd(args.bias_correction2);
  const __m256d eps = _mm256_set1_pd(args.epsilon);
  const __m256d wd = _mm256_set1_pd(args.weight_decay);
  const __m256d lr = _mm256_set1_pd(args.learning_rate);
  const __m256d scale = _mm256_set1_pd(args.grad_scale);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_mul_pd(_mm256_loadu_pd(grad + i), scale);
    const __m256d mi =
        _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + i)),
                      _mm256_mul_pd(one_minus_beta1, g));
    const __m256d vi = _mm256_add_pd(
        _mm256_mul_pd(beta2, _mm256_loadu_pd(v + i)),
        _mm256_mul_pd(_mm256_mul_pd(one_minus_beta2, g), g));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bc1);
    const __m256d vhat = _mm256_div_pd(vi, bc2);
    __m256d update =
        _mm256_div_pd(mhat, _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    const __m256d wi = _mm256_loadu_pd(w + i);
    if (decay) update = _mm256_add_pd(update, _mm256_mul_pd(wd, wi));
    _mm256_storeu_pd(w + i, _mm256_sub_pd(wi, _mm256_mul_pd(lr, update)));
  }
  // The last 1–3 elements: the same operations, one lane at a time.
  for (; i < n; ++i) {
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
  size_t row0 = 0;
  if (n == 48) {
    for (; row0 + 2 <= m; row0 += 2) {
      GemmRowPairF32N48(a + row0 * k, a + (row0 + 1) * k, k, b,
                        out + row0 * 48, out + (row0 + 1) * 48);
    }
  }
  for (size_t i = row0; i < m; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    size_t j = 0;
    // 48-column tiles: six 8-lane accumulators cover the project's
    // hidden width (48) in a single k pass — one branch + broadcast per
    // a-element for the whole row instead of one per narrow tile, which
    // is what these front-end-bound shapes actually pay for.
    for (; j + 48 <= n; j += 48) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      __m256 acc4 = _mm256_setzero_ps();
      __m256 acc5 = _mm256_setzero_ps();
      for (size_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;
        const __m256 av = _mm256_set1_ps(aik);
        const float* brow = b + kk * n + j;
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 24), acc3);
        acc4 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 32), acc4);
        acc5 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 40), acc5);
      }
      _mm256_storeu_ps(orow + j, acc0);
      _mm256_storeu_ps(orow + j + 8, acc1);
      _mm256_storeu_ps(orow + j + 16, acc2);
      _mm256_storeu_ps(orow + j + 24, acc3);
      _mm256_storeu_ps(orow + j + 32, acc4);
      _mm256_storeu_ps(orow + j + 40, acc5);
    }
    // 32-column tiles: four 8-lane accumulators stay in registers across
    // the whole k loop, one broadcast per a-element per tile.
    for (; j + 32 <= n; j += 32) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (size_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;
        const __m256 av = _mm256_set1_ps(aik);
        const float* brow = b + kk * n + j;
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 24), acc3);
      }
      _mm256_storeu_ps(orow + j, acc0);
      _mm256_storeu_ps(orow + j + 8, acc1);
      _mm256_storeu_ps(orow + j + 16, acc2);
      _mm256_storeu_ps(orow + j + 24, acc3);
    }
    for (; j + 16 <= n; j += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (size_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;
        const __m256 av = _mm256_set1_ps(aik);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + kk * n + j), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + kk * n + j + 8),
                               acc1);
      }
      _mm256_storeu_ps(orow + j, acc0);
      _mm256_storeu_ps(orow + j + 8, acc1);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (size_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;
        acc = _mm256_fmadd_ps(_mm256_set1_ps(aik),
                              _mm256_loadu_ps(b + kk * n + j), acc);
      }
      _mm256_storeu_ps(orow + j, acc);
    }
    if (j < n) {
      const __m256i mask = TailMask8(n - j);
      __m256 acc = _mm256_setzero_ps();
      for (size_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;
        acc = _mm256_fmadd_ps(_mm256_set1_ps(aik),
                              _mm256_maskload_ps(b + kk * n + j, mask), acc);
      }
      _mm256_maskstore_ps(orow + j, mask, acc);
    }
  }
}

void AddF32(float* acc, const float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i),
                               _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void MeanRowsF32(float* dst, const float* const* rows, size_t count,
                 size_t n) {
  const __m256 inv = _mm256_set1_ps(1.0f / static_cast<float>(count));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 acc = _mm256_loadu_ps(rows[0] + i);
    for (size_t r = 1; r < count; ++r) {
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(rows[r] + i));
    }
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(acc, inv));
  }
  if (i < n) {
    const float scalar_inv = 1.0f / static_cast<float>(count);
    for (; i < n; ++i) {
      float acc = rows[0][i];
      for (size_t r = 1; r < count; ++r) acc += rows[r][i];
      dst[i] = acc * scalar_inv;
    }
  }
}

void BiasActRowF32(float* x, const float* bias, size_t n, FusedAct act) {
  const bool leaky = act == FusedAct::kLeakyRelu;
  const float slope = static_cast<float>(kLeakyReluSlope);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 leak = _mm256_set1_ps(slope);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(bias + i));
    if (leaky) {
      const __m256 gt = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
      v = _mm256_blendv_ps(_mm256_mul_ps(v, leak), v, gt);
    }
    _mm256_storeu_ps(x + i, v);
  }
  for (; i < n; ++i) {
    float v = x[i] + bias[i];
    if (leaky) v = v > 0.0f ? v : slope * v;
    x[i] = v;
  }
}

}  // namespace zerotune::nn::kernels::avx2
