// nn::kernels contract tests: SIMD-vs-scalar parity of the fp32 GEMM and
// bit-identity of the fp64 GEMMs at awkward shapes (odd tails, 1-row/1-col,
// the readout's n = 2, zero inputs, empty), the strided-A fp64 GEMM equal
// to the row-major one over a transposed copy, the bit-identity guarantees
// of the element-wise kernels and of the Adam step, and tolerance of
// deliberately misaligned rows.
// Every SIMD comparison is skipped automatically on hardware without
// AVX2+FMA and in ZEROTUNE_DISABLE_SIMD builds, where ActiveIsa() is
// already kScalar and there is nothing to compare.
#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"

namespace zerotune::nn::kernels {
namespace {

// Restores the dispatch override even when an assertion fails mid-test.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) { ForceScalar(on); }
  ~ScopedForceScalar() { ForceScalar(false); }
};

bool SimdActiveByDefault() { return ActiveIsa() == Isa::kAvx2Fma; }

std::vector<double> RandomVec(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Gaussian(0.0, 1.0);
  return v;
}

std::vector<float> RandomVecF32(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Gaussian(0.0, 1.0));
  return v;
}

// Bitwise equality of two n-element buffers. n = 0 compares nothing: an
// empty vector's data() may be null, which memcmp must never receive.
template <typename T>
bool BitsEqual(const T* a, const T* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(T)) == 0;
}

// Shapes chosen to hit every vector-width boundary of the fp64 (4-lane)
// and fp32 (8-lane) paths: empty, single element, sub-vector tails,
// exact multiples, and a multiple-plus-odd-tail.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 48, 49};

TEST(KernelsDispatchTest, IsaNamesAreStable) {
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2Fma), "avx2-fma");
}

TEST(KernelsDispatchTest, ForceScalarOverridesActiveIsa) {
  {
    ScopedForceScalar guard(true);
    EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  }
  // After the guard, the ISA reflects hardware + build flags again.
  EXPECT_EQ(ActiveIsa() == Isa::kAvx2Fma, SimdCompiledIn() && SimdSupported());
}

TEST(KernelsDispatchTest, SimdSupportImpliesCompiledIn) {
  if (SimdSupported()) {
    EXPECT_TRUE(SimdCompiledIn());
  }
}

// --- GEMM ------------------------------------------------------------
//
// Every case runs the fp32 GEMM and, as extra inputs, the fp64 GEMM.
// The fp64 kernel promises more: its SIMD output is bit-identical to the
// scalar one, not merely within FMA rounding.

void Gemm(const float* a, size_t m, size_t k, const float* b, size_t n,
          float* out) {
  GemmRowMajorF32(a, m, k, b, n, out);
}

void Gemm(const double* a, size_t m, size_t k, const double* b, size_t n,
          double* out) {
  GemmRowMajorF64(a, m, k, b, n, out);
}

template <typename T>
std::vector<T> RandomValues(size_t n, Rng* rng) {
  if constexpr (std::is_same_v<T, float>) {
    return RandomVecF32(n, rng);
  } else {
    return RandomVec(n, rng);
  }
}

template <typename T>
void ReferenceGemm(const std::vector<T>& a, size_t m, size_t k,
                   const std::vector<T>& b, size_t n, std::vector<T>* out) {
  out->assign(m * n, T(0));
  for (size_t i = 0; i < m; ++i) {
    for (size_t kk = 0; kk < k; ++kk) {
      for (size_t j = 0; j < n; ++j) {
        (*out)[i * n + j] += a[i * k + kk] * b[kk * n + j];
      }
    }
  }
}

/// GemmTransAF64 reads a (m×k) through its transpose at (k×m): in every
/// implementation it must equal (==) the row-major GEMM over the copy,
/// `want`, with the output poisoned first and the transpose's rows
/// starting at an odd offset.
void CheckTransAMatchesTransposedCopy(const std::vector<double>& a, size_t m,
                                      size_t k, const std::vector<double>& b,
                                      size_t n,
                                      const std::vector<double>& want) {
  std::vector<double> at(k * m + 1);
  for (size_t i = 0; i < m; ++i) {
    for (size_t kk = 0; kk < k; ++kk) at[1 + kk * m + i] = a[i * k + kk];
  }
  for (bool force : {true, false}) {
    if (!force && !SimdActiveByDefault()) continue;
    ScopedForceScalar guard(force);
    std::vector<double> got(m * n, 1e30);
    GemmTransAF64(at.data() + 1, k, m, b.data(), n, got.data());
    EXPECT_TRUE(BitsEqual(got.data(), want.data(), m * n))
        << "trans-A, " << (force ? "scalar" : "simd");
  }
}

/// With `zeros`, every third a-element (and one negative zero) is zero,
/// so the kernels' zero-skip branch runs.
template <typename T>
void CheckGemmShape(size_t m, size_t k, size_t n, Rng* rng,
                    bool zeros = false) {
  SCOPED_TRACE(std::string(std::is_same_v<T, float> ? "f32" : "f64") +
               " m=" + std::to_string(m) + " k=" + std::to_string(k) +
               " n=" + std::to_string(n) + (zeros ? " with zeros" : ""));
  std::vector<T> a = RandomValues<T>(m * k, rng);
  if (zeros) {
    for (size_t i = 0; i < a.size(); i += 3) a[i] = T(0);
    if (a.size() > 1) a[1] = -T(0);
  }
  const std::vector<T> b = RandomValues<T>(k * n, rng);
  // Poison the outputs: the kernel must overwrite, not accumulate.
  std::vector<T> scalar_out(m * n, T(1e30));
  std::vector<T> simd_out(m * n, T(-1e30));
  {
    ScopedForceScalar guard(true);
    Gemm(a.data(), m, k, b.data(), n, scalar_out.data());
  }
  std::vector<T> ref;
  ReferenceGemm(a, m, k, b, n, &ref);
  for (size_t i = 0; i < m * n; ++i) {
    // The scalar kernel sums in ascending k like the reference, so the
    // two are exactly equal (a skipped zero term adds ±0 to the
    // reference, which leaves a sum unchanged).
    EXPECT_EQ(scalar_out[i], ref[i]) << "scalar kernel diverged at " << i;
  }
  if constexpr (std::is_same_v<T, double>) {
    CheckTransAMatchesTransposedCopy(a, m, k, b, n, scalar_out);
  }
  if (!SimdActiveByDefault()) return;
  Gemm(a.data(), m, k, b.data(), n, simd_out.data());
  if constexpr (std::is_same_v<T, double>) {
    EXPECT_TRUE(BitsEqual(scalar_out.data(), simd_out.data(), m * n));
  } else {
    for (size_t i = 0; i < m * n; ++i) {
      const float scale =
          std::max({std::abs(scalar_out[i]), std::abs(simd_out[i]), 1.0f});
      // Same ascending-k order, FMA rounding only — fp32 ulps per the
      // contract in nn/kernels.h.
      EXPECT_LE(std::abs(scalar_out[i] - simd_out[i]), 1e-5f * scale)
          << "simd kernel diverged at " << i;
    }
  }
}

TEST(GemmKernelTest, ParityAcrossShapes) {
  Rng rng(7);
  Rng rng64(8);
  for (size_t m : {1, 2, 5}) {
    for (size_t k : {1, 3, 48, 96}) {
      for (size_t n : kLengths) {
        if (n == 0) continue;  // covered by EmptyShapesAreNoOps
        CheckGemmShape<float>(m, k, n, &rng);
        CheckGemmShape<double>(m, k, n, &rng64);
        CheckGemmShape<double>(m, k, n, &rng64, /*zeros=*/true);
      }
    }
  }
}

TEST(GemmKernelTest, EmptyShapesAreNoOps) {
  // m = 0 and n = 0 produce no output; k = 0 yields all-zero output.
  const float a[1] = {2.0f};
  const float b[1] = {3.0f};
  float out[1] = {42.0f};
  GemmRowMajorF32(a, 0, 1, b, 1, out);
  EXPECT_EQ(out[0], 42.0f);
  GemmRowMajorF32(a, 1, 0, b, 1, out);
  EXPECT_EQ(out[0], 0.0f);
  for (bool force : {true, false}) {
    ScopedForceScalar guard(force);
    const double a64[1] = {2.0};
    const double b64[1] = {3.0};
    double out64[1] = {42.0};
    GemmRowMajorF64(a64, 0, 1, b64, 1, out64);
    EXPECT_EQ(out64[0], 42.0);
    GemmRowMajorF64(a64, 1, 0, b64, 1, out64);
    EXPECT_EQ(out64[0], 0.0);
  }
}

TEST(GemmKernelTest, F32ParityAcrossShapes) {
  // The fp32 GEMM has a two-rows-per-pass kernel at n = 48 (the model's
  // hidden width). Sweep row counts around that path: 1 (no pairs), 2
  // (one pair), 3 and 5 (pairs + odd tail row), at n values on and off
  // the specialized width. The fp64 GEMM's 48-wide tile gets the same
  // sweep, plus n = 2 (the readout's output width).
  Rng rng(29);
  Rng rng64(30);
  for (size_t m : {1, 2, 3, 5}) {
    for (size_t k : {1, 3, 48, 97}) {
      for (size_t n : {1, 7, 8, 17, 47, 48, 49}) {
        CheckGemmShape<float>(m, k, n, &rng);
      }
      for (size_t n : {1, 2, 7, 8, 17, 47, 48, 49, 96}) {
        CheckGemmShape<double>(m, k, n, &rng64, /*zeros=*/k > 1);
      }
    }
  }
}

TEST(GemmKernelTest, F32RowPairMatchesSingleRowTiling) {
  // At n = 48 rows are processed in pairs; each row's accumulation order
  // is unchanged, so results must be bit-identical to running the same
  // rows one at a time through the same ISA. The fp64 GEMM makes the
  // same promise, which lets the training pass batch rows freely.
  Rng rng(59);
  const size_t k = 48, n = 48;
  for (size_t m : {2, 3, 4, 5}) {
    const std::vector<float> a = RandomVecF32(m * k, &rng);
    const std::vector<float> b = RandomVecF32(k * n, &rng);
    std::vector<float> paired(m * n), single(m * n);
    GemmRowMajorF32(a.data(), m, k, b.data(), n, paired.data());
    for (size_t r = 0; r < m; ++r) {
      GemmRowMajorF32(a.data() + r * k, 1, k, b.data(), n,
                      single.data() + r * n);
    }
    EXPECT_TRUE(BitsEqual(paired.data(), single.data(), m * n)) << "m=" << m;
  }
  Rng rng64(60);
  for (size_t n64 : {2, 48}) {
    for (size_t m : {2, 3, 5}) {
      const std::vector<double> a = RandomVec(m * k, &rng64);
      const std::vector<double> b = RandomVec(k * n64, &rng64);
      std::vector<double> batched(m * n64), single(m * n64);
      GemmRowMajorF64(a.data(), m, k, b.data(), n64, batched.data());
      for (size_t r = 0; r < m; ++r) {
        GemmRowMajorF64(a.data() + r * k, 1, k, b.data(), n64,
                        single.data() + r * n64);
      }
      EXPECT_TRUE(BitsEqual(batched.data(), single.data(), m * n64))
          << "f64 m=" << m << " n=" << n64;
    }
  }
}

TEST(GemmKernelTest, SparseRowsSkipZeroContributions) {
  // One-hot a-rows (the encoder's input shape) must hit the zero-skip
  // branch and still produce the exact selected b-row plus nothing.
  Rng rng(11);
  const size_t k = 49, n = 48;
  std::vector<float> a(k, 0.0f);
  a[17] = 1.0f;
  const std::vector<float> b = RandomVecF32(k * n, &rng);
  std::vector<float> out(n);
  const std::vector<double> b64 = RandomVec(k * n, &rng);
  std::vector<double> a64(k, 0.0), out64(n);
  a64[17] = 1.0;
  for (bool force : {true, false}) {
    if (!force && !SimdActiveByDefault()) continue;
    ScopedForceScalar guard(force);
    GemmRowMajorF32(a.data(), 1, k, b.data(), n, out.data());
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(out[j], b[17 * n + j]);
    GemmRowMajorF64(a64.data(), 1, k, b64.data(), n, out64.data());
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(out64[j], b64[17 * n + j]);
  }
}

// --- Adam ---------------------------------------------------------------

/// Adam::Step's per-element arithmetic, written out as nn/kernels.h
/// specifies it.
void ReferenceAdam(std::vector<double>* w, std::vector<double>* m,
                   std::vector<double>* v, const std::vector<double>& grad,
                   const AdamStepF64Args& a) {
  for (size_t i = 0; i < w->size(); ++i) {
    const double g = grad[i] * a.grad_scale;
    (*m)[i] = a.beta1 * (*m)[i] + (1.0 - a.beta1) * g;
    (*v)[i] = a.beta2 * (*v)[i] + (1.0 - a.beta2) * g * g;
    const double mhat = (*m)[i] / a.bias_correction1;
    const double vhat = (*v)[i] / a.bias_correction2;
    double update = mhat / (std::sqrt(vhat) + a.epsilon);
    if (a.weight_decay > 0.0) update += a.weight_decay * (*w)[i];
    (*w)[i] -= a.learning_rate * update;
  }
}

/// == elementwise, where two NaNs count as equal: a NaN gradient must
/// poison the same elements in every implementation.
bool SameValues(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) != std::isnan(b[i])) return false;
    if (!std::isnan(a[i]) && !BitsEqual(&a[i], &b[i], 1)) return false;
  }
  return true;
}

TEST(AdamKernelTest, BitIdenticalAcrossIsasAndToTheFormula) {
  Rng rng(83);
  AdamStepF64Args args;
  args.learning_rate = 1e-3;
  args.beta1 = 0.9;
  args.beta2 = 0.999;
  args.epsilon = 1e-8;
  args.bias_correction1 = 1.0 - std::pow(0.9, 7);
  args.bias_correction2 = 1.0 - std::pow(0.999, 7);
  for (size_t n : {1, 3, 4, 5, 48, 4608}) {
    for (double decay : {0.0, 1e-5}) {
      for (double scale : {1.0, 0.37}) {
        for (bool nan : {false, true}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " decay=" +
                       std::to_string(decay) + " scale=" +
                       std::to_string(scale) + (nan ? " with NaN" : ""));
          args.weight_decay = decay;
          args.grad_scale = scale;
          // Signed gradients with zeros, moments from earlier steps.
          std::vector<double> grad = RandomVec(n, &rng);
          for (size_t i = 0; i < n; i += 4) grad[i] = 0.0;
          if (nan) grad[n / 2] = std::nan("");
          const std::vector<double> w0 = RandomVec(n, &rng);
          std::vector<double> m0 = RandomVec(n, &rng);
          std::vector<double> v0(n);
          for (double& x : v0) x = std::abs(rng.Gaussian(0.0, 1.0));
          std::vector<double> w_ref(w0), m_ref(m0), v_ref(v0);
          ReferenceAdam(&w_ref, &m_ref, &v_ref, grad, args);
          for (bool force : {true, false}) {
            if (!force && !SimdActiveByDefault()) continue;
            ScopedForceScalar guard(force);
            std::vector<double> w(w0), m(m0), v(v0);
            AdamStepF64(w.data(), m.data(), v.data(), grad.data(), n, args);
            EXPECT_TRUE(SameValues(w, w_ref)) << (force ? "scalar" : "simd");
            EXPECT_TRUE(SameValues(m, m_ref)) << (force ? "scalar" : "simd");
            EXPECT_TRUE(SameValues(v, v_ref)) << (force ? "scalar" : "simd");
          }
          if (nan) {
            EXPECT_TRUE(std::isnan(w_ref[n / 2]));
          }
        }
      }
    }
  }
}

// --- element-wise kernels: bit-identical across implementations ------

TEST(ElementwiseKernelTest, AddIsBitIdenticalAcrossIsas) {
  Rng rng(13);
  for (size_t n : kLengths) {
    const std::vector<double> x = RandomVec(n, &rng);
    std::vector<double> acc_scalar = RandomVec(n, &rng);
    std::vector<double> acc_simd = acc_scalar;
    {
      ScopedForceScalar guard(true);
      AddF64(acc_scalar.data(), x.data(), n);
    }
    if (!SimdActiveByDefault()) continue;
    AddF64(acc_simd.data(), x.data(), n);
    EXPECT_TRUE(BitsEqual(acc_scalar.data(), acc_simd.data(), n))
        << "n=" << n;
  }
}

TEST(ElementwiseKernelTest, AddF32IsBitIdenticalAcrossIsas) {
  Rng rng(53);
  for (size_t n : kLengths) {
    const std::vector<float> x = RandomVecF32(n, &rng);
    std::vector<float> acc_scalar = RandomVecF32(n, &rng);
    std::vector<float> acc_simd = acc_scalar;
    {
      ScopedForceScalar guard(true);
      AddF32(acc_scalar.data(), x.data(), n);
    }
    if (!SimdActiveByDefault()) continue;
    AddF32(acc_simd.data(), x.data(), n);
    EXPECT_TRUE(BitsEqual(acc_scalar.data(), acc_simd.data(), n))
        << "n=" << n;
  }
}

TEST(ElementwiseKernelTest, MeanRowsF32IsBitIdenticalAcrossIsas) {
  Rng rng(61);
  for (size_t n : kLengths) {
    if (n == 0) continue;
    for (size_t count : {1, 2, 3, 7}) {
      std::vector<std::vector<float>> storage;
      std::vector<const float*> rows;
      for (size_t r = 0; r < count; ++r) {
        storage.push_back(RandomVecF32(n, &rng));
        rows.push_back(storage.back().data());
      }
      std::vector<float> dst_scalar(n), dst_simd(n);
      {
        ScopedForceScalar guard(true);
        MeanRowsF32(dst_scalar.data(), rows.data(), count, n);
      }
      if (!SimdActiveByDefault()) continue;
      MeanRowsF32(dst_simd.data(), rows.data(), count, n);
      EXPECT_TRUE(BitsEqual(dst_scalar.data(), dst_simd.data(), n))
          << "n=" << n << " count=" << count;
    }
  }
}

TEST(ElementwiseKernelTest, BiasActRowsIsBitIdenticalAcrossIsas) {
  Rng rng(19);
  for (size_t n : kLengths) {
    for (FusedAct act : {FusedAct::kNone, FusedAct::kLeakyRelu}) {
      const size_t rows = 3;
      const std::vector<float> bias = RandomVecF32(n, &rng);
      std::vector<float> x_scalar = RandomVecF32(rows * n, &rng);
      std::vector<float> x_simd = x_scalar;
      {
        ScopedForceScalar guard(true);
        for (size_t r = 0; r < rows; ++r) {
          BiasActRowF32(x_scalar.data() + r * n, bias.data(), n, act);
        }
      }
      if (!SimdActiveByDefault()) continue;
      for (size_t r = 0; r < rows; ++r) {
        BiasActRowF32(x_simd.data() + r * n, bias.data(), n, act);
      }
      EXPECT_TRUE(BitsEqual(x_scalar.data(), x_simd.data(), rows * n))
          << "n=" << n << " act=" << static_cast<int>(act);
    }
  }
}

TEST(ElementwiseKernelTest, LeakyReluMatchesAutogradFormula) {
  // The fused activation must reproduce x > 0 ? x : 0.01·x exactly,
  // including at ±0 and negative values.
  std::vector<float> x = {-2.0f, -0.5f, -0.0f, 0.0f, 0.5f, 2.0f};
  std::vector<float> bias(x.size(), 0.0f);
  std::vector<float> expected;
  for (float v : x) expected.push_back(v > 0.0f ? v : 0.01f * v);
  for (bool force : {true, false}) {
    if (!force && !SimdActiveByDefault()) continue;
    ScopedForceScalar guard(force);
    std::vector<float> y = x;
    BiasActRowF32(y.data(), bias.data(), y.size(), FusedAct::kLeakyRelu);
    for (size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], expected[i]);
  }
}

// Single-row form of the check above, at a different seed: the fp32
// MLP forward pass applies the row kernel once per output row.
TEST(ReductionKernelTest, BiasActRowF32IsBitIdenticalAcrossIsas) {
  Rng rng(41);
  for (size_t n : kLengths) {
    for (FusedAct act : {FusedAct::kNone, FusedAct::kLeakyRelu}) {
      const std::vector<float> bias = RandomVecF32(n, &rng);
      std::vector<float> x_scalar = RandomVecF32(n, &rng);
      std::vector<float> x_simd = x_scalar;
      {
        ScopedForceScalar guard(true);
        BiasActRowF32(x_scalar.data(), bias.data(), n, act);
      }
      if (!SimdActiveByDefault()) continue;
      BiasActRowF32(x_simd.data(), bias.data(), n, act);
      EXPECT_TRUE(BitsEqual(x_scalar.data(), x_simd.data(), n))
          << "n=" << n << " act=" << static_cast<int>(act);
    }
  }
}

// --- alignment: kernels must tolerate any element offset --------------

// Callers slice rows at arbitrary column offsets. Shift every input and
// output by one element off whatever alignment the allocator produced so
// an aligned-load instruction would fault or produce garbage.
TEST(AlignmentKernelTest, KernelsAcceptDeliberatelyMisalignedRows) {
  // The fp64 kernels at an 8-byte offset, odd tail included.
  Rng rng(43);
  const size_t n = 19;
  std::vector<double> x_buf = RandomVec(n + 1, &rng);
  std::vector<double> acc_buf = RandomVec(n + 1, &rng);
  std::vector<double> acc_scalar(acc_buf), acc_simd(acc_buf);
  {
    ScopedForceScalar guard(true);
    AddF64(acc_scalar.data() + 1, x_buf.data() + 1, n);
  }
  AddF64(acc_simd.data() + 1, x_buf.data() + 1, n);
  EXPECT_TRUE(BitsEqual(acc_scalar.data(), acc_simd.data(), n + 1));

  // The Adam step over parameter, moment and gradient rows one double
  // off, with decay on.
  AdamStepF64Args adam;
  adam.learning_rate = 1e-2;
  adam.beta1 = 0.9;
  adam.beta2 = 0.999;
  adam.epsilon = 1e-8;
  adam.weight_decay = 1e-3;
  std::vector<double> w_scalar(acc_buf), m_scalar(n + 1), v_scalar(n + 1);
  std::vector<double> w_simd(acc_buf), m_simd(n + 1), v_simd(n + 1);
  {
    ScopedForceScalar guard(true);
    AdamStepF64(w_scalar.data() + 1, m_scalar.data() + 1, v_scalar.data() + 1,
                x_buf.data() + 1, n, adam);
  }
  AdamStepF64(w_simd.data() + 1, m_simd.data() + 1, v_simd.data() + 1,
              x_buf.data() + 1, n, adam);
  EXPECT_TRUE(BitsEqual(w_scalar.data(), w_simd.data(), n + 1));
  EXPECT_TRUE(BitsEqual(m_scalar.data(), m_simd.data(), n + 1));
  EXPECT_TRUE(BitsEqual(v_scalar.data(), v_simd.data(), n + 1));

  // The GEMM with every pointer one double off the allocator's alignment,
  // at the hidden width's 48-wide tile and the readout's n = 2, with an
  // odd k: bit-identical across ISAs.
  const size_t m = 3, k = 21;
  for (size_t cols : {2, 48}) {
    std::vector<double> a_buf = RandomVec(m * k + 1, &rng);
    const std::vector<double> b_buf = RandomVec(k * cols + 1, &rng);
    a_buf[1 + k + 2] = 0.0;  // one skipped term in the second row
    std::vector<double> scalar_out(m * cols + 1), simd_out(m * cols + 1);
    {
      ScopedForceScalar guard(true);
      GemmRowMajorF64(a_buf.data() + 1, m, k, b_buf.data() + 1, cols,
                      scalar_out.data() + 1);
    }
    GemmRowMajorF64(a_buf.data() + 1, m, k, b_buf.data() + 1, cols,
                    simd_out.data() + 1);
    EXPECT_TRUE(BitsEqual(scalar_out.data() + 1, simd_out.data() + 1,
                          m * cols))
        << "n=" << cols;
    // The strided-A form over a transposed copy, also one double off.
    std::vector<double> at_buf(k * m + 1);
    for (size_t i = 0; i < m; ++i) {
      for (size_t kk = 0; kk < k; ++kk) {
        at_buf[1 + kk * m + i] = a_buf[1 + i * k + kk];
      }
    }
    for (bool force : {true, false}) {
      ScopedForceScalar guard(force);
      std::vector<double> trans_out(m * cols + 1);
      GemmTransAF64(at_buf.data() + 1, k, m, b_buf.data() + 1, cols,
                    trans_out.data() + 1);
      EXPECT_TRUE(BitsEqual(scalar_out.data() + 1, trans_out.data() + 1,
                            m * cols))
          << "trans-A n=" << cols << (force ? " scalar" : " default");
    }
  }
}

TEST(AlignmentKernelTest, F32KernelsAcceptDeliberatelyMisalignedRows) {
  // Every fp32 kernel, including the n = 48 row-pair GEMM path whose
  // 8-lane loads would fault as aligned instructions at a 4-byte offset.
  // Every pointer is shifted one float off the allocator's alignment.
  Rng rng(47);
  const size_t m = 3, k = 21, n = 48;  // pair loop + odd tail row
  std::vector<float> a_buf = RandomVecF32(m * k + 1, &rng);
  std::vector<float> b_buf = RandomVecF32(k * n + 1, &rng);
  std::vector<float> out_buf(m * n + 1, 0.0f);
  const float* a = a_buf.data() + 1;
  const float* b = b_buf.data() + 1;
  float* out = out_buf.data() + 1;

  std::vector<float> ref(m * n);
  {
    ScopedForceScalar guard(true);
    GemmRowMajorF32(a, m, k, b, n, ref.data());
  }
  GemmRowMajorF32(a, m, k, b, n, out);
  for (size_t i = 0; i < m * n; ++i) {
    const float scale = std::max({std::abs(ref[i]), std::abs(out[i]), 1.0f});
    EXPECT_LE(std::abs(ref[i] - out[i]), 1e-5f * scale) << "i=" << i;
  }

  // Element-wise fp32 kernels at the same misaligned offsets stay
  // bit-exact.
  std::vector<float> x_buf = RandomVecF32(n + 1, &rng);
  std::vector<float> acc_scalar(out, out + n), acc_simd(out, out + n);
  {
    ScopedForceScalar guard(true);
    AddF32(acc_scalar.data(), x_buf.data() + 1, n);
  }
  AddF32(acc_simd.data(), x_buf.data() + 1, n);
  EXPECT_TRUE(BitsEqual(acc_scalar.data(), acc_simd.data(), n));

  std::vector<float> bias_buf = RandomVecF32(n + 1, &rng);
  std::vector<float> act_scalar(out, out + n), act_simd(out, out + n);
  {
    ScopedForceScalar guard(true);
    BiasActRowF32(act_scalar.data(), bias_buf.data() + 1, n,
                  FusedAct::kLeakyRelu);
  }
  BiasActRowF32(act_simd.data(), bias_buf.data() + 1, n,
                FusedAct::kLeakyRelu);
  EXPECT_TRUE(BitsEqual(act_scalar.data(), act_simd.data(), n));

  const float* rows[3] = {out, out + n, out + 2 * n};
  std::vector<float> mean_scalar(n), mean_simd(n);
  {
    ScopedForceScalar guard(true);
    MeanRowsF32(mean_scalar.data(), rows, 3, n);
  }
  MeanRowsF32(mean_simd.data(), rows, 3, n);
  EXPECT_TRUE(BitsEqual(mean_scalar.data(), mean_simd.data(), n));
}

}  // namespace
}  // namespace zerotune::nn::kernels
