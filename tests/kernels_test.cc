// nn::kernels contract tests: SIMD-vs-scalar parity of the fp32 GEMM at
// awkward shapes (odd tails, 1-row/1-col, empty), the bit-identity
// guarantees of the element-wise kernels, and tolerance of deliberately
// misaligned rows.
// Every SIMD comparison is skipped automatically on hardware without
// AVX2+FMA and in ZEROTUNE_DISABLE_SIMD builds, where ActiveIsa() is
// already kScalar and there is nothing to compare.
#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
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

void ReferenceGemm(const std::vector<float>& a, size_t m, size_t k,
                   const std::vector<float>& b, size_t n,
                   std::vector<float>* out) {
  out->assign(m * n, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    for (size_t kk = 0; kk < k; ++kk) {
      for (size_t j = 0; j < n; ++j) {
        (*out)[i * n + j] += a[i * k + kk] * b[kk * n + j];
      }
    }
  }
}

void CheckGemmShape(size_t m, size_t k, size_t n, Rng* rng) {
  SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
               " n=" + std::to_string(n));
  const std::vector<float> a = RandomVecF32(m * k, rng);
  const std::vector<float> b = RandomVecF32(k * n, rng);
  // Poison the outputs: the kernel must overwrite, not accumulate.
  std::vector<float> scalar_out(m * n, 1e30f);
  std::vector<float> simd_out(m * n, -1e30f);
  {
    ScopedForceScalar guard(true);
    GemmRowMajorF32(a.data(), m, k, b.data(), n, scalar_out.data());
  }
  std::vector<float> ref;
  ReferenceGemm(a, m, k, b, n, &ref);
  for (size_t i = 0; i < m * n; ++i) {
    // The scalar kernel sums in ascending k like the reference, so the
    // two are exactly equal.
    EXPECT_EQ(scalar_out[i], ref[i]) << "scalar kernel diverged at " << i;
  }
  if (!SimdActiveByDefault()) return;
  GemmRowMajorF32(a.data(), m, k, b.data(), n, simd_out.data());
  for (size_t i = 0; i < m * n; ++i) {
    const float scale =
        std::max({std::abs(scalar_out[i]), std::abs(simd_out[i]), 1.0f});
    // Same ascending-k order, FMA rounding only — fp32 ulps per the
    // contract in nn/kernels.h.
    EXPECT_LE(std::abs(scalar_out[i] - simd_out[i]), 1e-5f * scale)
        << "simd kernel diverged at " << i;
  }
}

TEST(GemmKernelTest, ParityAcrossShapes) {
  Rng rng(7);
  for (size_t m : {1, 2, 5}) {
    for (size_t k : {1, 3, 48, 96}) {
      for (size_t n : kLengths) {
        if (n == 0) continue;  // covered by EmptyShapesAreNoOps
        CheckGemmShape(m, k, n, &rng);
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
}

TEST(GemmKernelTest, F32ParityAcrossShapes) {
  // The fp32 GEMM has a two-rows-per-pass kernel at n = 48 (the model's
  // hidden width). Sweep row counts around that path: 1 (no pairs), 2
  // (one pair), 3 and 5 (pairs + odd tail row), at n values on and off
  // the specialized width.
  Rng rng(29);
  for (size_t m : {1, 2, 3, 5}) {
    for (size_t k : {1, 3, 48, 97}) {
      for (size_t n : {1, 7, 8, 17, 47, 48, 49}) {
        CheckGemmShape(m, k, n, &rng);
      }
    }
  }
}

TEST(GemmKernelTest, F32RowPairMatchesSingleRowTiling) {
  // At n = 48 rows are processed in pairs; each row's accumulation order
  // is unchanged, so results must be bit-identical to running the same
  // rows one at a time through the same ISA.
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
  for (bool force : {true, false}) {
    if (!force && !SimdActiveByDefault()) continue;
    ScopedForceScalar guard(force);
    GemmRowMajorF32(a.data(), 1, k, b.data(), n, out.data());
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(out[j], b[17 * n + j]);
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
    for (FusedAct act :
         {FusedAct::kNone, FusedAct::kRelu, FusedAct::kLeakyRelu}) {
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
    for (FusedAct act :
         {FusedAct::kNone, FusedAct::kRelu, FusedAct::kLeakyRelu}) {
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
  // The fp64 kernel at an 8-byte offset, odd tail included.
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
