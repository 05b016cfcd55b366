#ifndef ZEROTUNE_NN_KERNELS_H_
#define ZEROTUNE_NN_KERNELS_H_

#include <cstddef>

namespace zerotune::nn::kernels {

/// The low-level compute kernels behind batched inference (the fp32
/// QuantizedMlp blocks and the batch engine's aggregations) plus the one
/// fp64 element-wise kernel training uses (Matrix::Add). Two
/// implementations exist behind one API:
///
///   - a portable scalar implementation (plain loops, no fused rounding),
///     and
///   - an AVX2+FMA implementation (kernels_avx2.cc, compiled with
///     -mavx2 -mfma) selected at runtime when the CPU supports both.
///
/// Numerics contract: every kernel processes rows independently, so
/// results never depend on how callers batch rows. The kernels fall into
/// two classes:
///   - element-wise kernels (add, mean, bias + activation) reassociate
///     nothing, use no FMA, and are bit-identical across
///     implementations;
///   - GemmRowMajorF32 uses the broadcast formulation under SIMD, so each
///     output element still sums its k terms in ascending order — its
///     only SIMD-vs-scalar difference is FMA's fused rounding (each
///     multiply-add keeps its infinitely precise product, perturbing a
///     length-k sum by O(k·2⁻²⁴) relative).
///
/// Alignment contract: callers may pass pointers at any element offset
/// (e.g. a row at an odd column). Every SIMD kernel uses unaligned
/// loads/stores; none may assume 32-byte alignment. The misaligned-row
/// tests in tests/kernels_test.cc enforce this.
///
/// Dispatch: the AVX2 path requires (a) it was compiled in (x86-64
/// gcc/clang build without -DZEROTUNE_DISABLE_SIMD=ON), (b) the CPU
/// reports AVX2 and FMA, and (c) no ForceScalar(true) override is in
/// effect. Raw vendor intrinsics live only in src/nn/kernels_avx2.cc
/// (enforced by ztlint ZT-S007).

/// Which implementation ActiveIsa() resolved to.
enum class Isa {
  kScalar,
  kAvx2Fma,
};

/// Human-readable name ("scalar" / "avx2-fma") for logs and bench rows.
const char* IsaName(Isa isa);

/// True when the AVX2 translation unit was compiled into this binary.
bool SimdCompiledIn();

/// True when the running CPU supports AVX2 and FMA (cached after the
/// first call). False whenever SimdCompiledIn() is false.
bool SimdSupported();

/// The implementation the kernels below will use right now.
Isa ActiveIsa();

/// Test/bench hook: forces the scalar implementation even when SIMD is
/// available. Not meant to race with in-flight kernel calls — flip it
/// between measurements, not during them.
void ForceScalar(bool on);

/// The LeakyReLU slope for x ≤ 0 — the one definition shared by the
/// autograd LeakyRelu (fp64) and BiasActRowF32 (fp32, rounded to float).
inline constexpr double kLeakyReluSlope = 0.01;

/// What BiasActRowF32 applies after the bias: nothing (a regression
/// head's output layer) or LeakyReLU (every other layer).
enum class FusedAct {
  kNone,
  kLeakyRelu,  // x > 0 ? x : kLeakyReluSlope·x
};

/// acc[i] += x[i] over fp64 — Matrix::Add, used in training.
/// Bit-identical across implementations, so training results do not
/// depend on the ISA.
void AddF64(double* acc, const double* x, size_t n);

/// out = a·b for row-major fp32 a (m×k), b (k×n), out (m×n). Overwrites
/// out completely (no zero-initialization required). Summation over k
/// runs in ascending order; zero a-elements contribute nothing either
/// way. Differs from scalar only by FMA's fused rounding.
void GemmRowMajorF32(const float* a, size_t m, size_t k, const float* b,
                     size_t n, float* out);

/// acc[i] += x[i] over fp32. Bit-identical across implementations.
void AddF32(float* acc, const float* x, size_t n);

/// dst[i] = (rows[0][i] + rows[1][i] + … + rows[count-1][i]) · (1/count),
/// summed in row order per element, no FMA — the batch engine's mean
/// aggregation. count must be ≥ 1. Bit-identical across implementations.
void MeanRowsF32(float* dst, const float* const* rows, size_t count,
                 size_t n);

/// In place over one fp32 row: x[i] += bias[i], then the fused
/// activation. Bit-identical across implementations.
void BiasActRowF32(float* x, const float* bias, size_t n, FusedAct act);

}  // namespace zerotune::nn::kernels

#endif  // ZEROTUNE_NN_KERNELS_H_
