#ifndef ZEROTUNE_NN_KERNELS_H_
#define ZEROTUNE_NN_KERNELS_H_

#include <cstddef>

namespace zerotune::nn::kernels {

/// The low-level compute kernels behind batched inference (the fp32
/// QuantizedMlp blocks and the batch engine's aggregations) and training
/// (the fp64 GEMMs of nn::MlpPass, nn/mlp_pass.h, which trains the GNN
/// and the flat-vector MLP baseline, Matrix::Add, and the Adam update).
/// Two implementations exist behind one API:
///
///   - a portable scalar implementation (plain loops, no fused rounding),
///     and
///   - an AVX2+FMA implementation (kernels_avx2.cc, compiled with
///     -mavx2 -mfma) selected at runtime when the CPU supports both.
///
/// Numerics contract: every kernel processes rows independently, so
/// results never depend on how callers batch rows. The kernels fall into
/// three classes:
///   - element-wise kernels (add, mean, bias + activation) reassociate
///     nothing, use no FMA, and are bit-identical across
///     implementations;
///   - GemmRowMajorF64 and its strided-A form GemmTransAF64 sum each
///     output element's k terms in ascending order with a separate
///     multiply and add (no FMA: both kernel translation units build
///     with -ffp-contract=off, so the compiler cannot fuse them either),
///     so they are bit-identical across implementations, and
///     GemmTransAF64 equals (==) GemmRowMajorF64 over a transposed copy;
///   - AdamStepF64 performs Adam's operations per element in one fixed
///     order, each a single correctly rounded IEEE operation (divide and
///     square root included; no FMA, no reciprocal estimates), so it is
///     bit-identical across implementations. With the GEMMs, that makes
///     trained weights independent of the ISA;
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

/// The LeakyReLU slope for x ≤ 0 — the one definition shared by
/// nn::MlpPass (fp64) and BiasActRowF32 (fp32, rounded to float).
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

/// out = a·b for row-major fp64 a (m×k), b (k×n), out (m×n). Overwrites
/// out completely (no zero-initialization required). Each output element
/// starts at +0 and adds a[i][kk]·b[kk][j] for ascending kk, skipping zero
/// a-elements, one rounded multiply and one rounded add per term.
/// Bit-identical across implementations.
void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out);

/// out = aᵀ·b for row-major fp64 a (k×m), b (k×n), out (m×n): the
/// strided-A form of GemmRowMajorF64, which reads column i of a (stride
/// m) as row i of its left operand, so no transposed copy of a is made.
/// Each output element starts at +0 and adds a[kk][i]·b[kk][j] for
/// ascending kk, skipping zero a-elements, one rounded multiply and one
/// rounded add per term: == GemmRowMajorF64 over a's transpose, and
/// bit-identical across implementations. dW = Xᵀ·dZ in training.
void GemmTransAF64(const double* a, size_t k, size_t m, const double* b,
                   size_t n, double* out);

/// The constants of one Adam update (nn::Adam::Step).
struct AdamStepF64Args {
  double learning_rate = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double epsilon = 0.0;
  double weight_decay = 0.0;  // applied only when > 0
  double bias_correction1 = 1.0;  // 1 − β₁ᵗ
  double bias_correction2 = 1.0;  // 1 − β₂ᵗ
  /// Every gradient element is multiplied by this first (the trainer's
  /// gradient-clipping factor; 1 leaves the gradient exactly as is).
  double grad_scale = 1.0;
};

/// One Adam update of n parameters in place. Per element, in this order:
///   g = grad·grad_scale
///   m = β₁·m + (1 − β₁)·g
///   v = β₂·v + ((1 − β₂)·g)·g
///   update = (m / bc₁) / (√(v / bc₂) + ε)
///   update += weight_decay·w        (only when weight_decay > 0)
///   w = w − learning_rate·update
/// Bit-identical across implementations.
void AdamStepF64(double* w, double* m, double* v, const double* grad,
                 size_t n, const AdamStepF64Args& args);

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
