#ifndef ZEROTUNE_NN_MLP_PASS_H_
#define ZEROTUNE_NN_MLP_PASS_H_

#include <cstddef>
#include <vector>

#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/matrix.h"

namespace zerotune::nn {

/// Every parameter of a ParameterStore, transposed: MlpPass::Backward's
/// input gradients dX = dZ·Wᵀ read them. It copies the values, so one
/// set serves every backward pass until they change; then refresh what
/// changed. The trainers keep one set for a whole run and refresh each
/// parameter right after Adam writes it, on the thread that wrote it.
class TransposedWeights {
 public:
  /// `params` must outlive this.
  explicit TransposedWeights(const ParameterStore& params);

  /// Copies parameter `param_id`'s current value again. Calls for
  /// different ids may run concurrently.
  void Refresh(int param_id);

  /// Wᵀ for one layer.
  const Matrix& of(const Linear& layer) const {
    return by_id_[static_cast<size_t>(layer.weight_id())];
  }

 private:
  const ParameterStore* params_;
  std::vector<Matrix> by_id_;  // indexed by parameter id
};

/// The library's fp64 MLP pass: one Mlp over a set of rows, with a
/// forward pass that keeps every layer's input and activated output and a
/// hand-written backward over them. It trains and evaluates the ZeroTune
/// GNN (each of core::TrainBatch's eight blocks is one MlpPass) and the
/// flat-vector MLP baseline (one pass per mini-batch, a one-row pass per
/// prediction).
///
/// Numerics contract:
///   - rows are independent: each output row equals (==) the row run
///     alone. Every element sums its GEMM terms in ascending k, skipping
///     zero inputs, then adds the bias, then applies LeakyReLU;
///   - a weight's gradient sums every row's term in ascending row order
///     in one GEMM, skipping zero inputs, and a bias's gradient adds the
///     rows' dZ in ascending order. That equals (==) the sum over rows,
///     in row order, of per-row reverse-mode gradients
///     (tests/mlp_pass_test.cc checks it against the per-row graph);
///   - every GEMM runs on kernels::GemmRowMajorF64 or GemmTransAF64,
///     which are bit-identical across ISAs, so trained weights do not
///     depend on the machine's SIMD support.
///
/// Thread safety: reads the Mlp's weights and writes only its own
/// buffers, so passes over one Mlp may run on several threads as long as
/// nobody writes the weights meanwhile.
class MlpPass {
 public:
  /// Sizes the pass for `rows` rows of `mlp`, which must outlive it.
  void Init(const Mlp* mlp, size_t rows);

  /// Row r of the block input, which the caller fills before Forward
  /// (zero until then).
  double* input(size_t r) { return acts_.front().data() + r * in_width(); }
  const double* output(size_t r) const {
    return acts_.back().data() + r * out_width();
  }
  const Matrix& output() const { return acts_.back(); }

  /// Runs rows [r0, r1) through every layer.
  void Forward(size_t r0, size_t r1);

  /// Allocates the gradient buffers (input gradients only with
  /// `input_grad`) and zeroes output_grad.
  void StartBackward(bool input_grad);
  /// d(loss)/d(output row r): callers add every consumer's share here
  /// before the row's Backward.
  double* output_grad(size_t r) {
    return grads_.back().data() + r * out_width();
  }
  /// Backpropagates rows [r0, r1); afterwards input_grad(r) holds
  /// d(loss)/d(input row r) when StartBackward asked for it.
  void Backward(size_t r0, size_t r1, const TransposedWeights& weights_t);
  const double* input_grad(size_t r) const {
    return grads_.front().data() + r * in_width();
  }
  /// Adds dW = inputᵀ·dZ over all rows (GemmTransAF64, reading the
  /// kept input in place) and db = the column sums of dZ of every layer
  /// into `grads`, layer by layer, each weight before its bias.
  void AccumulateParamGrads(GradStore* grads) const;

 private:
  size_t in_width() const { return mlp_->in_features(); }
  size_t out_width() const { return mlp_->out_features(); }
  bool Activated(size_t layer) const;

  const Mlp* mlp_ = nullptr;
  size_t rows_ = 0;
  bool input_grad_ = false;
  // acts_[0] is the block input; acts_[l + 1] is layer l's output.
  std::vector<Matrix> acts_;
  // grads_[l] holds d(loss)/d(acts_[l]). Backward turns grads_[l + 1]
  // into d(loss)/d(layer l's pre-activation) in place, the dZ that
  // AccumulateParamGrads reads.
  std::vector<Matrix> grads_;
};

/// Mean squared error of output row `row` against a 1×n target: the
/// loss both trainers minimize. With `grad`, also writes d(loss)/d(output)
/// = (2/n)·(prediction − target) into the same row of *grad.
double MseRow(const Matrix& outputs, size_t row, const Matrix& target,
              Matrix* grad);

}  // namespace zerotune::nn

#endif  // ZEROTUNE_NN_MLP_PASS_H_
