// Whole-matrix calls of nn::MlpPass for tests: every row of an input
// through an Mlp, forward and backward.
#ifndef ZEROTUNE_TESTS_SUPPORT_MLP_ROWS_H_
#define ZEROTUNE_TESTS_SUPPORT_MLP_ROWS_H_

#include <algorithm>

#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/mlp_pass.h"

namespace zerotune::nn {

/// Sizes `pass` for x's rows, copies them in and runs them forward.
inline void ForwardRows(const Mlp& mlp, const Matrix& x, MlpPass* pass) {
  pass->Init(&mlp, x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    std::copy(x.data() + r * x.cols(), x.data() + (r + 1) * x.cols(),
              pass->input(r));
  }
  pass->Forward(0, x.rows());
}

/// The outputs of every row of x through `mlp`.
inline Matrix ForwardRows(const Mlp& mlp, const Matrix& x) {
  MlpPass pass;
  ForwardRows(mlp, x, &pass);
  return pass.output();
}

/// Backpropagates d(loss)/d(outputs) (one row per row of the forward pass)
/// through `pass` and adds the parameter gradients into `grads`.
inline void BackwardRows(const Matrix& d_outputs,
                         const TransposedWeights& weights_t, MlpPass* pass,
                         GradStore* grads) {
  pass->StartBackward(/*input_grad=*/false);
  for (size_t r = 0; r < d_outputs.rows(); ++r) {
    std::copy(d_outputs.data() + r * d_outputs.cols(),
              d_outputs.data() + (r + 1) * d_outputs.cols(),
              pass->output_grad(r));
  }
  pass->Backward(0, d_outputs.rows(), weights_t);
  pass->AccumulateParamGrads(grads);
}

}  // namespace zerotune::nn

#endif  // ZEROTUNE_TESTS_SUPPORT_MLP_ROWS_H_
