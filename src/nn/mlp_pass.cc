#include "nn/mlp_pass.h"

#include "nn/kernels.h"

namespace zerotune::nn {

namespace {

using kernels::GemmRowMajorF64;
using kernels::GemmTransAF64;
using kernels::kLeakyReluSlope;

void AddTo(double* acc, const double* x, size_t n) {
  for (size_t j = 0; j < n; ++j) acc[j] += x[j];
}

}  // namespace

// --- TransposedWeights ---------------------------------------------------

TransposedWeights::TransposedWeights(const ParameterStore& params)
    : params_(&params) {
  by_id_.reserve(params.parameters().size());
  for (const NodePtr& p : params.parameters()) {
    by_id_.push_back(Matrix::Uninitialized(p->value.cols(), p->value.rows()));
    Refresh(p->param_id);
  }
}

void TransposedWeights::Refresh(int param_id) {
  Matrix& t = by_id_[static_cast<size_t>(param_id)];
  const Matrix& w = params_->parameters()[static_cast<size_t>(param_id)]->value;
  for (size_t i = 0; i < w.rows(); ++i) {
    for (size_t j = 0; j < w.cols(); ++j) t(j, i) = w(i, j);
  }
}

// --- MlpPass -------------------------------------------------------------

void MlpPass::Init(const Mlp* mlp, size_t rows) {
  mlp_ = mlp;
  rows_ = rows;
  acts_.clear();
  acts_.emplace_back(rows, mlp->in_features());
  for (const Linear& layer : mlp->layers()) {
    acts_.push_back(Matrix::Uninitialized(rows, layer.out_features()));
  }
}

bool MlpPass::Activated(size_t layer) const {
  return layer + 1 < mlp_->layers().size() || mlp_->options().activate_output;
}

void MlpPass::Forward(size_t r0, size_t r1) {
  const std::vector<Linear>& layers = mlp_->layers();
  for (size_t l = 0; l < layers.size(); ++l) {
    const Linear& layer = layers[l];
    const size_t in = layer.in_features();
    const size_t out = layer.out_features();
    double* z = acts_[l + 1].data() + r0 * out;
    GemmRowMajorF64(acts_[l].data() + r0 * in, r1 - r0, in,
                    layer.weight_value().data(), out, z);
    const double* bias = layer.bias_value().data();
    const bool activated = Activated(l);
    for (size_t r = r0; r < r1; ++r, z += out) {
      AddTo(z, bias, out);
      if (!activated) continue;
      for (size_t j = 0; j < out; ++j) {
        z[j] = z[j] > 0.0 ? z[j] : kLeakyReluSlope * z[j];
      }
    }
  }
}

void MlpPass::StartBackward(bool input_grad) {
  const std::vector<Linear>& layers = mlp_->layers();
  input_grad_ = input_grad;
  grads_.assign(acts_.size(), Matrix());
  grads_.back() = Matrix(rows_, out_width());
  for (size_t l = input_grad ? 0 : 1; l < layers.size(); ++l) {
    grads_[l] = Matrix::Uninitialized(rows_, layers[l].in_features());
  }
}

void MlpPass::Backward(size_t r0, size_t r1,
                       const TransposedWeights& weights_t) {
  const std::vector<Linear>& layers = mlp_->layers();
  for (size_t l = layers.size(); l-- > 0;) {
    const size_t in = layers[l].in_features();
    const size_t out = layers[l].out_features();
    double* dz = grads_[l + 1].data() + r0 * out;
    if (Activated(l)) {
      // LeakyReLU's slope, read from the output's sign (the output is
      // positive exactly where the pre-activation is).
      const double* a = acts_[l + 1].data() + r0 * out;
      for (size_t e = 0; e < (r1 - r0) * out; ++e) {
        dz[e] *= a[e] > 0.0 ? 1.0 : kLeakyReluSlope;
      }
    }
    if (l == 0 && !input_grad_) break;
    GemmRowMajorF64(dz, r1 - r0, out, weights_t.of(layers[l]).data(), in,
                    grads_[l].data() + r0 * in);
  }
}

void MlpPass::AccumulateParamGrads(GradStore* grads) const {
  // A pass over no rows adds no entry, so Adam leaves the parameters of a
  // block that nothing in the batch ran through alone.
  if (rows_ == 0) return;
  const std::vector<Linear>& layers = mlp_->layers();
  for (size_t l = 0; l < layers.size(); ++l) {
    const size_t in = layers[l].in_features();
    const size_t out = layers[l].out_features();
    const double* dz = grads_[l + 1].data();
    Matrix dw = Matrix::Uninitialized(in, out);
    GemmTransAF64(acts_[l].data(), rows_, in, dz, out, dw.data());
    Matrix db(1, out);
    for (size_t r = 0; r < rows_; ++r) AddTo(db.data(), dz + r * out, out);
    grads->Accumulate(layers[l].weight_id(), std::move(dw));
    grads->Accumulate(layers[l].bias_id(), std::move(db));
  }
}

double MseRow(const Matrix& outputs, size_t row, const Matrix& target,
              Matrix* grad) {
  const size_t n = target.size();
  double loss = 0.0;
  for (size_t j = 0; j < n; ++j) {
    const double d = outputs(row, j) - target.data()[j];
    loss += d * d;
    if (grad != nullptr) (*grad)(row, j) = 2.0 / static_cast<double>(n) * d;
  }
  return loss / static_cast<double>(n);
}

}  // namespace zerotune::nn
