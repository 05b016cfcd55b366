#include "nn/quantized.h"

#include <cassert>
#include <cmath>

#include "nn/kernels.h"

namespace zerotune::nn {

namespace {

/// fp32 activation matching the autograd Tanh/Sigmoid formulas; only the
/// libm-backed activations land here — none/relu/leaky-relu are fused
/// into BiasActRowF32.
void ActivateRowF32(float* row, size_t n, Activation act) {
  switch (act) {
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) row[i] = std::tanh(row[i]);
      break;
    case Activation::kSigmoid:
      for (size_t i = 0; i < n; ++i) {
        row[i] = 1.0f / (1.0f + std::exp(-row[i]));
      }
      break;
    default:
      break;
  }
}

bool HasFusedForm(Activation act) {
  return act == Activation::kNone || act == Activation::kRelu ||
         act == Activation::kLeakyRelu;
}

kernels::FusedAct ToFused(Activation act) {
  switch (act) {
    case Activation::kRelu:
      return kernels::FusedAct::kRelu;
    case Activation::kLeakyRelu:
      return kernels::FusedAct::kLeakyRelu;
    default:
      return kernels::FusedAct::kNone;
  }
}

}  // namespace

QuantizedMlp QuantizedMlp::FromMlp(const Mlp& mlp) {
  QuantizedMlp q;
  const std::vector<Linear>& layers = mlp.layers();
  size_t total = 0;
  for (const Linear& l : layers) {
    total += (l.in_features() + 1) * l.out_features();
  }
  q.params_.resize(total);
  q.layers_.reserve(layers.size());
  size_t offset = 0;
  for (size_t li = 0; li < layers.size(); ++li) {
    const Linear& l = layers[li];
    Layer layer;
    layer.in = l.in_features();
    layer.out = l.out_features();
    layer.offset = offset;
    // Weights (in×out) then biases (1×out), both row-major.
    for (const Matrix* m : {&l.weight_value(), &l.bias_value()}) {
      float* dst = q.params_.data() + offset;
      for (size_t i = 0; i < m->size(); ++i) {
        dst[i] = static_cast<float>(m->data()[i]);
      }
      offset += m->size();
    }
    const bool is_last = (li + 1 == layers.size());
    layer.act = (!is_last || mlp.options().activate_output)
                    ? mlp.options().activation
                    : Activation::kNone;
    q.layers_.push_back(layer);
  }
  return q;
}

void QuantizedMlp::ForwardRows(const float* x, size_t rows,
                               FloatBuffer* out) const {
  assert(!layers_.empty());
  if (rows == 0) {
    out->clear();
    return;
  }

  // Ping-pong between `*out` and a scratch buffer; the first layer reads
  // straight from `x` so no input copy or conversion happens.
  FloatBuffer scratch;
  const float* cur = x;
  for (size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    FloatBuffer& dst = (layers_.size() - li) % 2 == 1 ? *out : scratch;
    dst.resize(rows * layer.out);
    const float* w = params_.data() + layer.offset;
    const float* bias = w + layer.in * layer.out;
    // One GEMM over the whole row batch (overwrites dst completely).
    kernels::GemmRowMajorF32(cur, rows, layer.in, w, layer.out, dst.data());
    for (size_t r = 0; r < rows; ++r) {
      float* out_row = dst.data() + r * layer.out;
      if (HasFusedForm(layer.act)) {
        kernels::BiasActRowF32(out_row, bias, layer.out, ToFused(layer.act));
      } else {
        kernels::BiasActRowF32(out_row, bias, layer.out,
                               kernels::FusedAct::kNone);
        ActivateRowF32(out_row, layer.out, layer.act);
      }
    }
    cur = dst.data();
  }
}

}  // namespace zerotune::nn
