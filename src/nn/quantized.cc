#include "nn/quantized.h"

#include <cassert>

namespace zerotune::nn {

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
                    ? kernels::FusedAct::kLeakyRelu
                    : kernels::FusedAct::kNone;
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
      kernels::BiasActRowF32(dst.data() + r * layer.out, bias, layer.out,
                             layer.act);
    }
    cur = dst.data();
  }
}

}  // namespace zerotune::nn
