#include "nn/layers.h"

#include <cassert>

namespace zerotune::nn {

Linear::Linear(ParameterStore* store, size_t in_features, size_t out_features,
               zerotune::Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(store->CreateParameter(in_features, out_features, rng)),
      bias_(store->CreateParameter(1, out_features, rng, /*zero_init=*/true)) {}

NodePtr Linear::Forward(const NodePtr& x) const {
  assert(x->value.cols() == in_features_);
  return AddRowBroadcast(MatMul(x, weight_), bias_);
}

Mlp::Mlp(ParameterStore* store, const std::vector<size_t>& layer_sizes,
         zerotune::Rng* rng, Options options)
    : options_(options) {
  assert(layer_sizes.size() >= 2);
  layers_.reserve(layer_sizes.size() - 1);
  for (size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    layers_.emplace_back(store, layer_sizes[i], layer_sizes[i + 1], rng);
  }
}

NodePtr Mlp::Forward(const NodePtr& x) const {
  NodePtr h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    const bool is_last = (i + 1 == layers_.size());
    if (!is_last || options_.activate_output) h = LeakyRelu(h);
  }
  return h;
}

}  // namespace zerotune::nn
