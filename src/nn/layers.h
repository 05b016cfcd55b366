#ifndef ZEROTUNE_NN_LAYERS_H_
#define ZEROTUNE_NN_LAYERS_H_

#include <vector>

#include "common/rng.h"
#include "nn/autograd.h"

namespace zerotune::nn {

/// Activation functions supported by the layer helpers.
enum class Activation {
  kNone,
  kRelu,
  kLeakyRelu,
  kTanh,
  kSigmoid,
};

/// Applies the activation to a node (identity for kNone).
NodePtr Activate(const NodePtr& x, Activation act);

/// Fully-connected layer y = x·W + b with parameters owned by a
/// ParameterStore. Copyable handle; the parameters live in the store.
class Linear {
 public:
  /// Allocates W (in×out) and b (1×out) in `store`.
  Linear(ParameterStore* store, size_t in_features, size_t out_features,
         zerotune::Rng* rng);

  /// x is n×in; returns n×out.
  NodePtr Forward(const NodePtr& x) const;

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

  /// Raw parameter values, consumed by nn::QuantizedMlp's converter.
  const Matrix& weight_value() const { return weight_->value; }
  const Matrix& bias_value() const { return bias_->value; }

 private:
  size_t in_features_;
  size_t out_features_;
  NodePtr weight_;
  NodePtr bias_;
};

/// Multi-layer perceptron: Linear→act→…→Linear(→optional act).
///
/// This is the building block the paper uses for every graph node encoder
/// and for the final readout regression head.
class Mlp {
 public:
  struct Options {
    Activation activation = Activation::kLeakyRelu;
    /// Applies the activation after the final layer too (hidden encoders
    /// want this; regression heads do not).
    bool activate_output = false;
  };

  /// layer_sizes = {in, h1, ..., out}; must contain at least 2 entries.
  Mlp(ParameterStore* store, const std::vector<size_t>& layer_sizes,
      zerotune::Rng* rng)
      : Mlp(store, layer_sizes, rng, Options()) {}
  Mlp(ParameterStore* store, const std::vector<size_t>& layer_sizes,
      zerotune::Rng* rng, Options options);

  NodePtr Forward(const NodePtr& x) const;

  size_t in_features() const { return layers_.front().in_features(); }
  size_t out_features() const { return layers_.back().out_features(); }

  /// Layer handles and options, consumed by nn::QuantizedMlp's converter.
  const std::vector<Linear>& layers() const { return layers_; }
  const Options& options() const { return options_; }

 private:
  std::vector<Linear> layers_;
  Options options_;
};

}  // namespace zerotune::nn

#endif  // ZEROTUNE_NN_LAYERS_H_
