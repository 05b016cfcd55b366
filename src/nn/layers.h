#ifndef ZEROTUNE_NN_LAYERS_H_
#define ZEROTUNE_NN_LAYERS_H_

#include <vector>

#include "common/rng.h"
#include "nn/autograd.h"

namespace zerotune::nn {

/// Fully-connected layer y = x·W + b with parameters owned by a
/// ParameterStore. Copyable handle; the parameters live in the store.
class Linear {
 public:
  /// Allocates W (in×out) and b (1×out) in `store`.
  Linear(ParameterStore* store, size_t in_features, size_t out_features,
         zerotune::Rng* rng);

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

  /// Raw parameter values, consumed by nn::QuantizedMlp's converter and
  /// the fp64 pass (nn/mlp_pass.h).
  const Matrix& weight_value() const { return weight_->value; }
  const Matrix& bias_value() const { return bias_->value; }
  /// The parameters' GradStore keys, under which the fp64 pass adds
  /// their gradients.
  int weight_id() const { return weight_->param_id; }
  int bias_id() const { return bias_->param_id; }

 private:
  size_t in_features_;
  size_t out_features_;
  NodePtr weight_;
  NodePtr bias_;
};

/// Multi-layer perceptron: Linear→LeakyReLU→…→Linear(→optional
/// LeakyReLU). It holds the parameters; nn::MlpPass (nn/mlp_pass.h) runs
/// it in fp64 and nn::QuantizedMlp in fp32.
///
/// This is the building block the paper uses for every graph node encoder
/// and for the final readout regression head.
class Mlp {
 public:
  struct Options {
    /// Applies LeakyReLU after the final layer too (hidden encoders want
    /// this; regression heads do not).
    bool activate_output = false;
  };

  /// layer_sizes = {in, h1, ..., out}; must contain at least 2 entries.
  Mlp(ParameterStore* store, const std::vector<size_t>& layer_sizes,
      zerotune::Rng* rng)
      : Mlp(store, layer_sizes, rng, Options()) {}
  Mlp(ParameterStore* store, const std::vector<size_t>& layer_sizes,
      zerotune::Rng* rng, Options options);

  size_t in_features() const { return layers_.front().in_features(); }
  size_t out_features() const { return layers_.back().out_features(); }

  /// Layer handles and options, read by nn::MlpPass and nn::QuantizedMlp's
  /// converter.
  const std::vector<Linear>& layers() const { return layers_; }
  const Options& options() const { return options_; }

 private:
  std::vector<Linear> layers_;
  Options options_;
};

}  // namespace zerotune::nn

#endif  // ZEROTUNE_NN_LAYERS_H_
