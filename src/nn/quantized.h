#ifndef ZEROTUNE_NN_QUANTIZED_H_
#define ZEROTUNE_NN_QUANTIZED_H_

#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"

namespace zerotune::nn {

/// An Mlp converted to fp32 for batched inference. Each layer's weights
/// are stored row-major (in×out), followed by its biases, in one buffer
/// for the whole MLP; ForwardRows runs one GemmRowMajorF32 per layer over
/// the whole row batch. fp32 halves the memory traffic of the fp64
/// parameters and doubles the SIMD lane count; relative error vs the fp64
/// Mlp is bounded by fp32 rounding (~1e-6 per operation, see
/// tests/quantized_test.cc for the enforced bounds). Holds a snapshot:
/// conversion copies values, so later training steps on the source Mlp
/// are not reflected. ZeroTuneModel rebuilds its snapshot when its
/// ParameterStore's generation() moves (core/batch_inference.h).
///
/// Rows are processed independently: results never depend on how callers
/// batch rows, which keeps the batch engine's dedup/chunking transforms
/// exact.
class QuantizedMlp {
 public:
  /// Converts all layers of `mlp` (weights, biases, activation plan).
  static QuantizedMlp FromMlp(const Mlp& mlp);

  /// `x` is `rows` row-major rows of in_features() floats; `*out` is
  /// overwritten with rows×out_features() results. This is the batch
  /// engine's hot path, which keeps its whole message-passing state in
  /// fp32 (FloatBuffer avoids zero-filling buffers that are fully
  /// overwritten). `out` must not alias `x`.
  void ForwardRows(const float* x, size_t rows, FloatBuffer* out) const;

  size_t in_features() const { return layers_.front().in; }
  size_t out_features() const { return layers_.back().out; }

 private:
  struct Layer {
    size_t in = 0;
    size_t out = 0;
    size_t offset = 0;  // into params_: in×out weights, then out biases
    Activation act = Activation::kNone;  // applied after this layer
  };

  std::vector<Layer> layers_;
  std::vector<float> params_;
};

}  // namespace zerotune::nn

#endif  // ZEROTUNE_NN_QUANTIZED_H_
