// The gradient nn::Adam::Step applies, computed serially on GradStore's
// public surface: merge a mini-batch's chunk gradients in chunk order,
// scale, sum the global norm in the merged store's iteration order, clip,
// then check finiteness. tests/optimizer_step_test.cc pairs it with a
// scalar Adam loop as the oracle the pooled step must equal (==).
#ifndef ZEROTUNE_TESTS_SUPPORT_SERIAL_STEP_H_
#define ZEROTUNE_TESTS_SUPPORT_SERIAL_STEP_H_

#include <cmath>
#include <map>
#include <vector>

#include "nn/autograd.h"
#include "nn/matrix.h"

namespace zerotune::nn::oracle {

struct SerialGradient {
  /// The merged, scaled and clipped gradient of every parameter that has
  /// one, by parameter id.
  std::map<int, Matrix> grads;
  /// The global L2 norm before the clip.
  double norm = 0.0;
  /// Whether every clipped gradient element is finite.
  bool all_finite = true;
};

/// Accumulates every part's entries, in part order, into one GradStore;
/// multiplies each merged entry by `batch_scale` and adds its squared
/// norm, in that store's iteration order; then multiplies every entry by
/// clip_norm / norm when clip_norm > 0 and the norm exceeds it.
inline SerialGradient SerialGradients(const std::vector<GradStore>& parts,
                                      double batch_scale, double clip_norm) {
  GradStore merged;
  for (const GradStore& part : parts) {
    for (const auto& [id, g] : part) merged.Accumulate(id, g);
  }
  SerialGradient out;
  double squared = 0.0;
  for (const auto& [id, g] : merged) {
    Matrix scaled = g;
    scaled.Scale(batch_scale);
    squared += scaled.SquaredNorm();
    out.grads.emplace(id, std::move(scaled));
  }
  out.norm = std::sqrt(squared);
  for (auto& [id, g] : out.grads) {
    if (clip_norm > 0.0 && out.norm > clip_norm) g.Scale(clip_norm / out.norm);
    for (size_t k = 0; k < g.size(); ++k) {
      out.all_finite = out.all_finite && std::isfinite(g.data()[k]);
    }
  }
  return out;
}

}  // namespace zerotune::nn::oracle

#endif  // ZEROTUNE_TESTS_SUPPORT_SERIAL_STEP_H_
