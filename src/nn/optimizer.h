#ifndef ZEROTUNE_NN_OPTIMIZER_H_
#define ZEROTUNE_NN_OPTIMIZER_H_

#include <iosfwd>
#include <vector>

#include "common/status.h"
#include "nn/autograd.h"

namespace zerotune::nn {

/// Adam optimizer (Kingma & Ba) over the parameters of a ParameterStore.
class Adam {
 public:
  struct Options {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double weight_decay = 0.0;  // decoupled (AdamW-style)
  };

  explicit Adam(ParameterStore* store) : Adam(store, Options()) {}
  Adam(ParameterStore* store, Options options);

  /// Applies one update using the accumulated gradients and moves the
  /// store's generation. Parameters with no gradient entry are left
  /// untouched.
  void Step(const GradStore& grads);

  /// Resets moment estimates (used when fine-tuning restarts).
  void Reset();

  /// Serializes the moment estimates and step counter (not the options —
  /// those belong to whoever constructed the optimizer) at full double
  /// precision, so Save + Load resumes training bit-identically.
  Status SaveState(std::ostream& os) const;
  /// Restores state written by SaveState. Moment shapes must match the
  /// attached ParameterStore; on any error the optimizer is untouched.
  Status LoadState(std::istream& is);

  Options& options() { return options_; }

 private:
  ParameterStore* store_;
  Options options_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  long step_count_ = 0;
};

}  // namespace zerotune::nn

#endif  // ZEROTUNE_NN_OPTIMIZER_H_
