#ifndef ZEROTUNE_NN_OPTIMIZER_H_
#define ZEROTUNE_NN_OPTIMIZER_H_

#include <iosfwd>
#include <vector>

#include "common/status.h"
#include "nn/autograd.h"

namespace zerotune {
class ThreadPool;
}  // namespace zerotune

namespace zerotune::nn {

class TransposedWeights;  // nn/mlp_pass.h

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

  /// What one Step found and did.
  struct StepResult {
    /// The merged, scaled gradient's global L2 norm before clipping.
    double grad_norm = 0.0;
    /// False when some gradient entry was NaN or infinite: the step then
    /// wrote no weight, moment or step count.
    bool applied = false;
  };

  /// One optimizer step over a mini-batch whose gradients arrive as
  /// `parts`, one GradStore per chunk in chunk order. Three stages:
  ///   1. Merge and scale, per entry on `pool`. The parts' entries enter a
  ///      fresh store serially, in part order and each part's iteration
  ///      order (as GradStore::Accumulate of each entry would insert
  ///      them), so an entry is the first part's gradient that has it
  ///      plus the later parts' in part order, ((g0 + g1) + g2) + …; it
  ///      is then multiplied by `batch_scale`, and its squared L2 norm
  ///      and finiteness are taken.
  ///   2. grad_norm: the entries' squared norms summed serially in the
  ///      merged store's iteration order. That order follows the hash
  ///      table, not parameter creation order, and trained weights
  ///      depend on it: clipping fires on most of the trainer's
  ///      mini-batches, and summing in creation order instead moved the
  ///      benchmark's finetune error_ratio from 1.8987 to 1.9035
  ///      (+0.25%). Keep the order when changing how the step merges or
  ///      clips.
  ///   3. Only when every entry is finite: kernels::AdamStepF64 per
  ///      parameter on `pool`, every gradient element multiplied first by
  ///      the clip factor (clip_norm / grad_norm when clip_norm > 0 and
  ///      grad_norm exceeds it, else 1); with `weights_t`, each written
  ///      weight's transposed copy is refreshed on the thread that wrote
  ///      it. Parameters without an entry are left untouched, and the
  ///      store's generation moves.
  /// The result depends on neither the pool nor the ISA.
  StepResult Step(std::vector<GradStore> parts, double batch_scale,
                  double clip_norm, zerotune::ThreadPool* pool = nullptr,
                  TransposedWeights* weights_t = nullptr);

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
