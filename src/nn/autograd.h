#ifndef ZEROTUNE_NN_AUTOGRAD_H_
#define ZEROTUNE_NN_AUTOGRAD_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/matrix.h"

namespace zerotune::nn {

struct Node;
using NodePtr = std::shared_ptr<Node>;

/// Gradient accumulator keyed by parameter id. Backward passes
/// (MlpPass::AccumulateParamGrads, nn/mlp_pass.h) write into a GradStore
/// rather than into the parameters themselves, so worker threads
/// accumulate independently and Adam::Step merges their stores
/// (data-parallel training).
class GradStore {
 public:
  using Map = std::unordered_map<int, Matrix>;

  /// grads[param_id] += g; g is moved in when param_id has no gradient
  /// yet, so callers that are done with g pass it with std::move.
  void Accumulate(int param_id, Matrix g);

  /// Returns the gradient for a parameter, or nullptr if none recorded.
  const Matrix* Find(int param_id) const;

  size_t size() const { return grads_.size(); }

  /// The entries in the map's iteration order, which follows the hash
  /// table and the order keys were inserted in, not parameter creation
  /// order. Adam::Step sums the gradient norm in this order.
  Map::const_iterator begin() const { return grads_.begin(); }
  Map::const_iterator end() const { return grads_.end(); }

 private:
  // Adam::Step moves the entries out of the stores it merges.
  friend class Adam;

  Map grads_;
};

/// One trainable parameter: its value and its key in GradStore and Adam.
/// ParameterStore creates them; layers, the optimizer and serialization
/// share them through NodePtr.
struct Node {
  Matrix value;
  int param_id = -1;
};

/// Owns the trainable parameters of a model. Layers allocate parameters
/// here; the optimizer updates them in place; SaveToStream/LoadFromStream
/// serialize them in creation order.
///
/// Generation contract: every write to a parameter value goes through
/// this store or the Adam optimizer attached to it, and each moves
/// generation(). Caches derived from the values, such as the fp32
/// inference snapshot ZeroTuneModel keeps, rebuild when it has moved. A
/// write through a parameter node's `value` anywhere else is not seen by
/// those caches.
class ParameterStore {
 public:
  ParameterStore() = default;
  ParameterStore(const ParameterStore&) = delete;
  ParameterStore& operator=(const ParameterStore&) = delete;

  /// Allocates a rows×cols parameter initialized with uniform
  /// Kaiming/He-style scaling (±sqrt(6/fan_in)) unless `zero_init`.
  NodePtr CreateParameter(size_t rows, size_t cols, zerotune::Rng* rng,
                          bool zero_init = false);

  const std::vector<NodePtr>& parameters() const { return params_; }
  size_t num_parameters() const;  // total scalar count

  /// Moves on every write to the parameter values: CreateParameter, a
  /// successful LoadFromStream/CopyFrom/Restore, and an applied
  /// Adam::Step. A failed write does not move it. Reading a generation (acquire) makes the
  /// writes that moved it visible.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Serializes parameter values as text. Models embed them in a larger
  /// file together with config/normalization metadata.
  zerotune::Status SaveToStream(std::ostream& os) const;
  /// Restores values (shape-checked); the store must contain
  /// identically-shaped parameters created in the same order.
  zerotune::Status LoadFromStream(std::istream& is);

  /// Copies all parameter values from another store with identical layout.
  zerotune::Status CopyFrom(const ParameterStore& other);

  /// Copies of every parameter value in creation order, e.g. the
  /// trainer's best-epoch weights.
  std::vector<Matrix> Snapshot() const;
  /// Writes `values` (one per parameter, in creation order) back. Every
  /// shape is checked before the first value is written, so on error the
  /// store is untouched. LoadFromStream and CopyFrom commit through
  /// here.
  zerotune::Status Restore(std::vector<Matrix> values);

 private:
  // The optimizer updates values in place and then calls BumpGeneration().
  friend class Adam;

  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_release);
  }

  std::vector<NodePtr> params_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace zerotune::nn

#endif  // ZEROTUNE_NN_AUTOGRAD_H_
