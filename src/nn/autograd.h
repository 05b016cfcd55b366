#ifndef ZEROTUNE_NN_AUTOGRAD_H_
#define ZEROTUNE_NN_AUTOGRAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/matrix.h"

namespace zerotune::nn {

class Node;
using NodePtr = std::shared_ptr<Node>;

/// Gradient accumulator keyed by parameter id. Backward passes write into a
/// GradStore rather than into the nodes themselves, which makes backward
/// re-entrant and lets worker threads accumulate gradients independently
/// and merge afterwards (data-parallel training).
class GradStore {
 public:
  /// grads[param_id] += g.
  void Accumulate(int param_id, const Matrix& g);

  /// Merges all entries of `other` into this store.
  void Merge(const GradStore& other);

  /// Scales every stored gradient (e.g. 1/batch_size).
  void Scale(double factor);

  /// Globally rescales so the total L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  double ClipGlobalNorm(double max_norm);

  /// Returns the gradient for a parameter, or nullptr if none recorded.
  const Matrix* Find(int param_id) const;

  /// True when every stored gradient entry is finite — the guard the
  /// trainer uses to detect divergence before applying an update.
  bool AllFinite() const;

  void Clear() { grads_.clear(); }
  size_t size() const { return grads_.size(); }

 private:
  std::unordered_map<int, Matrix> grads_;
};

/// A node in a dynamically-built computation graph. Nodes are created by
/// the free functions below (MatMul, Add, LeakyRelu, ...). The graph is a
/// DAG of shared_ptrs; calling Backward() walks it in reverse topological
/// order.
///
/// Thread-safety: node values are immutable after construction, so a graph
/// built by one thread over *shared parameter nodes* can run concurrently
/// with graphs on other threads, as long as parameter values are not
/// updated during the forward/backward passes.
class Node {
 public:
  /// Signature of a backward step: given d(loss)/d(this->value), add each
  /// parent's contribution into parent_grads[i] (already zero-initialized
  /// with the parent's shape).
  using BackwardFn =
      std::function<void(const Matrix& out_grad, const std::vector<Node*>& parents,
                         const std::vector<Matrix*>& parent_grads)>;

  Matrix value;
  std::vector<NodePtr> parents;
  BackwardFn backward_fn;  // null for leaves
  int param_id = -1;       // >= 0 for trainable parameters

  bool is_parameter() const { return param_id >= 0; }
};

/// Leaf node holding a constant (inputs, feature vectors).
NodePtr Constant(Matrix value);

/// a·b matrix product.
NodePtr MatMul(const NodePtr& a, const NodePtr& b);
/// Elementwise sum (same shape).
NodePtr Add(const NodePtr& a, const NodePtr& b);
/// Adds a 1×c bias row to every row of a (n×c).
NodePtr AddRowBroadcast(const NodePtr& a, const NodePtr& bias);
/// x > 0 ? x : kernels::kLeakyReluSlope·x, the activation of every
/// hidden layer.
NodePtr LeakyRelu(const NodePtr& a);
/// Horizontal concatenation of row-aligned matrices.
NodePtr ConcatCols(const std::vector<NodePtr>& parts);
/// Elementwise mean of same-shape tensors (used to aggregate messages from
/// a variable number of upstream nodes).
NodePtr MeanAll(const std::vector<NodePtr>& parts);

/// Mean squared error against a constant target; returns a 1×1 node.
NodePtr MseLoss(const NodePtr& prediction, const Matrix& target);

/// Runs reverse-mode differentiation from `loss` (must be 1×1), adding
/// parameter gradients into `grads`. The graph may be reused for multiple
/// Backward calls.
void Backward(const NodePtr& loss, GradStore* grads);

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
  /// successful LoadFromStream/CopyFrom/Restore, and Adam::Step. A failed
  /// write does not move it. Reading a generation (acquire) makes the
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
