// The per-sample reverse-mode autograd graph that trained the models before
// nn::MlpPass (nn/mlp_pass.h) replaced it, kept for tests only: the oracle
// the row-batched passes are checked against. Its arithmetic is the
// original's: the matrix product runs on kernels::GemmRowMajorF64 (as the
// passes' GEMMs do), so a pass and the graph agree bit for bit wherever
// they add the same terms in the same order.
#ifndef ZEROTUNE_TESTS_SUPPORT_AUTOGRAD_ORACLE_H_
#define ZEROTUNE_TESTS_SUPPORT_AUTOGRAD_ORACLE_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/matrix.h"

namespace zerotune::nn::oracle {

struct Node;
using NodePtr = std::shared_ptr<Node>;

/// A node in a dynamically built computation graph. Nodes are created by
/// the free functions below (MatMul, Add, LeakyRelu, ...). The graph is a
/// DAG of shared_ptrs; Backward() walks it in reverse topological order.
///
/// Thread safety: node values are immutable after construction, and a
/// parameter leaf reads the parameter's value in place, so graphs built
/// by several threads over shared parameters may run concurrently as long
/// as nobody writes the parameters meanwhile.
struct Node {
  /// Given d(loss)/d(value()), adds each parent's contribution into
  /// parent_grads[i] (already zero-initialized with the parent's shape).
  using BackwardFn = std::function<void(
      const Matrix& out_grad, const std::vector<Node*>& parents,
      const std::vector<Matrix*>& parent_grads)>;

  const Matrix& value() const { return param != nullptr ? *param : own; }

  Matrix own;                     // the value of every other node
  const Matrix* param = nullptr;  // a parameter leaf's value, not owned
  int param_id = -1;              // >= 0 for a parameter leaf
  std::vector<NodePtr> parents;
  BackwardFn backward_fn;         // null for leaves
};

/// Leaf node holding a constant (inputs, feature vectors).
NodePtr Constant(Matrix value);
/// Leaf reading a parameter's value in place (`value` must outlive the
/// graph); Backward adds its gradient into the store under `param_id`.
NodePtr Parameter(const Matrix& value, int param_id);
NodePtr Parameter(const nn::NodePtr& p);

/// a·b matrix product on kernels::GemmRowMajorF64.
NodePtr MatMul(const NodePtr& a, const NodePtr& b);
/// Elementwise sum (same shape).
NodePtr Add(const NodePtr& a, const NodePtr& b);
/// Adds a 1×c bias row to every row of a (n×c).
NodePtr AddRowBroadcast(const NodePtr& a, const NodePtr& bias);
/// x > 0 ? x : kernels::kLeakyReluSlope·x.
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
/// Backward calls. Each parameter leaf adds the sum of its uses'
/// gradients into its entry, in the order the walk reaches the leaves.
void Backward(const NodePtr& loss, GradStore* grads);

/// One leaf per parameter, shared by every use in the graphs built with
/// it: Backward then sums a parameter's uses before adding them into the
/// store, as it did when the parameters themselves were the leaves.
class ParameterLeaves {
 public:
  /// Parameter(value, param_id), made on the first call for `param_id`.
  NodePtr Get(const Matrix& value, int param_id);

 private:
  std::unordered_map<int, NodePtr> leaves_;
};

/// `mlp` over x (n×in) as a graph: x·W + b per layer, LeakyReLU after
/// each hidden layer (and after the last one when the Mlp activates its
/// output), its weights and biases taken from `leaves`.
NodePtr Forward(const Mlp& mlp, const NodePtr& x, ParameterLeaves* leaves);

}  // namespace zerotune::nn::oracle

#endif  // ZEROTUNE_TESTS_SUPPORT_AUTOGRAD_ORACLE_H_
