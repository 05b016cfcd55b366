#ifndef ZEROTUNE_CORE_TRAIN_BATCH_H_
#define ZEROTUNE_CORE_TRAIN_BATCH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/model.h"
#include "core/plan_graph.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/matrix.h"

namespace zerotune::core {

/// Every weight matrix of a ZeroTuneModel, transposed: the reverse pass's
/// input gradients dX = dZ·Wᵀ read them. It copies the weights, so one
/// set serves every TrainBatch::Backward until they change; then refresh
/// what changed. The trainer keeps one set for a whole run and refreshes
/// each weight right after Adam writes it, on the thread that wrote it.
class TransposedWeights {
 public:
  /// `model` must outlive this.
  explicit TransposedWeights(const ZeroTuneModel& model);

  /// Copies parameter `param_id`'s current value again when it is a
  /// weight (biases have no copy). Calls for different ids may run
  /// concurrently.
  void Refresh(int param_id);

  /// Wᵀ for one of the model's layers.
  const nn::Matrix& of(const nn::Linear& layer) const {
    return by_id_[static_cast<size_t>(layer.weight_id())];
  }

 private:
  const nn::ParameterStore* params_;
  std::vector<nn::Matrix> by_id_;  // indexed by parameter id; biases empty
};

/// The fp64 pass that trains and evaluates the ZeroTune GNN (the trainer's
/// batches, its validation loss and q-errors, and the occlusion
/// explainer). A chunk of plan graphs runs as one disjoint-union graph, so
/// each MLP block is a row-batched GEMM over many nodes at once.
/// Construction runs the forward pass and keeps every block's
/// activations; Backward() is a hand-written reverse pass over them.
///
/// Batching: a node's depth is its longest path from a source. The two
/// data-flow stages (1 and 4 in ZeroTuneModel's architecture) run one
/// GEMM per depth level over the whole chunk; the two encoders, the
/// resource exchange, the mapping messages, map_update and the readout
/// run one GEMM each.
///
/// Numerics contract:
///   - each graph's output row equals (==) the row it gets when run
///     alone, whatever else shares the chunk: every element sums its GEMM
///     terms in ascending k, skipping zero inputs, then adds the bias,
///     then applies LeakyReLU; a mean copies its first row, adds the
///     others in upstream or mapping-edge order, then multiplies by 1/n;
///     a residual is state + update. tests/train_batch_test.cc holds the
///     per-node autograd forward this reproduces exactly;
///   - gradients equal reverse-mode differentiation of that forward up to
///     fp64 reassociation: a weight's gradient sums over all of the
///     chunk's rows in one GEMM;
///   - every GEMM runs on kernels::GemmRowMajorF64, which is bit-identical
///     across ISAs, so trained weights do not depend on the machine's SIMD
///     support.
///
/// Thread safety: reads the model's weights and nothing else shared, so
/// passes over one model may run on several threads as long as nobody
/// writes the weights meanwhile.
class TrainBatch {
 public:
  /// Runs the forward pass over `graphs` (at least one), each encoded
  /// with `model`'s feature configuration. `model` must outlive this.
  TrainBatch(const ZeroTuneModel& model,
             std::span<const PlanGraph* const> graphs);

  TrainBatch(const TrainBatch&) = delete;
  TrainBatch& operator=(const TrainBatch&) = delete;

  /// graphs.size()×2: row g holds graphs[g]'s normalized (log latency,
  /// log throughput), the input of ZeroTuneModel::DecodeOutput.
  const nn::Matrix& outputs() const { return readout_.output(); }

  /// Reverse pass from d(loss)/d(outputs()) (same shape): adds one
  /// gradient per parameter into `grads`. `weights_t` must hold the
  /// transposes of the weights this pass ran on. Each call starts again
  /// from the kept activations, so calling it twice adds the gradients
  /// twice.
  void Backward(const nn::Matrix& d_outputs, const TransposedWeights& weights_t,
                nn::GradStore* grads);

 private:
  /// One MLP block over a set of rows. Keeps every layer's input and
  /// activated output for the reverse pass.
  class Block {
   public:
    void Init(const nn::Mlp* mlp, size_t rows);

    /// Row r of the block input, which the caller fills before Forward
    /// (zero until then).
    double* input(size_t r) { return acts_.front().data() + r * in_width(); }
    const double* output(size_t r) const {
      return acts_.back().data() + r * out_width();
    }
    const nn::Matrix& output() const { return acts_.back(); }

    /// Runs rows [r0, r1) through every layer.
    void Forward(size_t r0, size_t r1);

    /// Allocates the gradient buffers (input gradients only with
    /// `input_grad`) and zeroes output_grad.
    void StartBackward(bool input_grad);
    /// d(loss)/d(output row r): callers add every consumer's share here
    /// before the row's Backward.
    double* output_grad(size_t r) {
      return grads_.back().data() + r * out_width();
    }
    /// Backpropagates rows [r0, r1); afterwards input_grad(r) holds
    /// d(loss)/d(input row r) when StartBackward asked for it.
    void Backward(size_t r0, size_t r1, const TransposedWeights& weights_t);
    const double* input_grad(size_t r) const {
      return grads_.front().data() + r * in_width();
    }
    /// Adds dW = inputᵀ·dZ over all rows (GemmTransAF64, reading the
    /// kept input in place) and db = the column sums of dZ of every layer
    /// into `grads`.
    void AccumulateParamGrads(nn::GradStore* grads) const;

   private:
    size_t in_width() const { return mlp_->in_features(); }
    size_t out_width() const { return mlp_->out_features(); }
    bool Activated(size_t layer) const;

    const nn::Mlp* mlp_ = nullptr;
    size_t rows_ = 0;
    bool input_grad_ = false;
    // acts_[0] is the block input; acts_[l + 1] is layer l's output.
    std::vector<nn::Matrix> acts_;
    // grads_[l] holds d(loss)/d(acts_[l]). Backward turns grads_[l + 1]
    // into d(loss)/d(layer l's pre-activation) in place, the dZ that
    // AccumulateParamGrads reads.
    std::vector<nn::Matrix> grads_;
  };

  size_t num_levels() const { return level_begin_.size() - 1; }

  size_t hidden_;
  // The disjoint union's index. Operators, resources and mapping edges
  // are numbered across the chunk, graph after graph.
  std::vector<size_t> ups_begin_;  // upstreams of op i: ups_[ups_begin_[i]..]
  std::vector<size_t> ups_;
  std::vector<size_t> in_begin_;  // mapping edges into op i, in edge order
  std::vector<size_t> in_edges_;
  std::vector<size_t> edge_res_;   // resource of each mapping edge
  std::vector<size_t> res_begin_;  // graph g owns [res_begin_[g], [g + 1])
  std::vector<size_t> sink_;       // sink operator of each graph
  // Stage-1/4 rows, sorted by depth level: level d owns rows
  // [level_begin_[d], level_begin_[d + 1]); row_op_ and op_row_ map
  // between those rows and operator numbers.
  std::vector<size_t> level_begin_;
  std::vector<size_t> row_op_;
  std::vector<size_t> op_row_;

  Block op_encoder_, res_encoder_, flow_update_, res_update_, map_message_,
      map_update_, flow_update2_, readout_;
  nn::Matrix mapped_;  // stage-3 state per operator
  nn::Matrix final_;   // stage-4 state per operator
};

/// Graphs per TrainBatch where only the outputs are read (the trainer's
/// validation loss and q-errors, the explainer's occluded copies): bounds
/// the activations held at once. A row does not depend on what shares
/// its chunk, so this bound never changes an output.
inline constexpr size_t kEvalChunk = 16;

/// TrainBatch(model, {&graph}).outputs(): the 1×2 normalized output of one
/// graph.
nn::Matrix ForwardGraph(const ZeroTuneModel& model, const PlanGraph& graph);

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_TRAIN_BATCH_H_
