#ifndef ZEROTUNE_CORE_TRAIN_BATCH_H_
#define ZEROTUNE_CORE_TRAIN_BATCH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/model.h"
#include "core/plan_graph.h"
#include "nn/autograd.h"
#include "nn/matrix.h"
#include "nn/mlp_pass.h"

namespace zerotune::core {

/// The fp64 pass that trains and evaluates the ZeroTune GNN (the trainer's
/// batches, its validation loss and q-errors, and the occlusion
/// explainer). A chunk of plan graphs runs as one disjoint-union graph, so
/// each MLP block is a row-batched GEMM over many nodes at once: each of
/// the model's eight blocks runs as one nn::MlpPass. Construction runs the
/// forward pass and keeps every block's activations; Backward() is a
/// hand-written reverse pass over them.
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
///     a residual is state + update. tests/train_batch_test.cc builds
///     the per-node forward this reproduces exactly on the autograd
///     oracle of tests/support;
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
  void Backward(const nn::Matrix& d_outputs,
                const nn::TransposedWeights& weights_t, nn::GradStore* grads);

 private:
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

  nn::MlpPass op_encoder_, res_encoder_, flow_update_, res_update_,
      map_message_, map_update_, flow_update2_, readout_;
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
