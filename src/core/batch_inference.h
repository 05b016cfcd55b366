#ifndef ZEROTUNE_CORE_BATCH_INFERENCE_H_
#define ZEROTUNE_CORE_BATCH_INFERENCE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cost_predictor.h"
#include "core/model.h"
#include "nn/quantized.h"

namespace zerotune::core {

/// The fp32 snapshot of the GNN's eight blocks that BatchedPredict runs
/// on. ZeroTuneModel::InferenceBlocks caches one per parameter
/// generation.
struct QuantizedBlocks {
  nn::QuantizedMlp op_encoder;
  nn::QuantizedMlp res_encoder;
  nn::QuantizedMlp flow_update;
  nn::QuantizedMlp res_update;
  nn::QuantizedMlp map_message;
  nn::QuantizedMlp map_update;
  nn::QuantizedMlp flow_update2;
  nn::QuantizedMlp readout;

  static QuantizedBlocks From(const ZeroTuneModel::GnnBlocks& b);
};

/// Counters describing how much work one BatchedPredict call amortized;
/// reported by the perf benchmarks.
struct BatchInferenceStats {
  size_t plans = 0;
  /// Distinct sink states the readout scored: candidates whose message
  /// passing reaches the same sink state (identical feature graphs, or
  /// graphs a feature mask makes identical) score once and the result
  /// fans out.
  size_t unique_plans = 0;
  /// Number of distinct (topology, cluster) structure groups found.
  /// Candidates enumerated for one query all land in one group.
  size_t structure_groups = 0;
  /// Rows actually pushed through the operator encoder MLP after
  /// deduplication vs. what a per-plan path would encode.
  size_t operator_rows_encoded = 0;
  size_t operator_rows_total = 0;
  /// Same for the resource encoder (one row per cluster node per plan in
  /// the naive path; typically one row per cluster node overall here).
  size_t resource_rows_encoded = 0;
  size_t resource_rows_total = 0;
};

/// Batched ZeroTune GNN inference over many candidate plans.
///
/// The paper's optimizer scores hundreds of what-if candidates per query
/// which share the same logical operators and cluster and differ only in
/// parallelism/mapping features. This engine amortizes that structure:
///  * featurization runs once per plan (in parallel over `pool`),
///  * operator/resource encoder inputs are deduplicated across the whole
///    batch and encoded in one row-batched MLP call each,
///  * plans with identical topology and cluster are grouped, the
///    resource-exchange stage runs once per group, and every message-
///    passing stage runs as one row-batched matrix op across the group's
///    distinct stage inputs, so duplicate candidates score once
///    (independent groups run in parallel over `pool`).
///
/// Inference runs on the model's fp32 snapshot of the weights
/// (ZeroTuneModel::InferenceBlocks, built once per parameter generation
/// and held for the whole call), so predictions are within 1e-3 relative
/// of the fp64 autograd ZeroTuneModel::Forward on each plan. They are
/// bit-identical to scoring each plan alone, independent of batch
/// composition and thread count; a one-plan call is
/// ZeroTuneModel::Predict.
Result<std::vector<CostPrediction>> BatchedPredict(
    const ZeroTuneModel& model,
    std::span<const dsp::ParallelQueryPlan* const> plans,
    zerotune::ThreadPool* pool = nullptr,
    BatchInferenceStats* stats = nullptr);

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_BATCH_INFERENCE_H_
