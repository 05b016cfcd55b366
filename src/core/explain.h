#ifndef ZEROTUNE_CORE_EXPLAIN_H_
#define ZEROTUNE_CORE_EXPLAIN_H_

#include <string>
#include <vector>

#include "core/model.h"

namespace zerotune::core {

/// Sensitivity of one prediction to one operator-feature slot.
struct FeatureAttribution {
  int operator_id = -1;
  std::string feature_name;
  double feature_value = 0.0;
  /// Change in predicted log-latency when the feature slot is zeroed.
  double latency_impact = 0.0;
  /// Change in predicted log-throughput when the feature slot is zeroed.
  double throughput_impact = 0.0;
};

/// Model-debugging tool: occlusion-style attribution of a cost prediction
/// to the transferable features driving it. For every non-zero operator
/// feature slot, the explainer scores a copy of the plan graph with that
/// slot zeroed and records the prediction shift — the per-feature analogue
/// of the paper's group-level ablation (Exp. 6). The copies run through
/// the fp64 TrainBatch (core/train_batch.h), kEvalChunk at a time.
class PredictionExplainer {
 public:
  struct Options {
    /// Keep only the top-k attributions by absolute impact (0 = all).
    size_t top_k = 10;
  };

  PredictionExplainer(const ZeroTuneModel* model, Options options)
      : model_(model), options_(options) {}
  explicit PredictionExplainer(const ZeroTuneModel* model)
      : PredictionExplainer(model, Options()) {}

  /// Attributions for the model's prediction on `plan`, sorted by
  /// descending combined |impact|.
  Result<std::vector<FeatureAttribution>> Explain(
      const dsp::ParallelQueryPlan& plan) const;

  /// Renders attributions as an aligned text table.
  static std::string ToText(const std::vector<FeatureAttribution>& attrs);

 private:
  const ZeroTuneModel* model_;
  Options options_;
};

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_EXPLAIN_H_
