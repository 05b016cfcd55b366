#ifndef ZEROTUNE_CORE_COST_PREDICTOR_H_
#define ZEROTUNE_CORE_COST_PREDICTOR_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "dsp/parallel_plan.h"

namespace zerotune::core {

/// Predicted costs of one parallel query plan deployment.
struct CostPrediction {
  double latency_ms = 0.0;
  double throughput_tps = 0.0;
};

/// Interface implemented by every cost model in this repo: the ZeroTune
/// GNN, the flat-vector baselines, and the oracle wrapper around the
/// ground-truth engine. The parallelism optimizer works against this
/// interface, so any model can drive parallelism tuning.
///
/// Every fallible entry point reports failures through common/status.h
/// (no bool/sentinel returns), with enough plan context in the message to
/// identify the offending candidate.
class CostPredictor {
 public:
  virtual ~CostPredictor() = default;

  /// What-if cost estimate for a (hypothetical) deployment.
  virtual Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan& plan) const = 0;

  /// What-if cost estimates for many candidate deployments at once, in
  /// input order. This is the optimizer's hot path: enumerating a query's
  /// parallelism candidates produces hundreds of plans that share logical
  /// operators and cluster, so implementations can amortize featurization
  /// and run batched inference. The default implementation is a
  /// sequential Predict() loop, so baselines and the oracle keep working
  /// unchanged. Every implementation returns exactly (bit for bit) what
  /// per-plan Predict() returns; ZeroTuneModel gets there by making
  /// Predict() a one-plan batch.
  ///
  /// An empty batch succeeds with an empty vector. Null entries and
  /// per-plan failures fail the whole batch, with the plan index (and the
  /// underlying error) in the status message.
  virtual Result<std::vector<CostPrediction>> PredictBatch(
      std::span<const dsp::ParallelQueryPlan* const> plans) const;

  /// Display name used in experiment tables.
  virtual std::string name() const = 0;
};

/// Convenience wrapper over CostPredictor::PredictBatch for callers that
/// hold plans by value: builds the pointer span and dispatches virtually.
Result<std::vector<CostPrediction>> PredictBatch(
    const CostPredictor& predictor,
    const std::vector<dsp::ParallelQueryPlan>& plans);

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_COST_PREDICTOR_H_
