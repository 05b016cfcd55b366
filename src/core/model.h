#ifndef ZEROTUNE_CORE_MODEL_H_
#define ZEROTUNE_CORE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/cost_predictor.h"
#include "core/plan_graph.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace zerotune {
class ThreadPool;
}

namespace zerotune::core {

struct QuantizedBlocks;  // core/batch_inference.h

/// Hyperparameters and feature configuration of the ZeroTune GNN.
struct ModelConfig {
  /// Width of every hidden state in the graph network.
  size_t hidden_dim = 48;
  /// Feature groups to encode (masked for the Exp. 6 ablation).
  FeatureConfig features;
  /// Parameter initialization seed.
  uint64_t seed = 1;
};

/// Normalization statistics of the (log-transformed) training targets.
struct TargetStats {
  double latency_mean = 0.0;
  double latency_std = 1.0;
  double throughput_mean = 0.0;
  double throughput_std = 1.0;
};

/// The ZeroTune zero-shot cost model (paper Sec. III-C): a graph neural
/// network over the parallel plan graph.
///
/// Architecture (all blocks are 1-hidden-layer MLPs of width hidden_dim):
///  1. node-type encoders embed operator and resource feature vectors;
///  2. stage 1 — bottom-up message passing along data-flow edges
///     (topological order, mean-aggregated upstream states);
///  3. stage 2 — one exchange round among resource nodes;
///  4. stage 3 — operator→resource mapping edges deliver resource states
///     (with per-instance mapping features) into each operator state;
///  5. stage 4 — a second bottom-up data-flow pass propagates the
///     resource-aware states to the sink;
///  6. a final regression MLP reads the sink state out into normalized
///     log-space (latency, throughput) predictions.
///
/// Two passes run this network: the row-batched fp64 TrainBatch
/// (core/train_batch.h) trains it and scores it for the trainer's losses
/// and q-errors and for the occlusion explainer; the fp32 batch engine
/// (core/batch_inference.h) answers every prediction, within 1e-3
/// relative of the fp64 pass.
///
/// Training targets are log1p-transformed and standardized with
/// TargetStats; Predict() inverts the transform.
class ZeroTuneModel : public CostPredictor {
 public:
  explicit ZeroTuneModel(ModelConfig config = ModelConfig());

  ZeroTuneModel(const ZeroTuneModel&) = delete;
  ZeroTuneModel& operator=(const ZeroTuneModel&) = delete;

  /// Validates `plan`, then scores it as a one-plan PredictBatch, so
  /// every prediction the system serves or acts on comes from the one
  /// fp32 engine.
  Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan& plan) const override;

  /// Batched inference (core/batch_inference.h): featurizes all plans
  /// once, deduplicates shared operator/resource encodings and duplicate
  /// candidates, and runs the MLP blocks as row-batched fp32 matrix ops.
  /// Bit-identical to per-plan Predict() whatever the batch composition.
  Result<std::vector<CostPrediction>> PredictBatch(
      std::span<const dsp::ParallelQueryPlan* const> plans) const override;

  /// Optional worker pool PredictBatch shards featurization over and
  /// runs independent structure groups on (not owned; null = the calling
  /// thread does all the work).
  void set_thread_pool(zerotune::ThreadPool* pool) { pool_ = pool; }
  zerotune::ThreadPool* thread_pool() const { return pool_; }

  std::string name() const override { return "ZeroTune"; }

  /// Normalized 1×2 regression target for a measured (latency_ms, tps).
  nn::Matrix EncodeTarget(double latency_ms, double throughput_tps) const;
  /// Inverts EncodeTarget on a model output.
  CostPrediction DecodeOutput(const nn::Matrix& out) const;

  void set_target_stats(const TargetStats& stats) { stats_ = stats; }
  const TargetStats& target_stats() const { return stats_; }
  const ModelConfig& config() const { return config_; }

  /// Registry version of this artifact (core/registry/model_registry.h).
  /// 0 = unversioned (a model that never went through a registry). The
  /// value round-trips through Save/Load; files written before versioning
  /// existed load as 0.
  void set_version(uint64_t version) { version_ = version; }
  uint64_t version() const { return version_; }

  /// Every write through the store or an optimizer attached to it moves
  /// params().generation(), and the next prediction runs on a fresh fp32
  /// snapshot. A write to a parameter's `value` made any other way is
  /// not seen by inference.
  nn::ParameterStore* mutable_params() { return &params_; }
  const nn::ParameterStore& params() const { return params_; }

  /// Handles to the architecture blocks, from which the batched
  /// inference engine builds its fp32 snapshot (core/batch_inference.h).
  struct GnnBlocks {
    const nn::Mlp* op_encoder;
    const nn::Mlp* res_encoder;
    const nn::Mlp* flow_update;
    const nn::Mlp* res_update;
    const nn::Mlp* map_message;
    const nn::Mlp* map_update;
    const nn::Mlp* flow_update2;
    const nn::Mlp* readout;
  };
  GnnBlocks blocks() const;

  /// The fp32 snapshot of the eight blocks that BatchedPredict runs on.
  /// Built on first use and rebuilt only when params().generation() has
  /// moved since, so serving and tuning convert the weights once per
  /// weight change. A caller holds the returned reference for its whole
  /// batch: the batch never sees weights change mid-call, and a rebuild
  /// cannot free blocks it still reads.
  std::shared_ptr<const QuantizedBlocks> InferenceBlocks() const;

  /// Serializes config, target stats and all parameters to one file.
  Status Save(const std::string& path) const;
  /// Loads a model saved by Save(); the config in the file must match
  /// this model's architecture-relevant fields. On error the model is
  /// unchanged.
  Status Load(const std::string& path);

  /// Constructs a model with the configuration stored in the file, then
  /// loads it — for callers (e.g. the CLI) that don't know the saved
  /// hidden size up front.
  static Result<std::unique_ptr<ZeroTuneModel>> LoadFromFile(
      const std::string& path);

 private:
  ModelConfig config_;
  TargetStats stats_;
  uint64_t version_ = 0;
  nn::ParameterStore params_;
  zerotune::ThreadPool* pool_ = nullptr;

  // Architecture blocks (handles into params_).
  std::unique_ptr<nn::Mlp> op_encoder_;
  std::unique_ptr<nn::Mlp> res_encoder_;
  std::unique_ptr<nn::Mlp> flow_update_;
  std::unique_ptr<nn::Mlp> res_update_;
  std::unique_ptr<nn::Mlp> map_message_;
  std::unique_ptr<nn::Mlp> map_update_;
  std::unique_ptr<nn::Mlp> flow_update2_;
  std::unique_ptr<nn::Mlp> readout_;

  mutable Mutex snapshot_mu_;
  mutable std::shared_ptr<const QuantizedBlocks> snapshot_
      ZT_GUARDED_BY(snapshot_mu_);
  // params_.generation() when snapshot_ was built.
  mutable uint64_t snapshot_generation_ ZT_GUARDED_BY(snapshot_mu_) = 0;
};

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_MODEL_H_
