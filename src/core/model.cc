#include "core/model.h"

#include <cmath>
#include <fstream>

#include "analysis/shape_checker.h"
#include "common/file_util.h"
#include "core/batch_inference.h"
#include "core/features.h"

namespace zerotune::core {

using nn::Matrix;

ZeroTuneModel::ZeroTuneModel(ModelConfig config) : config_(config) {
  Rng rng(config_.seed);
  const size_t h = config_.hidden_dim;
  nn::Mlp::Options hidden_opts;
  hidden_opts.activate_output = true;
  op_encoder_ = std::make_unique<nn::Mlp>(
      &params_, std::vector<size_t>{FeatureEncoder::OperatorDim(), h, h},
      &rng, hidden_opts);
  res_encoder_ = std::make_unique<nn::Mlp>(
      &params_, std::vector<size_t>{FeatureEncoder::ResourceDim(), h, h},
      &rng, hidden_opts);
  flow_update_ = std::make_unique<nn::Mlp>(
      &params_, std::vector<size_t>{2 * h, h, h}, &rng, hidden_opts);
  res_update_ = std::make_unique<nn::Mlp>(
      &params_, std::vector<size_t>{2 * h, h, h}, &rng, hidden_opts);
  map_message_ = std::make_unique<nn::Mlp>(
      &params_,
      std::vector<size_t>{h + FeatureEncoder::MappingDim(), h, h}, &rng,
      hidden_opts);
  map_update_ = std::make_unique<nn::Mlp>(
      &params_, std::vector<size_t>{2 * h, h, h}, &rng, hidden_opts);
  flow_update2_ = std::make_unique<nn::Mlp>(
      &params_, std::vector<size_t>{2 * h, h, h}, &rng, hidden_opts);
  nn::Mlp::Options readout_opts;  // no output activation: regression head
  readout_ = std::make_unique<nn::Mlp>(
      &params_, std::vector<size_t>{h, h, 2}, &rng, readout_opts);
}

Result<CostPrediction> ZeroTuneModel::Predict(
    const dsp::ParallelQueryPlan& plan) const {
  // Validate here so an invalid plan reports its own error rather than
  // the batch's "plan #0 of 1" annotation. A one-plan batch runs on the
  // calling thread: ParallelFor with n = 1 never dispatches to the pool.
  ZT_RETURN_IF_ERROR(plan.Validate());
  const dsp::ParallelQueryPlan* const one[] = {&plan};
  ZT_ASSIGN_OR_RETURN(const std::vector<CostPrediction> out,
                      BatchedPredict(*this, one, pool_));
  return out.front();
}

Result<std::vector<CostPrediction>> ZeroTuneModel::PredictBatch(
    std::span<const dsp::ParallelQueryPlan* const> plans) const {
  return BatchedPredict(*this, plans, pool_);
}

ZeroTuneModel::GnnBlocks ZeroTuneModel::blocks() const {
  return GnnBlocks{op_encoder_.get(), res_encoder_.get(),
                   flow_update_.get(), res_update_.get(),
                   map_message_.get(), map_update_.get(),
                   flow_update2_.get(), readout_.get()};
}

std::shared_ptr<const QuantizedBlocks> ZeroTuneModel::InferenceBlocks()
    const {
  // Read the generation before converting, so a snapshot is never keyed
  // on a generation newer than the values it copied.
  const uint64_t generation = params_.generation();
  MutexLock lock(snapshot_mu_);
  if (snapshot_ == nullptr || snapshot_generation_ != generation) {
    snapshot_ = std::make_shared<const QuantizedBlocks>(
        QuantizedBlocks::From(blocks()));
    snapshot_generation_ = generation;
  }
  return snapshot_;
}

nn::Matrix ZeroTuneModel::EncodeTarget(double latency_ms,
                                       double throughput_tps) const {
  Matrix t(1, 2);
  t(0, 0) = (std::log1p(std::max(latency_ms, 0.0)) - stats_.latency_mean) /
            stats_.latency_std;
  t(0, 1) =
      (std::log1p(std::max(throughput_tps, 0.0)) - stats_.throughput_mean) /
      stats_.throughput_std;
  return t;
}

CostPrediction ZeroTuneModel::DecodeOutput(const nn::Matrix& out) const {
  CostPrediction p;
  p.latency_ms =
      std::expm1(out(0, 0) * stats_.latency_std + stats_.latency_mean);
  p.throughput_tps =
      std::expm1(out(0, 1) * stats_.throughput_std + stats_.throughput_mean);
  p.latency_ms = std::max(p.latency_ms, 0.0);
  p.throughput_tps = std::max(p.throughput_tps, 0.0);
  return p;
}

Status ZeroTuneModel::Save(const std::string& path) const {
  // Atomic: a crash (or full disk) mid-save must never clobber the
  // previously saved model.
  return AtomicWriteStream(path, [this](std::ostream& f) -> Status {
    f.precision(17);
    f << "zerotune-model-v1\n";
    f << config_.hidden_dim << " " << config_.features.operator_features
      << " " << config_.features.parallelism_features << " "
      << config_.features.resource_features << "\n";
    f << stats_.latency_mean << " " << stats_.latency_std << " "
      << stats_.throughput_mean << " " << stats_.throughput_std << "\n";
    // Optional metadata section between the stats line and the parameter
    // block; readers that predate a key skip unknown files by failing the
    // magic check, while Load() below tolerates the key's absence (files
    // written before versioning load as version 0).
    f << "model-version " << version_ << "\n";
    return params_.SaveToStream(f);
  });
}

Status ZeroTuneModel::Load(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::IOError("cannot open " + path);
  std::string magic;
  f >> magic;
  if (magic != "zerotune-model-v1") {
    return Status::InvalidArgument("bad model file header");
  }
  size_t hidden = 0;
  bool op_f = true, par_f = true, res_f = true;
  f >> hidden >> op_f >> par_f >> res_f;
  if (!f) return Status::InvalidArgument("truncated model config line");
  if (hidden != config_.hidden_dim) {
    return Status::InvalidArgument("hidden_dim mismatch in model file");
  }
  TargetStats stats;
  f >> stats.latency_mean >> stats.latency_std >> stats.throughput_mean >>
      stats.throughput_std;
  if (!f) return Status::InvalidArgument("truncated target-stats line");
  if (!std::isfinite(stats.latency_mean) ||
      !std::isfinite(stats.latency_std) ||
      !std::isfinite(stats.throughput_mean) ||
      !std::isfinite(stats.throughput_std) || stats.latency_std <= 0.0 ||
      stats.throughput_std <= 0.0) {
    return Status::InvalidArgument(
        "model target statistics must be finite with positive stddev");
  }
  // Optional "model-version N" token (absent in pre-registry files, which
  // load as version 0). Peek the next token and rewind if it is already
  // the parameter block.
  uint64_t version = 0;
  {
    const std::istream::pos_type before_meta = f.tellg();
    std::string key;
    if (f >> key && key == "model-version") {
      f >> version;
      if (!f) return Status::InvalidArgument("truncated model-version line");
    } else {
      f.clear();
      f.seekg(before_meta);
    }
  }
  // Static shape check before any tensor is loaded: a dimension-corrupted
  // file fails here with the offending layer named (ZT-M003) instead of a
  // mid-matmul assertion later. The spec lists this model's own blocks,
  // named, in the order the constructor created their parameters. The
  // stream is rewound afterwards so the actual load re-reads the verified
  // section.
  const std::istream::pos_type params_pos = f.tellg();
  analysis::GnnShapeSpec spec;
  spec.AddMlp("op_encoder", *op_encoder_);
  spec.AddMlp("res_encoder", *res_encoder_);
  spec.AddMlp("flow_update", *flow_update_);
  spec.AddMlp("res_update", *res_update_);
  spec.AddMlp("map_message", *map_message_);
  spec.AddMlp("map_update", *map_update_);
  spec.AddMlp("flow_update2", *flow_update2_);
  spec.AddMlp("readout", *readout_);
  const analysis::DiagnosticReport shape_report = spec.VerifyParamStream(f);
  if (shape_report.HasErrors()) return shape_report.ToStatus();
  f.clear();
  f.seekg(params_pos);
  ZT_RETURN_IF_ERROR(params_.LoadFromStream(f));
  // Commit the metadata only with the parameters, so a failed load
  // leaves the model as it was.
  config_.features.operator_features = op_f;
  config_.features.parallelism_features = par_f;
  config_.features.resource_features = res_f;
  stats_ = stats;
  version_ = version;
  return Status::OK();
}

Result<std::unique_ptr<ZeroTuneModel>> ZeroTuneModel::LoadFromFile(
    const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::IOError("cannot open " + path);
  std::string magic;
  f >> magic;
  if (magic != "zerotune-model-v1") {
    return Status::InvalidArgument("bad model file header");
  }
  ModelConfig config;
  f >> config.hidden_dim >> config.features.operator_features >>
      config.features.parallelism_features >>
      config.features.resource_features;
  if (!f) return Status::InvalidArgument("bad model config line");
  // Bound the hidden dimension before allocating layers from it: a corrupt
  // header must not drive an unbounded allocation.
  if (config.hidden_dim == 0 || config.hidden_dim > 65536) {
    return Status::InvalidArgument(
        "implausible hidden_dim " + std::to_string(config.hidden_dim) +
        " in model file");
  }
  f.close();
  auto model = std::make_unique<ZeroTuneModel>(config);
  ZT_RETURN_IF_ERROR(model->Load(path));
  return model;
}

}  // namespace zerotune::core
