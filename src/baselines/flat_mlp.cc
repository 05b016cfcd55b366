#include "baselines/flat_mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "baselines/flat_vector.h"
#include "common/statistics.h"
#include "nn/mlp_pass.h"

namespace zerotune::baselines {

FlatMlpModel::FlatMlpModel(Options options) : options_(options) {
  Rng rng(options_.seed);
  mlp_ = std::make_unique<nn::Mlp>(
      &params_,
      std::vector<size_t>{FlatVectorEncoder::Dim(), options_.hidden_dim,
                          options_.hidden_dim, 2},
      &rng);
}

std::vector<double> FlatMlpModel::Standardize(std::vector<double> x) const {
  for (size_t j = 0; j + 1 < x.size(); ++j) {
    x[j] = (x[j] - mean_[j]) / std_[j];
  }
  return x;
}

Status FlatMlpModel::Fit(const workload::Dataset& train) {
  ZT_RETURN_IF_ERROR(workload::CheckTrainingSet(train));
  fitted_ = false;
  const size_t n = train.size();
  const size_t d = FlatVectorEncoder::Dim();

  std::vector<std::vector<double>> xs;
  std::vector<double> lat, tpt;
  xs.reserve(n);
  for (const auto& q : train.samples()) {
    xs.push_back(FlatVectorEncoder::Encode(q.plan));
    lat.push_back(std::log1p(std::max(q.latency_ms, 0.0)));
    tpt.push_back(std::log1p(std::max(q.throughput_tps, 0.0)));
  }
  mean_.assign(d, 0.0);
  std_.assign(d, 1.0);
  for (size_t j = 0; j + 1 < d; ++j) {
    double m = 0.0;
    for (const auto& x : xs) m += x[j];
    m /= static_cast<double>(n);
    double v = 0.0;
    for (const auto& x : xs) v += (x[j] - m) * (x[j] - m);
    v = std::sqrt(v / static_cast<double>(n));
    mean_[j] = m;
    std_[j] = v > 1e-9 ? v : 1.0;
  }
  for (auto& x : xs) x = Standardize(std::move(x));

  lat_mean_ = Mean(lat);
  lat_std_ = std::max(StdDev(lat), 1e-3);
  tpt_mean_ = Mean(tpt);
  tpt_std_ = std::max(StdDev(tpt), 1e-3);
  std::vector<nn::Matrix> targets;
  targets.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    nn::Matrix target(1, 2);
    target(0, 0) = (lat[i] - lat_mean_) / lat_std_;
    target(0, 1) = (tpt[i] - tpt_mean_) / tpt_std_;
    targets.push_back(std::move(target));
  }

  nn::Adam::Options adam_opts;
  adam_opts.learning_rate = options_.learning_rate;
  adam_opts.weight_decay = options_.weight_decay;
  nn::Adam adam(&params_, adam_opts);
  // The backward pass reads the weights transposed: one copy for the
  // fit, each parameter refreshed as Adam writes it.
  nn::TransposedWeights weights_t(params_);

  Rng rng(options_.seed + 1);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // One MlpPass per mini-batch, a row per sample in batch order: the
  // weight gradients sum the rows in that order, as adding up per-sample
  // gradients would.
  nn::MlpPass pass;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += options_.batch_size) {
      const size_t rows = std::min(n, start + options_.batch_size) - start;
      pass.Init(mlp_.get(), rows);
      for (size_t r = 0; r < rows; ++r) {
        const std::vector<double>& x = xs[order[start + r]];
        std::copy(x.begin(), x.end(), pass.input(r));
      }
      pass.Forward(0, rows);
      nn::Matrix d_outputs(rows, 2);
      double loss = 0.0;
      for (size_t r = 0; r < rows; ++r) {
        loss += nn::MseRow(pass.output(), r, targets[order[start + r]],
                           &d_outputs);
      }
      pass.StartBackward(/*input_grad=*/false);
      for (size_t r = 0; r < rows; ++r) {
        std::copy(d_outputs.data() + r * 2, d_outputs.data() + (r + 1) * 2,
                  pass.output_grad(r));
      }
      pass.Backward(0, rows, weights_t);
      std::vector<nn::GradStore> grads(1);
      pass.AccumulateParamGrads(&grads[0]);
      // The trainer's divergence test. Without its rollback, a diverged
      // fit fails rather than leave weights that predict 0 everywhere.
      if (!std::isfinite(loss) ||
          !adam.Step(std::move(grads), 1.0 / static_cast<double>(rows),
                     /*clip_norm=*/5.0, nullptr, &weights_t)
               .applied) {
        return Status::Internal(
            name() + " diverged: epoch " + std::to_string(epoch + 1) +
            ", batch " + std::to_string(start / options_.batch_size + 1) +
            " has a non-finite loss or gradient (learning_rate " +
            std::to_string(options_.learning_rate) + ")");
      }
    }
  }
  fitted_ = true;
  return Status::OK();
}

Result<core::CostPrediction> FlatMlpModel::Predict(
    const dsp::ParallelQueryPlan& plan) const {
  if (!fitted_) {
    return Status::FailedPrecondition(
        name() + " predictor is not fitted (call Fit first); cannot "
        "score a " + std::to_string(plan.logical().num_operators()) +
        "-operator plan on " +
        std::to_string(plan.cluster().num_nodes()) + " nodes");
  }
  const std::vector<double> x =
      Standardize(FlatVectorEncoder::Encode(plan));
  nn::MlpPass pass;
  pass.Init(mlp_.get(), 1);
  std::copy(x.begin(), x.end(), pass.input(0));
  pass.Forward(0, 1);
  const double* out = pass.output(0);
  core::CostPrediction p;
  p.latency_ms = std::max(0.0, std::expm1(out[0] * lat_std_ + lat_mean_));
  p.throughput_tps =
      std::max(0.0, std::expm1(out[1] * tpt_std_ + tpt_mean_));
  return p;
}

}  // namespace zerotune::baselines
