#include "baselines/flat_mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "baselines/flat_vector.h"
#include "common/statistics.h"

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
  if (train.empty()) return Status::InvalidArgument("empty training set");
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

  nn::Adam::Options adam_opts;
  adam_opts.learning_rate = options_.learning_rate;
  adam_opts.weight_decay = options_.weight_decay;
  nn::Adam adam(&params_, adam_opts);

  Rng rng(options_.seed + 1);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += options_.batch_size) {
      const size_t end = std::min(n, start + options_.batch_size);
      nn::GradStore grads;
      for (size_t k = start; k < end; ++k) {
        const size_t i = order[k];
        nn::Matrix target(1, 2);
        target(0, 0) = (lat[i] - lat_mean_) / lat_std_;
        target(0, 1) = (tpt[i] - tpt_mean_) / tpt_std_;
        const nn::NodePtr out =
            mlp_->Forward(nn::Constant(nn::Matrix::RowVector(xs[i])));
        const nn::NodePtr loss = nn::MseLoss(out, target);
        nn::Backward(loss, &grads);
      }
      grads.Scale(1.0 / static_cast<double>(end - start));
      grads.ClipGlobalNorm(5.0);
      adam.Step(grads);
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
  const nn::NodePtr out =
      mlp_->Forward(nn::Constant(nn::Matrix::RowVector(x)));
  core::CostPrediction p;
  p.latency_ms =
      std::max(0.0, std::expm1(out->value(0, 0) * lat_std_ + lat_mean_));
  p.throughput_tps =
      std::max(0.0, std::expm1(out->value(0, 1) * tpt_std_ + tpt_mean_));
  return p;
}

}  // namespace zerotune::baselines
