#include "baselines/linear_model.h"

#include <cmath>

#include "baselines/flat_vector.h"

namespace zerotune::baselines {

Status SolveLinearSystem(std::vector<double>& a, std::vector<double>& b,
                         size_t n) {
  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    }
    if (std::abs(a[pivot * n + col]) < 1e-12) {
      return Status::FailedPrecondition(
          "linear system is singular at pivot column " + std::to_string(col) +
          " of " + std::to_string(n));
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] * inv;
      if (factor == 0.0) continue;
      for (size_t c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  for (size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (size_t c = i + 1; c < n; ++c) sum -= a[i * n + c] * b[c];
    b[i] = sum / a[i * n + i];
  }
  return Status::OK();
}

Status LinearRegressionModel::Fit(const workload::Dataset& train) {
  ZT_RETURN_IF_ERROR(workload::CheckTrainingSet(train));
  const size_t d = FlatVectorEncoder::Dim();
  const size_t n = train.size();

  std::vector<std::vector<double>> xs;
  xs.reserve(n);
  for (const auto& q : train.samples()) {
    xs.push_back(FlatVectorEncoder::Encode(q.plan));
  }

  // Standardize all but the trailing bias slot.
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
  for (auto& x : xs) {
    for (size_t j = 0; j + 1 < d; ++j) x[j] = (x[j] - mean_[j]) / std_[j];
  }

  auto fit_target = [&](bool latency, std::vector<double>* w) -> Status {
    // Normal equations: (XᵀX + λI) w = Xᵀy.
    std::vector<double> a(d * d, 0.0);
    std::vector<double> b(d, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const auto& x = xs[i];
      const auto& q = train.sample(i);
      const double y =
          std::log1p(std::max(latency ? q.latency_ms : q.throughput_tps, 0.0));
      for (size_t r = 0; r < d; ++r) {
        b[r] += x[r] * y;
        for (size_t c = 0; c < d; ++c) a[r * d + c] += x[r] * x[c];
      }
    }
    for (size_t j = 0; j + 1 < d; ++j) a[j * d + j] += options_.l2;
    Status solved = SolveLinearSystem(a, b, d);
    if (!solved.ok()) {
      return solved.Annotated(
          std::string("fitting ") + (latency ? "latency" : "throughput") +
          " normal equations over " + std::to_string(n) + " samples");
    }
    *w = std::move(b);
    return Status::OK();
  };

  ZT_RETURN_IF_ERROR(fit_target(/*latency=*/true, &w_latency_));
  ZT_RETURN_IF_ERROR(fit_target(/*latency=*/false, &w_throughput_));
  fitted_ = true;
  return Status::OK();
}

Result<core::CostPrediction> LinearRegressionModel::Predict(
    const dsp::ParallelQueryPlan& plan) const {
  if (!fitted_) {
    return Status::FailedPrecondition(
        name() + " predictor is not fitted (call Fit first); cannot "
        "score a " + std::to_string(plan.logical().num_operators()) +
        "-operator plan on " +
        std::to_string(plan.cluster().num_nodes()) + " nodes");
  }
  std::vector<double> x = FlatVectorEncoder::Encode(plan);
  for (size_t j = 0; j + 1 < x.size(); ++j) {
    x[j] = (x[j] - mean_[j]) / std_[j];
  }
  double lat = 0.0, tpt = 0.0;
  for (size_t j = 0; j < x.size(); ++j) {
    lat += w_latency_[j] * x[j];
    tpt += w_throughput_[j] * x[j];
  }
  core::CostPrediction p;
  p.latency_ms = std::max(0.0, std::expm1(lat));
  p.throughput_tps = std::max(0.0, std::expm1(tpt));
  return p;
}

}  // namespace zerotune::baselines
