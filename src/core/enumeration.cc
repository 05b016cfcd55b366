#include "core/enumeration.h"

#include <algorithm>
#include <cmath>

namespace zerotune::core {

namespace {

using dsp::Operator;
using dsp::OperatorType;

/// Algorithm 1 rate propagation with (possibly noisy) selectivities:
/// In_ER(source) is the application event rate; Out_ER(ω) = In_ER(ω) ·
/// sel(ω); a downstream operator's input is the sum of its upstreams'
/// outputs (joins consume both branches).
std::vector<double> PropagateRates(const dsp::QueryPlan& q,
                                   const std::vector<double>& selectivity) {
  std::vector<double> in(q.num_operators(), 0.0);
  std::vector<double> out(q.num_operators(), 0.0);
  for (int id : q.TopologicalOrder()) {
    const Operator& op = q.op(id);
    if (op.type == OperatorType::kSource) {
      in[static_cast<size_t>(id)] = op.source.event_rate;
    } else {
      double rate = 0.0;
      for (int u : q.upstreams(id)) rate += out[static_cast<size_t>(u)];
      in[static_cast<size_t>(id)] = rate;
    }
    out[static_cast<size_t>(id)] =
        in[static_cast<size_t>(id)] * selectivity[static_cast<size_t>(id)];
  }
  return in;
}

Status AssignFromRates(dsp::ParallelQueryPlan* plan,
                       const std::vector<double>& input_rates,
                       double scale_factor, int max_parallelism) {
  const dsp::QueryPlan& q = plan->logical();
  const int cap =
      std::max(1, std::min(max_parallelism, plan->cluster().TotalCores()));
  for (const Operator& op : q.operators()) {
    int degree = 1;
    if (op.type == OperatorType::kSink) {
      degree = 1;
    } else {
      const double raw =
          scale_factor * input_rates[static_cast<size_t>(op.id)];
      degree = static_cast<int>(std::lround(raw));
      degree = std::clamp(degree, 1, cap);
    }
    ZT_RETURN_IF_ERROR(plan->SetParallelism(op.id, degree));
  }
  plan->DerivePartitioning();
  return plan->PlaceRoundRobin();
}

}  // namespace

Status OptiSampleEnumerator::Options::Validate() const {
  if (!(min_scale_factor > 0.0)) {
    return Status::InvalidArgument("min_scale_factor must be positive, got " +
                                   std::to_string(min_scale_factor));
  }
  if (!(max_scale_factor >= min_scale_factor)) {
    return Status::InvalidArgument(
        "max_scale_factor must be >= min_scale_factor");
  }
  if (!(selectivity_noise_sigma >= 0.0)) {
    return Status::InvalidArgument(
        "selectivity_noise_sigma must be >= 0, got " +
        std::to_string(selectivity_noise_sigma));
  }
  if (max_parallelism < 1) {
    return Status::InvalidArgument("max_parallelism must be >= 1, got " +
                                   std::to_string(max_parallelism));
  }
  return Status::OK();
}

Status OptiSampleEnumerator::Assign(dsp::ParallelQueryPlan* plan,
                                    zerotune::Rng* rng) const {
  ZT_RETURN_IF_ERROR(options_status_);
  const dsp::QueryPlan& q = plan->logical();
  // Estimated selectivities: the true value perturbed by estimation error,
  // so the corpus also contains inefficient deployments (Sec. IV).
  std::vector<double> est_sel(q.num_operators(), 1.0);
  for (const Operator& op : q.operators()) {
    double sel = q.OperatorSelectivity(op.id);
    if (op.type != OperatorType::kSource && op.type != OperatorType::kSink) {
      sel *= rng->LogNormalFactor(options_.selectivity_noise_sigma);
      sel = std::clamp(sel, 0.0, 1.0);
    }
    est_sel[static_cast<size_t>(op.id)] = sel;
  }
  const std::vector<double> in_rates = PropagateRates(q, est_sel);
  const double sf = std::exp(rng->Uniform(std::log(options_.min_scale_factor),
                                          std::log(options_.max_scale_factor)));
  return AssignFromRates(plan, in_rates, sf, options_.max_parallelism);
}

Status OptiSampleEnumerator::AssignWithScaleFactor(
    dsp::ParallelQueryPlan* plan, double scale_factor, int max_parallelism) {
  const dsp::QueryPlan& q = plan->logical();
  std::vector<double> sel(q.num_operators(), 1.0);
  for (const Operator& op : q.operators()) {
    sel[static_cast<size_t>(op.id)] = q.OperatorSelectivity(op.id);
  }
  const std::vector<double> in_rates = PropagateRates(q, sel);
  return AssignFromRates(plan, in_rates, scale_factor, max_parallelism);
}

Status RandomEnumerator::Options::Validate() const {
  if (max_parallelism < 1) {
    return Status::InvalidArgument("max_parallelism must be >= 1, got " +
                                   std::to_string(max_parallelism));
  }
  return Status::OK();
}

Status RandomEnumerator::Assign(dsp::ParallelQueryPlan* plan,
                                zerotune::Rng* rng) const {
  ZT_RETURN_IF_ERROR(options_status_);
  const dsp::QueryPlan& q = plan->logical();
  const int cap = std::max(
      1, std::min(options_.max_parallelism, plan->cluster().TotalCores()));
  for (const Operator& op : q.operators()) {
    const int degree =
        op.type == OperatorType::kSink
            ? 1
            : static_cast<int>(rng->UniformInt(1, cap));
    ZT_RETURN_IF_ERROR(plan->SetParallelism(op.id, degree));
  }
  plan->DerivePartitioning();
  return plan->PlaceRoundRobin();
}

}  // namespace zerotune::core
