#ifndef ZEROTUNE_CORE_PRESCREEN_ANALYTICAL_H_
#define ZEROTUNE_CORE_PRESCREEN_ANALYTICAL_H_

#include <vector>

#include "analysis/segments.h"
#include "core/cost_predictor.h"
#include "core/search_space.h"
#include "dsp/cluster.h"
#include "dsp/query_plan.h"

namespace zerotune::core {

/// Compositional analytical cost model in the style of the extra-p
/// CompositionalPerformanceAnalyzer: the plan is decomposed into
/// pipeline / map-reduce / task-pool segments (analysis/segments.h), each
/// segment contributes a closed-form load closure
///
///   x_s(P) = log1p( Σ_{ω∈s} In_ER(ω)/P(ω)  +  Σ shuffled In_ER(ω) ),
///
/// i.e. per-instance processing load plus the rate crossing non-forward
/// (repartitioning) segment boundaries, and the predicted log-costs
/// compose linearly over the pattern kinds plus a parallelism-overhead
/// term:
///
///   log C(P) = β₀ + Σ_kind β_kind · Σ_{s: kind} x_s(P)
///                 + β_par · log1p(Σ P(ω)).
///
/// The β are calibrated once per (model, plan, cluster) by ridge
/// regression on a handful of batched GNN probe predictions (Fit), after
/// which ScoreCandidates ranks arbitrarily many candidates in
/// microseconds — no featurization, no message passing. The tier is a
/// *pre-screen*: its job is ordering candidates well enough that the true
/// optimum survives the top-K cut, not absolute accuracy; survivors are
/// re-scored by the GNN.
class AnalyticalPrescreen {
 public:
  struct Options {
    /// Eq. 1 weight between log-latency and negated log-throughput in
    /// the ranking score — use the optimizer's weight.
    double weight = 0.5;
    /// Ridge regularizer for the calibration fit; keeps the normal
    /// equations well-posed when probes ≤ coefficients.
    double ridge = 1e-4;

    Status Validate() const;
  };

  /// Uniform probe ladder for calibration: up to `max_probes` degree
  /// vectors, log-spaced over [1, min(max_parallelism, cluster cores)],
  /// sources/sinks pinned at 1, deduplicated. These double as reasonable
  /// candidates, so callers typically score them with the GNN anyway and
  /// reuse the predictions for Fit.
  static Result<std::vector<std::vector<int>>> ProbeLadder(
      const dsp::QueryPlan& logical, const dsp::Cluster& cluster,
      int max_parallelism, size_t max_probes);

  /// Calibrates the closures from probe predictions. Requires at least
  /// two distinct probes; fails on a degenerate segment decomposition
  /// (no processing operators anywhere — nothing to model; lint ZT-P026).
  static Result<AnalyticalPrescreen> Fit(
      const dsp::QueryPlan& logical, const dsp::Cluster& cluster,
      const std::vector<std::vector<int>>& probe_degrees,
      const std::vector<CostPrediction>& probe_costs, Options options);

  /// Ranks candidates by weight·log-latency − (1−weight)·log-throughput
  /// under the fitted closures, in input order, lower = better. The
  /// scores only order candidates; they are not comparable with the
  /// optimizer's GNN score. Microseconds per candidate.
  Result<std::vector<double>> ScoreCandidates(
      const std::vector<PlanCandidate>& candidates) const;

  /// Indices of the `keep` lowest scores, in ascending index order (so
  /// downstream batches preserve enumeration order). Ties break toward
  /// the earlier candidate.
  static std::vector<size_t> TopIndices(const std::vector<double>& scores,
                                        size_t keep);

  /// Fitted log-cost predictions for one degree vector.
  double PredictLogLatency(const std::vector<int>& degrees) const;
  double PredictLogThroughput(const std::vector<int>& degrees) const;

  /// Per-segment analytical story: segment pattern, operators, closure
  /// value x_s at `degrees`, and the fitted latency/throughput
  /// coefficients its kind carries.
  struct SegmentStory {
    analysis::PlanSegment segment;
    double closure_value = 0.0;       // x_s(degrees)
    double latency_coefficient = 0.0;
    double throughput_coefficient = 0.0;
  };
  std::vector<SegmentStory> ExplainSegments(
      const std::vector<int>& degrees) const;

  const std::vector<analysis::PlanSegment>& segments() const {
    return segments_;
  }
  double latency_intercept() const { return lat_beta_[0]; }
  double throughput_intercept() const { return tpt_beta_[0]; }
  /// Coefficient on the parallelism-overhead term log1p(Σ P).
  double latency_overhead_coefficient() const { return lat_beta_.back(); }
  double throughput_overhead_coefficient() const { return tpt_beta_.back(); }

 private:
  AnalyticalPrescreen() = default;

  /// Feature row [1, Σ x_s per kind..., log1p(Σ P)] for one assignment.
  std::vector<double> FeatureRow(const std::vector<int>& degrees) const;
  /// Closure value x_s(degrees) of one segment.
  double SegmentClosure(const analysis::PlanSegment& seg,
                        const std::vector<int>& degrees) const;

  Options options_;
  std::vector<analysis::PlanSegment> segments_;
  /// Column index (into the feature row) of each segment's kind; -1 for
  /// kinds that never occur.
  std::vector<int> kind_column_;
  std::vector<int> segment_kind_column_;  // per segment, its kind's column
  size_t num_columns_ = 0;

  // Per-operator plan statistics captured at Fit time.
  std::vector<double> input_rates_;
  std::vector<bool> keyed_;
  std::vector<bool> is_source_;
  std::vector<int> single_upstream_;  // -1 when not exactly one upstream

  std::vector<double> lat_beta_;  // fitted log-latency coefficients
  std::vector<double> tpt_beta_;  // fitted log-throughput coefficients
};

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_PRESCREEN_ANALYTICAL_H_
