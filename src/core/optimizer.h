#ifndef ZEROTUNE_CORE_OPTIMIZER_H_
#define ZEROTUNE_CORE_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "core/cost_predictor.h"
#include "core/search_space.h"
#include "dsp/cluster.h"
#include "dsp/query_plan.h"

namespace zerotune::core {

/// Parallelism tuning with what-if cost predictions (paper Sec. III-C3):
/// enumerate candidate parallelism assignments, predict their costs with a
/// CostPredictor, and pick the assignment minimizing the combined
/// objective of Eq. 1,
///     C = wt · C_L + (1 − wt) · C_T,
/// where C_L and C_T are the candidates' min-max-normalized latency and
/// negated throughput, subject to P_i ≥ 1 and max P_i ≤ total cores.
///
/// Scoring is a two-tier pipeline (docs/api.md has the flow diagram):
/// a pluggable SearchSpace enumerates PlanCandidates; with prescreening
/// enabled, an AnalyticalPrescreen fitted from a handful of batched GNN
/// probes ranks the full set in microseconds and only the top-K fraction
/// is scored by CostPredictor::PredictBatch; with prescreening disabled
/// every candidate is GNN-scored directly and the result is
/// bit-identical to the single-tier optimizer. A bounded hill-climbing
/// refinement doubles/halves individual operator degrees while the
/// predicted objective improves, prescreening each round's neighbor set
/// the same way.
class ParallelismOptimizer {
 public:
  /// Analytical pre-screen tier configuration (ROADMAP item 5).
  struct PrescreenOptions {
    /// Off by default: the default pipeline stays bit-identical to the
    /// pre-two-tier optimizer.
    bool enabled = false;
    /// Fraction of enumerated candidates that survives the analytical
    /// cut into GNN scoring.
    double keep_fraction = 0.15;
    /// Lower bound on survivors, so tiny candidate sets are not starved.
    size_t min_keep = 3;
    /// Probe ladder size for calibrating the analytical closures; the
    /// probes are GNN-scored (one batch) and double as candidates.
    size_t max_probes = 6;
    /// GNN-scored neighbors per hill-climbing round (the analytical tier
    /// ranks the full neighbor set first).
    size_t hill_climb_keep = 2;

    Status Validate() const;
  };

  struct Options {
    /// wt in Eq. 1 — relative weight of latency vs. (negated) throughput.
    double weight = 0.5;
    int max_parallelism = 128;

    /// Hill-climbing passes over the operators (0 disables refinement).
    size_t refinement_passes = 2;

    /// Candidate generation strategy (borrowed; may be null). Null means
    /// a default GridSearchSpace capped at `max_parallelism` — exactly
    /// the historical candidate space (the grid knobs live on
    /// GridSearchSpace::Options; construct one to customize them).
    /// Candidates of any SearchSpace are deduplicated, statically vetted
    /// and scored by the two-tier pipeline; enumeration failures fail
    /// Tune() loudly.
    const SearchSpace* search_space = nullptr;

    /// Analytical pre-screen tier; disabled by default.
    PrescreenOptions prescreen;

    /// Extra degree vectors (indexed by operator id) to evaluate alongside
    /// the enumerated candidates — e.g. a previous deployment or operator
    /// hints. Unlike enumerated candidates, seeds are untrusted: each one
    /// is routed through analysis::PlanAnalyzer and dropped (counted in
    /// TuningResult::candidates_rejected) when it fails a static check.
    std::vector<std::vector<int>> seed_candidates;

    /// Optional cooperative time budget (borrowed; may be null). Checked
    /// between scoring batches — candidates scored so far are kept and the
    /// best one is returned with TuningResult::deadline_hit set. Expiring
    /// before any candidate was scored fails with DeadlineExceeded.
    const Deadline* deadline = nullptr;

    /// Rejects out-of-range settings (weight outside [0, 1], empty
    /// scale-factor grid, non-positive bounds, bad prescreen knobs, …).
    /// Checked at optimizer construction; Tune() fails with this status
    /// instead of silently clamping bad values.
    Status Validate() const;
  };

  struct Candidate {
    std::vector<int> degrees;  // indexed by operator id
    CostPrediction predicted;
  };

  struct TuningResult {
    dsp::ParallelQueryPlan plan;  // best deployment found
    /// Its predicted costs: the winner's entry in `candidates`, as its
    /// PredictBatch call returned it — equal to Predict(plan).
    CostPrediction predicted;
    /// Eq. 1 objective of the winner, normalized over all evaluated
    /// candidates (0 = best possible among them).
    double weighted_cost = 0.0;
    size_t candidates_evaluated = 0;
    /// Candidates the static analyzer rejected before scoring (invalid
    /// degrees, over-parallelized operators, broken partitioning).
    size_t candidates_rejected = 0;
    /// Candidates ranked by the analytical tier (0 when prescreening is
    /// disabled or calibration fell back to full GNN scoring).
    size_t candidates_prescreened = 0;
    /// Of those, the survivors that went on to GNN scoring.
    size_t prescreen_kept = 0;
    /// True when Options::deadline expired mid-search: the result is the
    /// best assignment found within the budget, not the full search's.
    bool deadline_hit = false;
    std::vector<Candidate> candidates;  // everything evaluated

    TuningResult(dsp::ParallelQueryPlan p) : plan(std::move(p)) {}
  };

  /// Validates `options` eagerly; an invalid configuration surfaces as
  /// the (unchanged) status from every subsequent Tune() call.
  ParallelismOptimizer(const CostPredictor* predictor, Options options)
      : predictor_(predictor),
        options_(options),
        options_status_(options.Validate()) {}
  explicit ParallelismOptimizer(const CostPredictor* predictor)
      : ParallelismOptimizer(predictor, Options()) {}

  /// Finds the best parallelism assignment for `logical` on `cluster`.
  /// All scoring goes through CostPredictor::PredictBatch (Tune never
  /// calls Predict): the enumeration phases and each hill-climbing round
  /// are scored as one batch, so batched predictors (ZeroTuneModel)
  /// amortize featurization and run the MLP stages row-batched.
  Result<TuningResult> Tune(const dsp::QueryPlan& logical,
                            const dsp::Cluster& cluster) const;

  /// Eq. 1 weighted cost of (latency, throughput) normalized against the
  /// ranges observed across `candidates`.
  static double WeightedCost(const CostPrediction& p,
                             const std::vector<Candidate>& candidates,
                             double weight);

 private:
  /// Search score: wt·log(latency) − (1−wt)·log(throughput). Monotone in
  /// both metrics, independent of the candidate set (unlike Eq. 1's
  /// normalization), so hill climbing is well-defined.
  double Score(const CostPrediction& p) const;

  const CostPredictor* predictor_;
  Options options_;
  Status options_status_;
};

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_OPTIMIZER_H_
