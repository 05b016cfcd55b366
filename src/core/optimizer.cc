#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "analysis/plan_analyzer.h"
#include "core/prescreen/analytical.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zerotune::core {

namespace {

using dsp::Operator;
using dsp::OperatorType;

}  // namespace

Status ParallelismOptimizer::PrescreenOptions::Validate() const {
  if (!(keep_fraction > 0.0 && keep_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "prescreen keep_fraction must lie in (0, 1], got " +
        std::to_string(keep_fraction));
  }
  if (min_keep < 1) {
    return Status::InvalidArgument("prescreen min_keep must be >= 1");
  }
  if (max_probes < 2) {
    return Status::InvalidArgument(
        "prescreen max_probes must be >= 2 (calibration needs two rungs)");
  }
  if (hill_climb_keep < 1) {
    return Status::InvalidArgument("prescreen hill_climb_keep must be >= 1");
  }
  return Status::OK();
}

Status ParallelismOptimizer::Options::Validate() const {
  if (!(weight >= 0.0 && weight <= 1.0)) {
    return Status::InvalidArgument(
        "optimizer weight must lie in [0, 1], got " + std::to_string(weight));
  }
  if (max_parallelism < 1) {
    return Status::InvalidArgument(
        "max_parallelism must be >= 1, got " +
        std::to_string(max_parallelism));
  }
  return prescreen.Validate();
}

double ParallelismOptimizer::Score(const CostPrediction& p) const {
  const double lat = std::log(std::max(p.latency_ms, 1e-6));
  const double tpt = std::log(std::max(p.throughput_tps, 1e-6));
  return options_.weight * lat - (1.0 - options_.weight) * tpt;
}

double ParallelismOptimizer::WeightedCost(
    const CostPrediction& p, const std::vector<Candidate>& candidates,
    double weight) {
  double lat_min = p.latency_ms, lat_max = p.latency_ms;
  double tpt_min = p.throughput_tps, tpt_max = p.throughput_tps;
  for (const Candidate& c : candidates) {
    lat_min = std::min(lat_min, c.predicted.latency_ms);
    lat_max = std::max(lat_max, c.predicted.latency_ms);
    tpt_min = std::min(tpt_min, c.predicted.throughput_tps);
    tpt_max = std::max(tpt_max, c.predicted.throughput_tps);
  }
  const double eps = 1e-9;
  const double c_l = (p.latency_ms - lat_min) / (lat_max - lat_min + eps);
  const double c_t =
      1.0 - (p.throughput_tps - tpt_min) / (tpt_max - tpt_min + eps);
  return weight * c_l + (1.0 - weight) * c_t;
}

Result<ParallelismOptimizer::TuningResult> ParallelismOptimizer::Tune(
    const dsp::QueryPlan& logical, const dsp::Cluster& cluster) const {
  ZT_RETURN_IF_ERROR(options_status_);
  ZT_RETURN_IF_ERROR(logical.Validate());
  obs::Span tune_span("optimizer/tune");
  tune_span.AddArg("operators", std::to_string(logical.num_operators()));
  auto* metrics = obs::MetricsRegistry::Global();
  metrics->GetCounter("optimizer.tunings_total")->Increment();
  const auto budget_expired = [this] {
    return options_.deadline != nullptr && options_.deadline->Expired();
  };
  bool deadline_hit = false;
  const int cap =
      std::max(1, std::min(options_.max_parallelism, cluster.TotalCores()));

  std::vector<Candidate> evaluated;
  std::set<std::vector<int>> tried;
  size_t rejected = 0;
  size_t prescreened = 0;
  size_t prescreen_kept = 0;

  auto materialize = [&](const std::vector<int>& degrees)
      -> Result<dsp::ParallelQueryPlan> {
    dsp::ParallelQueryPlan plan(logical, cluster);
    for (const Operator& op : logical.operators()) {
      ZT_RETURN_IF_ERROR(
          plan.SetParallelism(op.id, degrees[static_cast<size_t>(op.id)]));
    }
    plan.DerivePartitioning();
    ZT_RETURN_IF_ERROR(plan.PlaceRoundRobin());
    return plan;
  };

  // Scores a set of degree vectors in one CostPredictor::PredictBatch
  // call and appends them to `evaluated` in input order; this is Tune's
  // only model inference. Every candidate first passes through the
  // static plan analyzer; failing ones are dropped and counted rather
  // than sent to the cost model, so invalid deployments (bad seeds,
  // over-parallelized operators) never consume inference budget or win
  // the search.
  auto evaluate_batch =
      [&](const std::vector<std::vector<int>>& batch) -> Status {
    if (batch.empty()) return Status::OK();
    std::vector<std::vector<int>> kept;
    std::vector<dsp::ParallelQueryPlan> plans;
    kept.reserve(batch.size());
    plans.reserve(batch.size());
    for (const std::vector<int>& degrees : batch) {
      if (degrees.size() != logical.num_operators()) {
        ++rejected;
        continue;
      }
      Result<dsp::ParallelQueryPlan> plan = materialize(degrees);
      if (!plan.ok() || !analysis::PlanAnalyzer::Check(plan.value()).ok()) {
        ++rejected;
        continue;
      }
      kept.push_back(degrees);
      plans.push_back(std::move(plan.value()));
    }
    if (plans.empty()) return Status::OK();
    Result<std::vector<CostPrediction>> preds =
        PredictBatch(*predictor_, plans);
    if (!preds.ok()) {
      return preds.status().Annotated(
          "scoring " + std::to_string(plans.size()) +
          " parallelism candidates for a " +
          std::to_string(logical.num_operators()) + "-operator query");
    }
    for (size_t i = 0; i < kept.size(); ++i) {
      evaluated.push_back(Candidate{std::move(kept[i]), preds.value()[i]});
    }
    return Status::OK();
  };

  // Tier 1 calibration: GNN-score a small uniform probe ladder (one
  // batch) and fit the analytical closures from those predictions. The
  // probes double as candidates — their scores stay in `evaluated` and
  // can win the search. Calibration failure (degenerate decomposition,
  // singular fit) falls back to full GNN scoring rather than failing the
  // tune.
  std::optional<AnalyticalPrescreen> prescreen;
  if (options_.prescreen.enabled) {
    if (budget_expired()) {
      return Status::DeadlineExceeded(
          "tuning budget expired before any candidate was scored");
    }
    obs::Span span("optimizer/prescreen_calibrate");
    ZT_ASSIGN_OR_RETURN(
        const std::vector<std::vector<int>> probes,
        AnalyticalPrescreen::ProbeLadder(logical, cluster,
                                         options_.max_parallelism,
                                         options_.prescreen.max_probes));
    span.AddArg("probes", std::to_string(probes.size()));
    const size_t first_probe = evaluated.size();
    std::vector<std::vector<int>> probe_batch;
    for (const std::vector<int>& p : probes) {
      if (tried.insert(p).second) probe_batch.push_back(p);
    }
    ZT_RETURN_IF_ERROR(evaluate_batch(probe_batch));
    metrics->GetCounter("optimizer.prescreen.probes_total")
        ->Increment(probe_batch.size());
    std::vector<std::vector<int>> fit_degrees;
    std::vector<CostPrediction> fit_costs;
    for (size_t i = first_probe; i < evaluated.size(); ++i) {
      fit_degrees.push_back(evaluated[i].degrees);
      fit_costs.push_back(evaluated[i].predicted);
    }
    AnalyticalPrescreen::Options popts;
    popts.weight = options_.weight;
    Result<AnalyticalPrescreen> fitted = AnalyticalPrescreen::Fit(
        logical, cluster, fit_degrees, fit_costs, popts);
    if (fitted.ok()) {
      prescreen = std::move(fitted).value();
      metrics->GetCounter("optimizer.prescreen.calibrations_total")
          ->Increment();
      span.AddArg("fitted", "true");
    } else {
      // Fall back to exhaustive GNN scoring; the tune still succeeds.
      metrics->GetCounter("optimizer.prescreen.fallbacks_total")
          ->Increment();
      span.AddArg("fitted", "false");
      span.AddArg("fallback", fitted.status().message());
    }
  }

  // Analytical ranking of a candidate batch: keep the top `keep`
  // assignments (ascending index order, so batches stay deterministic).
  auto prescreen_cut = [&](std::vector<std::vector<int>>& batch,
                           size_t keep) -> Status {
    if (!prescreen.has_value() || batch.size() <= keep) return Status::OK();
    obs::Span span("optimizer/prescreen_rank");
    span.AddArg("candidates", std::to_string(batch.size()));
    std::vector<PlanCandidate> cands;
    cands.reserve(batch.size());
    for (const std::vector<int>& degrees : batch) {
      cands.emplace_back(degrees);
    }
    ZT_ASSIGN_OR_RETURN(const std::vector<double> scores,
                        prescreen->ScoreCandidates(cands));
    const std::vector<size_t> top =
        AnalyticalPrescreen::TopIndices(scores, keep);
    std::vector<std::vector<int>> survivors;
    survivors.reserve(top.size());
    for (size_t idx : top) survivors.push_back(std::move(batch[idx]));
    prescreened += batch.size();
    prescreen_kept += survivors.size();
    span.AddArg("kept", std::to_string(survivors.size()));
    batch = std::move(survivors);
    return Status::OK();
  };

  // Candidate enumeration through the search space. A null injection
  // point resolves to a default GridSearchSpace capped at
  // max_parallelism, which keeps the candidate order — and therefore the
  // whole tune — bit-identical to the pre-SearchSpace optimizer.
  GridSearchSpace::Options grid_opts;
  grid_opts.max_parallelism = options_.max_parallelism;
  const GridSearchSpace default_space(grid_opts);
  const SearchSpace* space =
      options_.search_space != nullptr ? options_.search_space
                                       : &default_space;
  ZT_ASSIGN_OR_RETURN(std::vector<PlanCandidate> enumerated,
                      space->Enumerate(logical, cluster));
  std::vector<std::vector<int>> pending;
  pending.reserve(enumerated.size() + options_.seed_candidates.size());
  for (PlanCandidate& c : enumerated) {
    if (tried.insert(c.degrees).second) {
      pending.push_back(std::move(c.degrees));
    }
  }

  // Caller-provided seeds; evaluate_batch vets each one through the
  // static analyzer, so invalid seeds are counted and skipped here rather
  // than failing the whole tuning call.
  for (const std::vector<int>& degrees : options_.seed_candidates) {
    if (tried.insert(degrees).second) pending.push_back(degrees);
  }

  if (budget_expired()) {
    if (evaluated.empty()) {
      return Status::DeadlineExceeded(
          "tuning budget expired before any candidate was scored");
    }
    deadline_hit = true;  // calibration probes already scored
  }

  if (!deadline_hit) {
    // Tier 1 cut, then all surviving enumeration phases score as one
    // batch (tier 2).
    const size_t keep = std::max(
        options_.prescreen.min_keep,
        static_cast<size_t>(std::ceil(options_.prescreen.keep_fraction *
                                      static_cast<double>(pending.size()))));
    ZT_RETURN_IF_ERROR(prescreen_cut(pending, keep));
    obs::Span span("optimizer/enumerate");
    span.AddArg("candidates", std::to_string(pending.size()));
    ZT_RETURN_IF_ERROR(evaluate_batch(pending));
  }

  if (evaluated.empty()) {
    return Status::Internal("no parallelism candidate could be evaluated");
  }

  // The incumbent, as an index into `evaluated`: the first entry with
  // the best score. Returns whether entries from `first` on improved it.
  size_t best = 0;
  double best_score = Score(evaluated[0].predicted);
  auto adopt_improvements = [&](size_t first) {
    bool improved = false;
    for (size_t i = first; i < evaluated.size(); ++i) {
      const double s = Score(evaluated[i].predicted);
      if (s < best_score) {
        best_score = s;
        best = i;
        improved = true;
      }
    }
    return improved;
  };
  adopt_improvements(1);

  // Hill climbing as batched steepest descent: each round scores every
  // untried double/halve neighbor of the incumbent in one batch, then
  // moves to the best strict improvement. With the analytical tier
  // fitted, each round's neighbors are pre-ranked and only the top
  // hill_climb_keep reach the GNN. The round bound matches the
  // sequential version's worst-case move count; in practice the
  // "no improvement" break fires after a few rounds.
  const size_t max_rounds =
      options_.refinement_passes *
      std::max<size_t>(2 * logical.num_operators(), 1);
  for (size_t round = 0; round < max_rounds && !deadline_hit; ++round) {
    if (budget_expired()) {
      deadline_hit = true;  // partial result: best found within budget
      break;
    }
    std::vector<std::vector<int>> neighbors;
    const std::vector<int> incumbent = evaluated[best].degrees;
    for (const Operator& op : logical.operators()) {
      if (op.type == OperatorType::kSink) continue;
      for (const int factor : {2, -2}) {
        std::vector<int> neighbor = incumbent;
        int& d = neighbor[static_cast<size_t>(op.id)];
        d = factor > 0 ? std::min(cap, d * 2) : std::max(1, d / 2);
        if (neighbor == incumbent || !tried.insert(neighbor).second) {
          continue;
        }
        neighbors.push_back(std::move(neighbor));
      }
    }
    if (neighbors.empty()) break;
    ZT_RETURN_IF_ERROR(
        prescreen_cut(neighbors, options_.prescreen.hill_climb_keep));
    obs::Span round_span("optimizer/hill_climb_round");
    round_span.AddArg("round", std::to_string(round + 1));
    round_span.AddArg("neighbors", std::to_string(neighbors.size()));
    metrics->GetCounter("optimizer.hill_climb_rounds_total")->Increment();
    const size_t first_new = evaluated.size();
    ZT_RETURN_IF_ERROR(evaluate_batch(neighbors));
    const bool improved = adopt_improvements(first_new);
    round_span.AddArg("improved", improved ? "true" : "false");
    if (!improved) break;
  }

  // Materialize the winner. Its prediction is the one its batch
  // returned, which equals Predict() of the plan exactly.
  ZT_ASSIGN_OR_RETURN(dsp::ParallelQueryPlan final_plan,
                      materialize(evaluated[best].degrees));

  metrics->GetCounter("optimizer.candidates_scored_total")
      ->Increment(evaluated.size());
  metrics->GetCounter("optimizer.candidates_rejected_total")
      ->Increment(rejected);
  if (options_.prescreen.enabled) {
    metrics->GetCounter("optimizer.prescreen.candidates_total")
        ->Increment(prescreened);
    metrics->GetCounter("optimizer.prescreen.kept_total")
        ->Increment(prescreen_kept);
  }
  tune_span.AddArg("candidates_evaluated", std::to_string(evaluated.size()));
  tune_span.AddArg("candidates_rejected", std::to_string(rejected));
  tune_span.AddArg("candidates_prescreened", std::to_string(prescreened));

  TuningResult result(std::move(final_plan));
  result.predicted = evaluated[best].predicted;
  result.weighted_cost =
      WeightedCost(result.predicted, evaluated, options_.weight);
  result.candidates_evaluated = evaluated.size();
  result.candidates_rejected = rejected;
  result.candidates_prescreened = prescreened;
  result.prescreen_kept = prescreen_kept;
  result.deadline_hit = deadline_hit;
  result.candidates = std::move(evaluated);
  return result;
}

}  // namespace zerotune::core
