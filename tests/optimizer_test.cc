// Tests for the parallelism optimizer (core/optimizer.h).
#include "core/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/plan_analyzer.h"
#include "core/model.h"
#include "core/oracle_predictor.h"
#include "workload/generator.h"

namespace zerotune::core {
namespace {

using dsp::Cluster;
using dsp::QueryPlan;

QueryPlan LoadedLinearPlan(double rate) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = rate;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  dsp::FilterProperties f;
  f.selectivity = 0.8;
  const int fid = q.AddFilter(src, f).value();
  dsp::AggregateProperties a;
  a.selectivity = 0.2;
  const int aid = q.AddWindowAggregate(fid, a).value();
  ZT_CHECK_OK(q.AddSink(aid));
  return q;
}

TEST(ParallelismOptimizerTest, InvalidOptionsFailLoudlyAtTune) {
  OraclePredictor oracle;
  ParallelismOptimizer::Options bad;
  bad.weight = 1.5;  // must live in [0, 1]
  ASSERT_FALSE(bad.Validate().ok());
  ParallelismOptimizer opt(&oracle, bad);
  const auto result =
      opt.Tune(LoadedLinearPlan(1000), Cluster::Homogeneous("m510", 2).value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelismOptimizerTest, OptionsValidateChecksEveryKnob) {
  ParallelismOptimizer::Options opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.max_parallelism = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = ParallelismOptimizer::Options();
  opts.weight = -0.1;
  EXPECT_FALSE(opts.Validate().ok());
  opts = ParallelismOptimizer::Options();
  opts.prescreen.enabled = true;
  opts.prescreen.keep_fraction = 0.0;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(ParallelismOptimizerTest, ProducesValidPlan) {
  OraclePredictor oracle;
  ParallelismOptimizer opt(&oracle);
  const auto result =
      opt.Tune(LoadedLinearPlan(100000), Cluster::Homogeneous("m510", 4).value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().plan.Validate().ok());
  EXPECT_GT(result.value().candidates_evaluated, 5u);
}

TEST(ParallelismOptimizerTest, BeatsDegreeOneUnderLoad) {
  OraclePredictor oracle;
  ParallelismOptimizer opt(&oracle);
  const Cluster cluster = Cluster::Homogeneous("m510", 4).value();
  const QueryPlan q = LoadedLinearPlan(500000);
  const auto result = opt.Tune(q, cluster).value();

  dsp::ParallelQueryPlan naive(q, cluster);
  ASSERT_TRUE(naive.SetUniformParallelism(1, false).ok());
  ASSERT_TRUE(naive.PlaceRoundRobin().ok());
  const auto naive_cost = oracle.Predict(naive).value();

  // The tuned plan must dominate on throughput (the naive plan is
  // heavily backpressured at 500k ev/s).
  EXPECT_GT(result.predicted.throughput_tps, naive_cost.throughput_tps);
}

TEST(ParallelismOptimizerTest, RespectsCoreConstraint) {
  OraclePredictor oracle;
  ParallelismOptimizer opt(&oracle);
  const Cluster tiny = Cluster::Homogeneous("m510", 1).value();  // 8 cores
  const auto result = opt.Tune(LoadedLinearPlan(4000000), tiny).value();
  for (const auto& op : result.plan.logical().operators()) {
    EXPECT_LE(result.plan.parallelism(op.id), 8);
  }
}

TEST(ParallelismOptimizerTest, WeightExtremesChangeSelection) {
  OraclePredictor oracle;
  const Cluster cluster = Cluster::Homogeneous("rs6525", 2).value();
  const QueryPlan q = LoadedLinearPlan(250000);

  ParallelismOptimizer::Options latency_only;
  latency_only.weight = 1.0;
  ParallelismOptimizer::Options throughput_only;
  throughput_only.weight = 0.0;
  const auto lat_result =
      ParallelismOptimizer(&oracle, latency_only).Tune(q, cluster).value();
  const auto tpt_result =
      ParallelismOptimizer(&oracle, throughput_only).Tune(q, cluster).value();
  // Latency-optimal picks must not have lower throughput weighting than
  // the throughput-optimal pick's latency; at minimum the two objectives
  // pick plans at least as good on their own metric.
  EXPECT_LE(lat_result.predicted.latency_ms,
            tpt_result.predicted.latency_ms + 1e-9);
  EXPECT_GE(tpt_result.predicted.throughput_tps,
            lat_result.predicted.throughput_tps - 1e-9);
}

TEST(ParallelismOptimizerTest, WeightedCostWithinUnitInterval) {
  OraclePredictor oracle;
  ParallelismOptimizer opt(&oracle);
  const auto result =
      opt.Tune(LoadedLinearPlan(50000), Cluster::Homogeneous("m510", 2).value())
          .value();
  EXPECT_GE(result.weighted_cost, 0.0);
  EXPECT_LE(result.weighted_cost, 1.0);
}

TEST(ParallelismOptimizerTest, RefinementNeverWorsensScore) {
  OraclePredictor oracle;
  ParallelismOptimizer::Options no_refine;
  no_refine.refinement_passes = 0;
  ParallelismOptimizer::Options refine;
  refine.refinement_passes = 3;
  const Cluster cluster = Cluster::Homogeneous("m510", 4).value();
  const QueryPlan q = LoadedLinearPlan(750000);
  const auto base =
      ParallelismOptimizer(&oracle, no_refine).Tune(q, cluster).value();
  const auto refined =
      ParallelismOptimizer(&oracle, refine).Tune(q, cluster).value();
  const double base_score =
      0.5 * std::log(std::max(base.predicted.latency_ms, 1e-6)) -
      0.5 * std::log(std::max(base.predicted.throughput_tps, 1e-6));
  const double refined_score =
      0.5 * std::log(std::max(refined.predicted.latency_ms, 1e-6)) -
      0.5 * std::log(std::max(refined.predicted.throughput_tps, 1e-6));
  EXPECT_LE(refined_score, base_score + 1e-9);
}

TEST(ParallelismOptimizerTest, InvalidLogicalPlanRejected) {
  OraclePredictor oracle;
  ParallelismOptimizer opt(&oracle);
  QueryPlan q;  // empty
  EXPECT_FALSE(opt.Tune(q, Cluster::Homogeneous("m510", 1).value()).ok());
}

// Returns the same degree vectors for every query.
class FixedSearchSpace : public SearchSpace {
 public:
  explicit FixedSearchSpace(std::vector<std::vector<int>> degrees)
      : degrees_(std::move(degrees)) {}

  Result<std::vector<PlanCandidate>> Enumerate(
      const dsp::QueryPlan&, const dsp::Cluster&) const override {
    std::vector<PlanCandidate> out;
    for (const std::vector<int>& d : degrees_) out.emplace_back(d, "fixed");
    return out;
  }
  std::string name() const override { return "fixed"; }

 private:
  std::vector<std::vector<int>> degrees_;
};

// Caller-chosen ("seed") candidates reach Tune through an injected
// SearchSpace, and the static check that vets them is
// ParallelQueryPlan::Validate(). A candidate is scored only if it
// materializes and validates: an over-parallelized vector (8 cores
// available) and a wrong-arity vector are counted as rejected, and the
// valid one wins. Hill climbing clamps its neighbors to [1, cores], so
// it adds no rejection of its own.
TEST(ParallelismOptimizerTest, StaticAnalysisRejectsInvalidSeedCandidates) {
  OraclePredictor oracle;
  const FixedSearchSpace space({{1, 10000, 10000, 1}, {1, 2}, {1, 2, 2, 1}});
  ParallelismOptimizer::Options opts;
  opts.search_space = &space;
  const auto result = ParallelismOptimizer(&oracle, opts)
                          .Tune(LoadedLinearPlan(100000),
                                Cluster::Homogeneous("m510", 1).value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ParallelismOptimizer::TuningResult& r = result.value();
  EXPECT_EQ(r.candidates_rejected, 2u);
  ASSERT_GE(r.candidates.size(), 1u);
  EXPECT_EQ(r.candidates[0].degrees, (std::vector<int>{1, 2, 2, 1}));
  EXPECT_TRUE(r.plan.Validate().ok());
}

// A valid caller-chosen candidate is scored, and nothing is rejected.
TEST(ParallelismOptimizerTest, ValidSeedCandidateIsNotRejected) {
  OraclePredictor oracle;
  const FixedSearchSpace space({{1, 2, 2, 1}});
  ParallelismOptimizer::Options opts;
  opts.search_space = &space;
  const auto result = ParallelismOptimizer(&oracle, opts)
                          .Tune(LoadedLinearPlan(100000),
                                Cluster::Homogeneous("m510", 2).value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ParallelismOptimizer::TuningResult& r = result.value();
  EXPECT_EQ(r.candidates_rejected, 0u);
  ASSERT_GE(r.candidates.size(), 1u);
  EXPECT_EQ(r.candidates[0].degrees, (std::vector<int>{1, 2, 2, 1}));
}

// A query with a non-finite field fails Validate(), the analyzer,
// Predict and Tune with InvalidArgument, instead of a NaN prediction or
// "no parallelism candidate could be evaluated".
void ExpectNonFiniteQueryFails(const QueryPlan& q) {
  const Cluster cluster = Cluster::Homogeneous("m510", 2).value();
  dsp::ParallelQueryPlan plan(q, cluster);
  ASSERT_TRUE(plan.SetUniformParallelism(2).ok());
  ASSERT_TRUE(plan.PlaceRoundRobin().ok());
  EXPECT_EQ(plan.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(analysis::PlanAnalyzer::Check(plan).ok());

  const ZeroTuneModel model{ModelConfig()};
  const auto predicted = model.Predict(plan);
  EXPECT_EQ(predicted.status().code(), StatusCode::kInvalidArgument);
  for (bool prescreen : {false, true}) {
    ParallelismOptimizer::Options opts;
    opts.prescreen.enabled = prescreen;
    const auto tuned = ParallelismOptimizer(&model, opts).Tune(q, cluster);
    EXPECT_EQ(tuned.status().code(), StatusCode::kInvalidArgument)
        << tuned.status().ToString();
  }
}

TEST(ParallelismOptimizerTest, NanWindowLengthFailsInsteadOfPredictingNan) {
  QueryPlan q = LoadedLinearPlan(100000);
  q.mutable_op(2).aggregate.window.length =
      std::numeric_limits<double>::quiet_NaN();
  ExpectNonFiniteQueryFails(q);
}

TEST(ParallelismOptimizerTest, NanSelectivityFailsInsteadOfPredictingNan) {
  QueryPlan q = LoadedLinearPlan(100000);
  q.mutable_op(1).filter.selectivity = std::numeric_limits<double>::quiet_NaN();
  ExpectNonFiniteQueryFails(q);
}

TEST(ParallelismOptimizerTest, InfiniteEventRateFailsInsteadOfPredictingNan) {
  ExpectNonFiniteQueryFails(
      LoadedLinearPlan(std::numeric_limits<double>::infinity()));
}

// Round-robin placement needs at least one core: on a cluster without
// cores, placement, Predict and Tune return errors instead of dividing
// by zero.
TEST(ParallelismOptimizerTest, ZeroCoreClusterFailsInsteadOfCrashing) {
  dsp::NodeResources node;
  node.cpu_cores = 0;
  const Cluster cluster({node, node});
  const QueryPlan q = LoadedLinearPlan(100000);
  dsp::ParallelQueryPlan plan(q, cluster);
  EXPECT_EQ(plan.PlaceRoundRobin().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(plan.Validate().ok());
  EXPECT_FALSE(analysis::PlanAnalyzer::Check(plan).ok());

  const ZeroTuneModel model{ModelConfig()};
  EXPECT_EQ(model.Predict(plan).status().code(),
            StatusCode::kInvalidArgument);
  for (bool prescreen : {false, true}) {
    ParallelismOptimizer::Options opts;
    opts.prescreen.enabled = prescreen;
    const auto tuned = ParallelismOptimizer(&model, opts).Tune(q, cluster);
    EXPECT_EQ(tuned.status().code(), StatusCode::kFailedPrecondition)
        << tuned.status().ToString();
  }
}

// Forwards both entry points to `inner` — so it batches exactly when
// `inner` does — and counts the calls.
class CountingPredictor : public CostPredictor {
 public:
  explicit CountingPredictor(const CostPredictor* inner) : inner_(inner) {}

  Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan& plan) const override {
    ++predict_calls_;
    return inner_->Predict(plan);
  }
  Result<std::vector<CostPrediction>> PredictBatch(
      std::span<const dsp::ParallelQueryPlan* const> plans) const override {
    ++batch_calls_;
    return inner_->PredictBatch(plans);
  }
  std::string name() const override { return inner_->name(); }

  size_t predict_calls() const { return predict_calls_; }
  size_t batch_calls() const { return batch_calls_; }

 private:
  const CostPredictor* inner_;
  mutable size_t predict_calls_ = 0;
  mutable size_t batch_calls_ = 0;
};

// TuningResult::predicted is the winner's entry in `candidates`, exactly
// as its batch scored it, and equal to a fresh Predict() of the tuned
// plan; Tune itself never calls Predict().
void ExpectPredictedIsWinnersBatchScore(const CostPredictor& predictor) {
  const QueryPlan q = LoadedLinearPlan(250000);
  const Cluster cluster = Cluster::Homogeneous("m510", 4).value();
  for (bool prescreen : {false, true}) {
    SCOPED_TRACE(prescreen ? "prescreen on" : "prescreen off");
    const CountingPredictor counting(&predictor);
    ParallelismOptimizer::Options opts;
    opts.prescreen.enabled = prescreen;
    const auto result =
        ParallelismOptimizer(&counting, opts).Tune(q, cluster);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const ParallelismOptimizer::TuningResult& r = result.value();
    EXPECT_EQ(counting.predict_calls(), 0u);
    EXPECT_GT(counting.batch_calls(), 0u);

    std::vector<int> degrees(q.num_operators());
    for (const dsp::Operator& op : q.operators()) {
      degrees[static_cast<size_t>(op.id)] = r.plan.parallelism(op.id);
    }
    const auto entry = std::find_if(
        r.candidates.begin(), r.candidates.end(),
        [&](const ParallelismOptimizer::Candidate& c) {
          return c.degrees == degrees;
        });
    ASSERT_NE(entry, r.candidates.end());
    EXPECT_EQ(r.predicted.latency_ms, entry->predicted.latency_ms);
    EXPECT_EQ(r.predicted.throughput_tps, entry->predicted.throughput_tps);

    const auto fresh = predictor.Predict(r.plan);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(r.predicted.latency_ms, fresh.value().latency_ms);
    EXPECT_EQ(r.predicted.throughput_tps, fresh.value().throughput_tps);
  }
}

TEST(ParallelismOptimizerTest, ZeroTunePredictedIsWinnersBatchScore) {
  ModelConfig cfg;
  cfg.seed = 17;
  ZeroTuneModel model(cfg);
  // Keeps DecodeOutput away from its clamp at zero, so the exact
  // comparisons above compare live values.
  TargetStats stats;
  stats.latency_mean = 4.0;
  stats.latency_std = 1.5;
  stats.throughput_mean = 7.0;
  stats.throughput_std = 1.5;
  model.set_target_stats(stats);
  ExpectPredictedIsWinnersBatchScore(model);
}

TEST(ParallelismOptimizerTest, OraclePredictedIsWinnersBatchScore) {
  ExpectPredictedIsWinnersBatchScore(OraclePredictor());
}

TEST(OraclePredictorTest, MatchesNoiselessEngine) {
  OraclePredictor oracle;
  sim::CostEngine engine{sim::CostParams()};
  dsp::ParallelQueryPlan plan(LoadedLinearPlan(10000),
                              Cluster::Homogeneous("m510", 2).value());
  ASSERT_TRUE(plan.SetUniformParallelism(2).ok());
  ASSERT_TRUE(plan.PlaceRoundRobin().ok());
  const auto p = oracle.Predict(plan).value();
  const auto m = engine.MeasureNoiseless(plan).value();
  EXPECT_DOUBLE_EQ(p.latency_ms, m.latency_ms);
  EXPECT_DOUBLE_EQ(p.throughput_tps, m.throughput_tps);
}

}  // namespace
}  // namespace zerotune::core
