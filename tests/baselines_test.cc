#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "baselines/dhalion.h"
#include "baselines/ds2.h"
#include "baselines/flat_mlp.h"
#include "baselines/flat_vector.h"
#include "baselines/greedy.h"
#include "baselines/linear_model.h"
#include "baselines/random_forest.h"
#include "common/statistics.h"
#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "core/model.h"
#include "core/trainer.h"

namespace zerotune::baselines {
namespace {

workload::Dataset SmallCorpus(size_t n, uint64_t seed = 31) {
  core::OptiSampleEnumerator enumerator;
  core::DatasetBuilderOptions opts;
  opts.count = n;
  opts.seed = seed;
  return core::BuildDataset(enumerator, opts).value();
}

const dsp::ParallelQueryPlan& AnyPlan(const workload::Dataset& d) {
  return d.sample(0).plan;
}

TEST(FlatVectorTest, DimMatchesEncodeAndNames) {
  const auto corpus = SmallCorpus(3);
  const auto v = FlatVectorEncoder::Encode(AnyPlan(corpus));
  EXPECT_EQ(v.size(), FlatVectorEncoder::Dim());
  EXPECT_EQ(FlatVectorEncoder::FeatureNames().size(),
            FlatVectorEncoder::Dim());
  EXPECT_DOUBLE_EQ(v.back(), 1.0);  // bias slot
}

TEST(FlatVectorTest, EncodingIsStructureBlind) {
  // Two different wirings with identical aggregate statistics encode the
  // same — the very limitation Fig. 5 demonstrates.
  dsp::QueryPlan q1, q2;
  dsp::SourceProperties s;
  s.event_rate = 1000;
  s.schema = dsp::TupleSchema::Uniform(2, dsp::DataType::kInt);
  // q1: src -> f1 -> f2 -> sink (chain).
  {
    const int src = q1.AddSource(s);
    dsp::FilterProperties f;
    f.selectivity = 0.5;
    const int f1 = q1.AddFilter(src, f).value();
    const int f2 = q1.AddFilter(f1, f).value();
    ZT_CHECK_OK(q1.AddSink(f2));
  }
  // q2: same ops, same depth, same selectivities.
  {
    const int src = q2.AddSource(s);
    dsp::FilterProperties f;
    f.selectivity = 0.5;
    const int f1 = q2.AddFilter(src, f).value();
    const int f2 = q2.AddFilter(f1, f).value();
    ZT_CHECK_OK(q2.AddSink(f2));
  }
  const dsp::Cluster c = dsp::Cluster::Homogeneous("m510", 2).value();
  EXPECT_EQ(FlatVectorEncoder::Encode(dsp::ParallelQueryPlan(q1, c)),
            FlatVectorEncoder::Encode(dsp::ParallelQueryPlan(q2, c)));
}

TEST(SolveLinearSystemTest, SolvesKnownSystem) {
  // 2x + y = 5 ; x + 3y = 10 -> x = 1, y = 3.
  std::vector<double> a = {2, 1, 1, 3};
  std::vector<double> b = {5, 10};
  ASSERT_TRUE(SolveLinearSystem(a, b, 2).ok());
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(SolveLinearSystemTest, DetectsSingular) {
  std::vector<double> a = {1, 2, 2, 4};
  std::vector<double> b = {1, 2};
  const zerotune::Status s = SolveLinearSystem(a, b, 2);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), zerotune::StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("singular"), std::string::npos);
}

TEST(LinearRegressionTest, FitsAndPredicts) {
  const auto corpus = SmallCorpus(80);
  LinearRegressionModel model;
  ASSERT_TRUE(model.Fit(corpus).ok());
  const auto p = model.Predict(AnyPlan(corpus));
  ASSERT_TRUE(p.ok());
  EXPECT_GE(p.value().latency_ms, 0.0);
}

TEST(LinearRegressionTest, PredictBeforeFitFails) {
  const auto corpus = SmallCorpus(2);
  LinearRegressionModel model;
  EXPECT_FALSE(model.Predict(AnyPlan(corpus)).ok());
}

TEST(LinearRegressionTest, BetterThanConstantOnTrainSet) {
  const auto corpus = SmallCorpus(120);
  LinearRegressionModel model;
  ASSERT_TRUE(model.Fit(corpus).ok());
  // Compare squared log-error against predicting the mean.
  std::vector<double> logs;
  for (const auto& s : corpus.samples()) {
    logs.push_back(std::log1p(s.latency_ms));
  }
  const double mean_log = Mean(logs);
  double model_se = 0.0, const_se = 0.0;
  for (const auto& s : corpus.samples()) {
    const double pred =
        std::log1p(model.Predict(s.plan).value().latency_ms);
    const double truth = std::log1p(s.latency_ms);
    model_se += (pred - truth) * (pred - truth);
    const_se += (mean_log - truth) * (mean_log - truth);
  }
  EXPECT_LT(model_se, const_se);
}

TEST(FlatMlpTest, FitsAndPredicts) {
  const auto corpus = SmallCorpus(60);
  FlatMlpModel::Options opts;
  opts.epochs = 30;
  FlatMlpModel model(opts);
  ASSERT_TRUE(model.Fit(corpus).ok());
  const auto p = model.Predict(AnyPlan(corpus));
  ASSERT_TRUE(p.ok());
  EXPECT_GE(p.value().throughput_tps, 0.0);
}

TEST(FlatMlpTest, DivergedFitFails) {
  // At this learning rate the first batch of epoch 25 overflows the loss
  // (its gradient stays finite). Fit must fail there rather than return a
  // model that predicts latency 0 and throughput 0.
  const auto corpus = SmallCorpus(60);
  FlatMlpModel::Options opts;
  opts.epochs = 30;
  opts.learning_rate = 1e6;
  FlatMlpModel model(opts);
  const Status status = model.Fit(corpus);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  EXPECT_NE(status.message().find("epoch 25, batch 1 has a non-finite"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(model.Predict(AnyPlan(corpus)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(FlatMlpTest, PredictBeforeFitFails) {
  const auto corpus = SmallCorpus(2);
  FlatMlpModel model;
  EXPECT_FALSE(model.Predict(AnyPlan(corpus)).ok());
}

// A set with a NaN or infinite label fails every learner's Fit with the
// sample's index, before any fitting: a learner that trained on it would
// predict 0 everywhere.
TEST(TrainingSetCheckTest, EveryLearnerRejectsNonFiniteLabels) {
  const workload::Dataset corpus = SmallCorpus(40);
  struct Case {
    const char* name;
    double latency_ms;
    double throughput_tps;
  };
  const double good_lat = corpus.sample(3).latency_ms;
  const double good_tpt = corpus.sample(3).throughput_tps;
  for (const Case& c :
       {Case{"NaN latency", std::nan(""), good_tpt},
        Case{"+inf throughput", good_lat,
             std::numeric_limits<double>::infinity()}}) {
    SCOPED_TRACE(c.name);
    workload::Dataset bad;
    for (size_t i = 0; i < corpus.size(); ++i) {
      workload::LabeledQuery q = corpus.sample(i);
      if (i == 3) {
        q.latency_ms = c.latency_ms;
        q.throughput_tps = c.throughput_tps;
      }
      bad.Add(std::move(q));
    }
    core::ZeroTuneModel gnn;
    core::TrainOptions train_opts;
    train_opts.epochs = 1;
    const std::pair<const char*, Status> fits[] = {
        {"FlatMlpModel", FlatMlpModel().Fit(bad)},
        {"LinearRegressionModel", LinearRegressionModel().Fit(bad)},
        {"RandomForestModel", RandomForestModel().Fit(bad)},
        {"Trainer",
         core::Trainer(&gnn, train_opts).Train(bad, workload::Dataset())
             .status()},
    };
    for (const auto& [learner, status] : fits) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << learner << ": " << status.ToString();
      EXPECT_NE(status.message().find("training sample 3 has a non-finite "
                                      "label"),
                std::string::npos)
          << learner << ": " << status.ToString();
    }
  }
}

TEST(RandomForestTest, FitsAndPredicts) {
  const auto corpus = SmallCorpus(80);
  RandomForestModel::Options opts;
  opts.num_trees = 10;
  RandomForestModel model(opts);
  ASSERT_TRUE(model.Fit(corpus).ok());
  EXPECT_GT(model.num_nodes(), 10u);
  const auto p = model.Predict(AnyPlan(corpus));
  ASSERT_TRUE(p.ok());
  EXPECT_GE(p.value().latency_ms, 0.0);
}

TEST(RandomForestTest, InterpolatesTrainingData) {
  const auto corpus = SmallCorpus(100);
  RandomForestModel model;
  ASSERT_TRUE(model.Fit(corpus).ok());
  // Median in-sample q-error should be moderate (forests memorize well).
  std::vector<double> qerrors;
  for (const auto& s : corpus.samples()) {
    qerrors.push_back(
        QError(s.latency_ms, model.Predict(s.plan).value().latency_ms));
  }
  EXPECT_LT(Median(qerrors), 3.0);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const auto corpus = SmallCorpus(40);
  RandomForestModel a, b;
  ASSERT_TRUE(a.Fit(corpus).ok());
  ASSERT_TRUE(b.Fit(corpus).ok());
  EXPECT_DOUBLE_EQ(a.Predict(AnyPlan(corpus)).value().latency_ms,
                   b.Predict(AnyPlan(corpus)).value().latency_ms);
}

dsp::QueryPlan HeavyQuery(double rate) {
  dsp::QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = rate;
  s.schema = dsp::TupleSchema::Uniform(4, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  dsp::FilterProperties f;
  f.selectivity = 0.9;
  const int fid = q.AddFilter(src, f).value();
  dsp::AggregateProperties a;
  a.selectivity = 0.3;
  const int aid = q.AddWindowAggregate(fid, a).value();
  ZT_CHECK_OK(q.AddSink(aid));
  return q;
}

TEST(GreedyTunerTest, ProducesValidPlan) {
  GreedyHeuristicTuner tuner;
  const auto plan = tuner.Tune(HeavyQuery(300000),
                               dsp::Cluster::Homogeneous("m510", 4).value());
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().Validate().ok());
}

TEST(GreedyTunerTest, ScalesWithLoad) {
  GreedyHeuristicTuner tuner;
  const dsp::Cluster c = dsp::Cluster::Homogeneous("rs6525", 4).value();
  const auto light = tuner.Tune(HeavyQuery(1000), c).value();
  const auto heavy = tuner.Tune(HeavyQuery(2000000), c).value();
  EXPECT_GE(heavy.parallelism(1), light.parallelism(1));
  EXPECT_GT(heavy.parallelism(1), 1);
}

TEST(DhalionTunerTest, ResolvesBackpressure) {
  sim::CostParams params;
  params.noise_sigma = 0.0;
  sim::CostEngine engine(params);
  DhalionTuner tuner;
  const auto outcome =
      tuner.Tune(HeavyQuery(400000),
                 dsp::Cluster::Homogeneous("rs6525", 4).value(), engine);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome.value().executions, 1);
  const auto m = engine.MeasureNoiseless(outcome.value().plan).value();
  EXPECT_FALSE(m.backpressured);
}

TEST(Ds2TunerTest, ResolvesBackpressureInFewSteps) {
  sim::CostParams params;
  params.noise_sigma = 0.0;
  sim::CostEngine engine(params);
  Ds2Tuner tuner;
  const auto outcome =
      tuner.Tune(HeavyQuery(400000),
                 dsp::Cluster::Homogeneous("rs6525", 4).value(), engine);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome.value().executions, 3);
  const auto m = engine.MeasureNoiseless(outcome.value().plan).value();
  EXPECT_FALSE(m.backpressured);
}

TEST(Ds2TunerTest, ProportionalToLoad) {
  sim::CostParams params;
  params.noise_sigma = 0.0;
  sim::CostEngine engine(params);
  Ds2Tuner tuner;
  const dsp::Cluster c = dsp::Cluster::Homogeneous("rs6525", 4).value();
  const auto light = tuner.Tune(HeavyQuery(5000), c, engine).value();
  const auto heavy = tuner.Tune(HeavyQuery(800000), c, engine).value();
  // Aggregate degree scales with load.
  EXPECT_GT(heavy.plan.parallelism(2), light.plan.parallelism(2));
}

TEST(Ds2TunerTest, RespectsCoreCap) {
  sim::CostParams params;
  params.noise_sigma = 0.0;
  sim::CostEngine engine(params);
  Ds2Tuner tuner;
  const dsp::Cluster tiny = dsp::Cluster::Homogeneous("m510", 1).value();
  const auto outcome = tuner.Tune(HeavyQuery(4000000), tiny, engine).value();
  for (const auto& op : outcome.plan.logical().operators()) {
    EXPECT_LE(outcome.plan.parallelism(op.id), 8);
  }
}

TEST(DhalionTunerTest, LeavesLightQueriesAlone) {
  sim::CostParams params;
  params.noise_sigma = 0.0;
  sim::CostEngine engine(params);
  DhalionTuner tuner;
  const auto outcome =
      tuner.Tune(HeavyQuery(200),
                 dsp::Cluster::Homogeneous("m510", 2).value(), engine)
          .value();
  for (const auto& op : outcome.plan.logical().operators()) {
    EXPECT_LE(outcome.plan.parallelism(op.id), 2);
  }
}

}  // namespace
}  // namespace zerotune::baselines
