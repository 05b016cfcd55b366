// PredictBatch parity: the batched inference path must match per-plan
// Predict() bit for bit for the GNN (with and without thread-pool
// sharding) and for every baseline predictor, across empty, single, and
// mixed-structure batches. The baselines go through the default
// sequential PredictBatch; the GNN's Predict() is a one-plan batch, so
// what its exact checks pin is batch invariance — a plan scores the
// same whichever batch it is part of. The GNN engine runs an fp32
// snapshot of the weights, so it matches the fp64 autograd Forward()
// (the training model) within a relative bound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/flat_mlp.h"
#include "baselines/linear_model.h"
#include "baselines/random_forest.h"
#include "common/thread_pool.h"
#include "core/batch_inference.h"
#include "core/cost_predictor.h"
#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "core/model.h"
#include "core/oracle_predictor.h"
#include "core/plan_graph.h"
#include "core/trainer.h"
#include "nn/kernels.h"
#include "nn/optimizer.h"

namespace zerotune::core {
namespace {

using dsp::Cluster;
using dsp::ParallelQueryPlan;
using dsp::QueryPlan;

QueryPlan LinearQuery(double rate = 1000) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = rate;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  const int f = q.AddFilter(src, dsp::FilterProperties{}).value();
  const int a = q.AddWindowAggregate(f, dsp::AggregateProperties{}).value();
  ZT_CHECK_OK(q.AddSink(a));
  return q;
}

QueryPlan TwoFilterQuery() {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 500;
  s.schema = dsp::TupleSchema::Uniform(2, dsp::DataType::kInt);
  const int src = q.AddSource(s);
  dsp::FilterProperties f;
  f.selectivity = 0.5;
  const int f1 = q.AddFilter(src, f).value();
  const int f2 = q.AddFilter(f1, f).value();
  ZT_CHECK_OK(q.AddSink(f2));
  return q;
}

ParallelQueryPlan Deploy(const QueryPlan& q, const Cluster& c,
                         int degree) {
  ParallelQueryPlan p(q, c);
  for (const dsp::Operator& op : q.operators()) {
    if (op.type != dsp::OperatorType::kSource &&
        op.type != dsp::OperatorType::kSink) {
      EXPECT_TRUE(p.SetParallelism(op.id, degree).ok());
    }
  }
  p.DerivePartitioning();
  EXPECT_TRUE(p.PlaceRoundRobin().ok());
  return p;
}

/// source → filter → filter → window aggregate → sink deployed with the
/// given degrees for the three inner operators.
ParallelQueryPlan DeployChain(const Cluster& c, int f1_degree, int f2_degree,
                              int agg_degree) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 200000;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  const int f1 = q.AddFilter(src, dsp::FilterProperties{}).value();
  const int f2 = q.AddFilter(f1, dsp::FilterProperties{}).value();
  const int a = q.AddWindowAggregate(f2, dsp::AggregateProperties{}).value();
  ZT_CHECK_OK(q.AddSink(a));
  ParallelQueryPlan p(q, c);
  EXPECT_TRUE(p.SetParallelism(f1, f1_degree).ok());
  EXPECT_TRUE(p.SetParallelism(f2, f2_degree).ok());
  EXPECT_TRUE(p.SetParallelism(a, agg_degree).ok());
  p.DerivePartitioning();
  EXPECT_TRUE(p.PlaceRoundRobin().ok());
  return p;
}

/// Many candidates of the same query (one structure group) plus a second
/// query shape and a second cluster (more groups).
std::vector<ParallelQueryPlan> MixedBatch() {
  const Cluster c4 = Cluster::Homogeneous("m510", 4).value();
  const Cluster c2 = Cluster::Homogeneous("rs620", 2).value();
  const QueryPlan linear = LinearQuery();
  const QueryPlan filters = TwoFilterQuery();
  std::vector<ParallelQueryPlan> plans;
  for (int d : {1, 2, 3, 4, 6, 8}) plans.push_back(Deploy(linear, c4, d));
  for (int d : {1, 2, 4}) plans.push_back(Deploy(filters, c4, d));
  for (int d : {1, 2}) plans.push_back(Deploy(linear, c2, d));
  return plans;
}

/// Target stats that keep DecodeOutput away from its clamp-at-zero so
/// relative and bitwise comparisons are meaningful.
std::unique_ptr<ZeroTuneModel> MakeModel(
    FeatureConfig features = FeatureConfig::All()) {
  ModelConfig cfg;
  cfg.seed = 17;
  cfg.features = features;
  auto model = std::make_unique<ZeroTuneModel>(cfg);
  TargetStats stats;
  stats.latency_mean = 4.0;
  stats.latency_std = 1.5;
  stats.throughput_mean = 7.0;
  stats.throughput_std = 1.5;
  model->set_target_stats(stats);
  return model;
}

std::vector<CostPrediction> PredictEach(
    const ZeroTuneModel& model, const std::vector<ParallelQueryPlan>& plans) {
  std::vector<CostPrediction> out;
  for (const ParallelQueryPlan& p : plans) {
    Result<CostPrediction> r = model.Predict(p);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out.push_back(r.ok() ? r.value() : CostPrediction{-1.0, -1.0});
  }
  return out;
}

void ExpectSamePredictions(const std::vector<CostPrediction>& got,
                           const std::vector<CostPrediction>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].latency_ms, want[i].latency_ms) << "plan #" << i;
    EXPECT_EQ(got[i].throughput_tps, want[i].throughput_tps) << "plan #" << i;
  }
}

void ExpectBitIdentical(const CostPredictor& predictor,
                        const std::vector<ParallelQueryPlan>& plans) {
  Result<std::vector<CostPrediction>> batched =
      PredictBatch(predictor, plans);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched.value().size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    Result<CostPrediction> single = predictor.Predict(plans[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    // Exact ==, not NEAR: the batched path must replicate the sequential
    // arithmetic bit for bit.
    EXPECT_EQ(batched.value()[i].latency_ms, single.value().latency_ms)
        << "plan #" << i;
    EXPECT_EQ(batched.value()[i].throughput_tps,
              single.value().throughput_tps)
        << "plan #" << i;
  }
}

// Relative bound between the GNN engine and the fp64 reference: the
// engine runs fp32 weights and activations through ~8 MLP blocks plus
// the exp() in DecodeOutput, the reference fp64 autograd. The test
// models diverge by at most ~5e-6 relative; 1e-3 is the bound
// quantized_test asserts on trained weights, and batching bugs produce
// O(1) differences.
constexpr double kFp32RelTolerance = 1e-3;

void ExpectRelNear(double a, double b, size_t plan_idx, const char* what) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  EXPECT_LE(std::abs(a - b), kFp32RelTolerance * scale)
      << what << " diverged on plan #" << plan_idx << ": batched=" << a
      << " fp64=" << b;
}

// The fp64 autograd reference: the training forward pass, decoded.
CostPrediction Fp64Reference(const ZeroTuneModel& model,
                             const ParallelQueryPlan& plan) {
  const PlanGraph graph = BuildPlanGraph(plan, model.config().features);
  return model.DecodeOutput(model.Forward(graph)->value);
}

// The GNN batch contract: within the fp32 bound of the fp64 reference,
// and bit-identical to per-plan Predict().
void ExpectGnnParity(const ZeroTuneModel& model,
                     const std::vector<ParallelQueryPlan>& plans) {
  Result<std::vector<CostPrediction>> batched = PredictBatch(model, plans);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched.value().size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    const CostPrediction ref = Fp64Reference(model, plans[i]);
    ExpectRelNear(batched.value()[i].latency_ms, ref.latency_ms, i,
                  "latency_ms");
    ExpectRelNear(batched.value()[i].throughput_tps, ref.throughput_tps, i,
                  "throughput_tps");
  }
  ExpectBitIdentical(model, plans);
}

// Restores the kernel dispatch even when an assertion fails mid-test.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) { nn::kernels::ForceScalar(on); }
  ~ScopedForceScalar() { nn::kernels::ForceScalar(false); }
};

TEST(PredictBatchTest, GnnBatchedMatchesSequentialWithinFp32Bound) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  ExpectGnnParity(*model, MixedBatch());
}

TEST(PredictBatchTest, GnnBatchedMatchesSequentialUnderForcedScalar) {
  ScopedForceScalar scalar(true);
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  ExpectGnnParity(*model, MixedBatch());
}

TEST(PredictBatchTest, GnnParityHoldsUnderThreadPoolSharding) {
  std::unique_ptr<ZeroTuneModel> model = MakeModel();
  ThreadPool pool(4);
  model->set_thread_pool(&pool);
  ExpectGnnParity(*model, MixedBatch());
}

TEST(PredictBatchTest, GnnParityHoldsForMaskedFeatureConfigs) {
  for (FeatureConfig fc :
       {FeatureConfig::OperatorOnly(), FeatureConfig::ParallelismAndResource(),
        FeatureConfig::PerInstance()}) {
    ExpectGnnParity(*MakeModel(fc), MixedBatch());
  }
}

// Batch invariance is exact: dedup, grouping, chunking and row batching
// never change a plan's arithmetic, so each plan of a batch scores
// exactly what it scores alone — under either ISA, with or without a
// pool (each comparison runs both sides on the same ISA).
TEST(PredictBatchTest, GnnBatchEqualsEachPlanScoredAlone) {
  std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const std::vector<ParallelQueryPlan> plans = MixedBatch();
  ThreadPool pool(4);
  for (bool force_scalar : {true, false}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(std::string(force_scalar ? "scalar" : "default isa") +
                   (p != nullptr ? ", pooled" : ", no pool"));
      ScopedForceScalar isa(force_scalar);
      model->set_thread_pool(p);
      Result<std::vector<CostPrediction>> batched =
          PredictBatch(*model, plans);
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      for (size_t i = 0; i < plans.size(); ++i) {
        Result<std::vector<CostPrediction>> alone =
            PredictBatch(*model, {plans[i]});
        ASSERT_TRUE(alone.ok()) << alone.status().ToString();
        EXPECT_EQ(batched.value()[i].latency_ms, alone.value()[0].latency_ms)
            << "plan #" << i;
        EXPECT_EQ(batched.value()[i].throughput_tps,
                  alone.value()[0].throughput_tps)
            << "plan #" << i;
      }
    }
  }
}

// Predict() answers fleet requests on pool threads, concurrently
// against one shared model: every answer must equal the single-threaded
// one bit for bit.
TEST(PredictBatchTest, ConcurrentPredictIsBitIdentical) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const std::vector<ParallelQueryPlan> plans = MixedBatch();
  std::vector<CostPrediction> expected;
  for (const ParallelQueryPlan& p : plans) {
    Result<CostPrediction> r = model->Predict(p);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(r.value());
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::vector<CostPrediction>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&model, &plans, &got, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (const ParallelQueryPlan& p : plans) {
          Result<CostPrediction> r = model->Predict(p);
          got[t].push_back(r.ok() ? r.value() : CostPrediction{-1.0, -1.0});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * plans.size());
    for (size_t k = 0; k < got[t].size(); ++k) {
      const size_t i = k % plans.size();
      EXPECT_EQ(got[t][k].latency_ms, expected[i].latency_ms)
          << "thread " << t << ", plan #" << i;
      EXPECT_EQ(got[t][k].throughput_tps, expected[i].throughput_tps)
          << "thread " << t << ", plan #" << i;
    }
  }
}

// The same on a model that has never predicted, so the threads race the
// first build of its fp32 snapshot.
TEST(PredictBatchTest, ConcurrentFirstPredictIsBitIdentical) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const std::vector<ParallelQueryPlan> plans = MixedBatch();
  const std::vector<CostPrediction> expected = PredictEach(*MakeModel(), plans);
  constexpr int kThreads = 4;
  std::vector<std::vector<CostPrediction>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&model, &plans, &got, &start, t] {
      start.arrive_and_wait();
      got[t] = PredictEach(*model, plans);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ExpectSamePredictions(got[t], expected);
  }
}

// Every weight write reaches inference. After each one, a model whose
// snapshot is warm predicts exactly what a model that never predicted
// holding the same weights does, and differs from its answer before.
TEST(PredictBatchTest, PredictFollowsEveryWeightWrite) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const std::vector<ParallelQueryPlan> plans = MixedBatch();
  std::vector<CostPrediction> before = PredictEach(*model, plans);
  const auto expect_follows = [&](const std::string& write) {
    SCOPED_TRACE(write);
    const std::vector<CostPrediction> now = PredictEach(*model, plans);
    ZeroTuneModel cold(model->config());
    ASSERT_TRUE(cold.mutable_params()->CopyFrom(model->params()).ok());
    cold.set_target_stats(model->target_stats());
    ExpectSamePredictions(now, PredictEach(cold, plans));
    for (size_t i = 0; i < plans.size(); ++i) {
      EXPECT_TRUE(now[i].latency_ms != before[i].latency_ms ||
                  now[i].throughput_tps != before[i].throughput_tps)
          << "plan #" << i << " kept its old prediction";
    }
    before = now;
  };
  ModelConfig other = model->config();

  nn::GradStore grads;  // a unit gradient on every parameter
  for (const nn::NodePtr& p : model->params().parameters()) {
    grads.Accumulate(p->param_id,
                     nn::Matrix(p->value.rows(), p->value.cols(), 1.0));
  }
  nn::Adam adam(model->mutable_params());
  adam.Step(grads);
  expect_follows("Adam::Step");
  nn::Sgd sgd(model->mutable_params());
  sgd.Step(grads);
  expect_follows("Sgd::Step");

  other.seed = 41;
  const ZeroTuneModel donor(other);
  ASSERT_TRUE(model->mutable_params()->CopyFrom(donor.params()).ok());
  expect_follows("ParameterStore::CopyFrom");

  other.seed = 43;
  ZeroTuneModel saved(other);
  saved.set_target_stats(model->target_stats());
  const std::string path = ::testing::TempDir() + "/zt_follows_model.txt";
  ASSERT_TRUE(saved.Save(path).ok());
  ASSERT_TRUE(model->Load(path).ok());
  expect_follows("ZeroTuneModel::Load");

  // A file with other feature flags whose weights are cut short fails to
  // load and leaves every prediction as it was.
  const std::string bad_path = ::testing::TempDir() + "/zt_follows_bad.txt";
  {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string bad = text.str();
    const size_t flags = bad.find(' ', bad.find('\n') + 1) + 1;
    ASSERT_EQ(bad[flags], '1');
    bad[flags] = '0';  // operator_features off
    bad.resize(bad.size() - 100);
    std::ofstream(bad_path) << bad;
  }
  ASSERT_FALSE(model->Load(bad_path).ok());
  {
    SCOPED_TRACE("failed ZeroTuneModel::Load");
    ExpectSamePredictions(PredictEach(*model, plans), before);
  }

  OptiSampleEnumerator enumerator;
  DatasetBuilderOptions corpus_opts;
  corpus_opts.count = 40;
  corpus_opts.seed = 13;
  const workload::Dataset corpus =
      BuildDataset(enumerator, corpus_opts).value();
  workload::Dataset train, val, test;
  Rng rng(5);
  ASSERT_TRUE(corpus.Split(0.8, 0.1, &rng, &train, &val, &test).ok());
  TrainOptions topt;
  topt.epochs = 2;
  topt.batch_size = 8;
  // Train ends by restoring its best epoch's weights.
  ASSERT_TRUE(Trainer(model.get(), topt).Train(train, val).ok());
  expect_follows("Trainer::Train");

  // Resuming a finished run's checkpoint runs no epoch: the checkpoint's
  // weights and best-epoch weights are the only writes.
  const std::string ckpt = ::testing::TempDir() + "/zt_follows.ckpt";
  std::remove(ckpt.c_str());
  topt.checkpoint_path = ckpt;
  other.seed = 47;
  ZeroTuneModel trained(other);
  ASSERT_TRUE(Trainer(&trained, topt).Train(train, val).ok());
  topt.resume = true;
  ASSERT_TRUE(Trainer(model.get(), topt).Train(train, val).ok());
  expect_follows("trainer checkpoint resume");

  std::remove(path.c_str());
  std::remove(bad_path.c_str());
  std::remove(ckpt.c_str());
}

TEST(PredictBatchTest, EmptyBatchReturnsEmptyVector) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const std::vector<ParallelQueryPlan> none;
  Result<std::vector<CostPrediction>> r = PredictBatch(*model, none);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(PredictBatchTest, SingleElementBatchMatchesPredict) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 4).value();
  ExpectGnnParity(*model, {Deploy(LinearQuery(), c, 2)});
}

// Wide clusters give a chunk more distinct mapping edges (one per
// operator instance's node and degree) than a fixed per-candidate
// allowance: the edge interner must be sized from the edges themselves.
TEST(PredictBatchTest, WideClusterSinglePlanScores) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 16).value();
  ExpectGnnParity(*model, {DeployChain(c, 16, 13, 11)});
}

TEST(PredictBatchTest, WideClusterBatchScores) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 24).value();
  ExpectGnnParity(*model,
                  {DeployChain(c, 24, 20, 16), DeployChain(c, 22, 18, 14),
                   DeployChain(c, 21, 17, 13), DeployChain(c, 19, 15, 11)});
}

TEST(PredictBatchTest, NullPlanFailsWithIndex) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 4).value();
  const ParallelQueryPlan ok_plan = Deploy(LinearQuery(), c, 2);
  const std::vector<const ParallelQueryPlan*> ptrs = {&ok_plan, nullptr};
  Result<std::vector<CostPrediction>> r = model->PredictBatch(ptrs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("plan #1"), std::string::npos)
      << r.status().ToString();
}

TEST(PredictBatchTest, InvalidPlanFailsWithIndexAndContext) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 2).value();
  std::vector<ParallelQueryPlan> plans;
  plans.push_back(Deploy(LinearQuery(), c, 2));
  // Degree far beyond the cluster's cores fails plan validation.
  ParallelQueryPlan bad(LinearQuery(), c);
  ASSERT_TRUE(bad.SetParallelism(1, 10000).ok());
  bad.DerivePartitioning();
  plans.push_back(bad);
  Result<std::vector<CostPrediction>> r = PredictBatch(*model, plans);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("plan #1"), std::string::npos)
      << r.status().ToString();
}

TEST(PredictBatchTest, DefaultPathBaselinesMatchSequential) {
  // Every baseline goes through CostPredictor's default PredictBatch
  // (sequential loop) — parity plus the Result plumbing must hold.
  OptiSampleEnumerator enumerator;
  DatasetBuilderOptions opts;
  opts.count = 60;
  opts.seed = 31;
  const workload::Dataset corpus = BuildDataset(enumerator, opts).value();
  const std::vector<ParallelQueryPlan> plans = MixedBatch();

  baselines::LinearRegressionModel linear;
  ASSERT_TRUE(linear.Fit(corpus).ok());
  ExpectBitIdentical(linear, plans);

  baselines::FlatMlpModel mlp;
  ASSERT_TRUE(mlp.Fit(corpus).ok());
  ExpectBitIdentical(mlp, plans);

  baselines::RandomForestModel forest;
  ASSERT_TRUE(forest.Fit(corpus).ok());
  ExpectBitIdentical(forest, plans);

  ExpectBitIdentical(OraclePredictor(), plans);
}

TEST(PredictBatchTest, UnfittedBaselineErrorCarriesPlanContext) {
  baselines::LinearRegressionModel unfitted;
  const std::vector<ParallelQueryPlan> plans = MixedBatch();
  Result<std::vector<CostPrediction>> r = PredictBatch(unfitted, plans);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // Default PredictBatch annotates which plan failed; the baseline
  // itself names the predictor and plan shape.
  EXPECT_NE(r.status().message().find("plan #0"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("not fitted"), std::string::npos)
      << r.status().ToString();
}

TEST(PredictBatchTest, BatchStatsReportAmortization) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 4).value();
  const QueryPlan q = LinearQuery();
  std::vector<ParallelQueryPlan> plans;
  std::vector<const ParallelQueryPlan*> ptrs;
  for (int d = 1; d <= 4; ++d) plans.push_back(Deploy(q, c, d));
  for (const ParallelQueryPlan& p : plans) ptrs.push_back(&p);
  BatchInferenceStats stats;
  Result<std::vector<CostPrediction>> r =
      BatchedPredict(*model, ptrs, nullptr, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.plans, 4u);
  // All candidates share one topology + cluster.
  EXPECT_EQ(stats.structure_groups, 1u);
  // Source/sink rows repeat across candidates, so dedup must win.
  EXPECT_LT(stats.operator_rows_encoded, stats.operator_rows_total);
  // The cluster is shared: its node rows encode once.
  EXPECT_LT(stats.resource_rows_encoded, stats.resource_rows_total);
}

}  // namespace
}  // namespace zerotune::core
