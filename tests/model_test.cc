#include "core/model.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

#include "core/train_batch.h"

namespace zerotune::core {
namespace {

using dsp::Cluster;
using dsp::ParallelQueryPlan;
using dsp::QueryPlan;

ParallelQueryPlan SmallPlan(int degree = 2) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 1000;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  const int f = q.AddFilter(src, dsp::FilterProperties{}).value();
  const int a = q.AddWindowAggregate(f, dsp::AggregateProperties{}).value();
  ZT_CHECK_OK(q.AddSink(a));
  ParallelQueryPlan p(q, Cluster::Homogeneous("m510", 2).value());
  EXPECT_TRUE(p.SetParallelism(f, degree).ok());
  EXPECT_TRUE(p.SetParallelism(a, degree).ok());
  p.DerivePartitioning();
  EXPECT_TRUE(p.PlaceRoundRobin().ok());
  return p;
}

TEST(ZeroTuneModelTest, ForwardProducesTwoOutputs) {
  ZeroTuneModel model;
  const PlanGraph g = BuildPlanGraph(SmallPlan());
  const nn::Matrix out = ForwardGraph(model, g);
  EXPECT_EQ(out.rows(), 1u);
  EXPECT_EQ(out.cols(), 2u);
}

TEST(ZeroTuneModelTest, PredictReturnsNonNegativeCosts) {
  ZeroTuneModel model;
  const auto p = model.Predict(SmallPlan());
  ASSERT_TRUE(p.ok());
  EXPECT_GE(p.value().latency_ms, 0.0);
  EXPECT_GE(p.value().throughput_tps, 0.0);
}

TEST(ZeroTuneModelTest, DeterministicForward) {
  ModelConfig cfg;
  cfg.seed = 7;
  ZeroTuneModel a(cfg), b(cfg);
  const PlanGraph g = BuildPlanGraph(SmallPlan());
  EXPECT_DOUBLE_EQ(ForwardGraph(a, g)(0, 0), ForwardGraph(b, g)(0, 0));
}

TEST(ZeroTuneModelTest, DifferentDegreesGiveDifferentPredictions) {
  // Compare raw forward outputs: Predict() clamps the decoded costs of an
  // untrained network at zero, which can collide.
  ZeroTuneModel model;
  const auto g2 = BuildPlanGraph(SmallPlan(2));
  const auto g8 = BuildPlanGraph(SmallPlan(8));
  EXPECT_NE(ForwardGraph(model, g2)(0, 0), ForwardGraph(model, g8)(0, 0));
}

TEST(ZeroTuneModelTest, TargetEncodeDecodeRoundTrip) {
  ZeroTuneModel model;
  TargetStats stats;
  stats.latency_mean = 3.0;
  stats.latency_std = 1.5;
  stats.throughput_mean = 8.0;
  stats.throughput_std = 2.0;
  model.set_target_stats(stats);
  const nn::Matrix t = model.EncodeTarget(123.0, 45678.0);
  const CostPrediction p = model.DecodeOutput(t);
  EXPECT_NEAR(p.latency_ms, 123.0, 1e-6);
  EXPECT_NEAR(p.throughput_tps, 45678.0, 1e-4);
}

TEST(ZeroTuneModelTest, SaveLoadRoundTrip) {
  ModelConfig cfg;
  cfg.seed = 11;
  ZeroTuneModel a(cfg);
  TargetStats stats;
  stats.latency_mean = 2.5;
  a.set_target_stats(stats);
  const std::string path = ::testing::TempDir() + "/zt_model_test.txt";
  ASSERT_TRUE(a.Save(path).ok());

  ModelConfig cfg2;
  cfg2.seed = 999;  // different init; Load must overwrite
  ZeroTuneModel b(cfg2);
  ASSERT_TRUE(b.Load(path).ok());
  EXPECT_DOUBLE_EQ(b.target_stats().latency_mean, 2.5);
  const PlanGraph g = BuildPlanGraph(SmallPlan());
  EXPECT_DOUBLE_EQ(ForwardGraph(a, g)(0, 1), ForwardGraph(b, g)(0, 1));
  std::remove(path.c_str());
}

TEST(ZeroTuneModelTest, VersionRoundTripsThroughSaveLoad) {
  ModelConfig cfg;
  cfg.hidden_dim = 16;
  ZeroTuneModel a(cfg);
  a.set_version(42);
  const std::string path = ::testing::TempDir() + "/zt_model_version.txt";
  ASSERT_TRUE(a.Save(path).ok());

  ZeroTuneModel b(cfg);
  EXPECT_EQ(b.version(), 0u);
  ASSERT_TRUE(b.Load(path).ok());
  EXPECT_EQ(b.version(), 42u);

  auto c = ZeroTuneModel::LoadFromFile(path);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value()->version(), 42u);
  std::remove(path.c_str());
}

TEST(ZeroTuneModelTest, PreVersioningFilesLoadAsVersionZero) {
  // A file saved before the model-version line existed must still load
  // (the metadata line is optional) and report version 0.
  ModelConfig cfg;
  cfg.hidden_dim = 16;
  ZeroTuneModel a(cfg);
  const std::string path = ::testing::TempDir() + "/zt_model_unversioned.txt";
  ASSERT_TRUE(a.Save(path).ok());
  // Strip the "model-version N" line to simulate the old format.
  std::ifstream in(path);
  std::string line, stripped;
  while (std::getline(in, line)) {
    if (line.rfind("model-version ", 0) == 0) continue;
    stripped += line + "\n";
  }
  in.close();
  std::ofstream(path) << stripped;

  ZeroTuneModel b(cfg);
  b.set_version(7);  // Load must reset, not keep, the in-memory version
  ASSERT_TRUE(b.Load(path).ok());
  EXPECT_EQ(b.version(), 0u);
  std::remove(path.c_str());
}

TEST(ZeroTuneModelTest, LoadRejectsHiddenDimMismatch) {
  ModelConfig small;
  small.hidden_dim = 16;
  ZeroTuneModel a(small);
  const std::string path = ::testing::TempDir() + "/zt_model_mismatch.txt";
  ASSERT_TRUE(a.Save(path).ok());
  ZeroTuneModel b;  // default 48
  EXPECT_FALSE(b.Load(path).ok());
  std::remove(path.c_str());
}

TEST(ZeroTuneModelTest, PredictFailsOnInvalidPlan) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 100;
  s.schema = dsp::TupleSchema::Uniform(1, dsp::DataType::kInt);
  q.AddSource(s);  // no sink
  ParallelQueryPlan p(q, Cluster::Homogeneous("m510", 1).value());
  ZeroTuneModel model;
  const Result<CostPrediction> r = model.Predict(p);
  ASSERT_FALSE(r.ok());
  // The plan's own validation error, without the batch engine's
  // "PredictBatch: plan #0 of 1" annotation.
  const Status invalid = p.Validate();
  EXPECT_EQ(r.status().code(), invalid.code());
  EXPECT_EQ(r.status().message(), invalid.message());
}

TEST(ZeroTuneModelTest, AblationConfigChangesPrediction) {
  ModelConfig all_cfg;
  all_cfg.seed = 3;
  ModelConfig op_cfg;
  op_cfg.seed = 3;
  op_cfg.features = FeatureConfig::OperatorOnly();
  ZeroTuneModel all_model(all_cfg), op_model(op_cfg);
  // Same weights (same seed), different feature masks: the raw forward
  // outputs on a parallelism-heavy plan must differ (Predict() may clamp
  // both to zero for an untrained network, so compare pre-decode).
  const auto plan = SmallPlan(8);
  const auto ga = BuildPlanGraph(plan, all_cfg.features);
  const auto go = BuildPlanGraph(plan, op_cfg.features);
  EXPECT_NE(ForwardGraph(all_model, ga)(0, 0),
            ForwardGraph(op_model, go)(0, 0));
}

TEST(ZeroTuneModelTest, ForwardWorksOnPerInstanceGraphs) {
  // The GNN must handle the per-instance encoding (graph ablation).
  ModelConfig cfg;
  cfg.features = FeatureConfig::PerInstance();
  ZeroTuneModel model(cfg);
  const PlanGraph g = BuildPlanGraph(SmallPlan(6), cfg.features);
  const nn::Matrix out = ForwardGraph(model, g);
  EXPECT_EQ(out.cols(), 2u);
}

TEST(ZeroTuneModelTest, ParameterCountReasonable) {
  ZeroTuneModel model;
  // 8 MLP blocks of ~(in×48 + 48 + 48×48 + 48) parameters each.
  EXPECT_GT(model.params().num_parameters(), 10000u);
  EXPECT_LT(model.params().num_parameters(), 200000u);
}

}  // namespace
}  // namespace zerotune::core
