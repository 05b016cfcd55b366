#include "core/explain.h"

#include <gtest/gtest.h>

#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "core/train_batch.h"
#include "core/trainer.h"
#include "workload/generator.h"

namespace zerotune::core {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    OptiSampleEnumerator enumerator;
    DatasetBuilderOptions opts;
    opts.count = 200;
    opts.seed = 404;
    corpus_ = new workload::Dataset(
        BuildDataset(enumerator, opts).value());
    model_ = new ZeroTuneModel([] {
      ModelConfig cfg;
      cfg.hidden_dim = 16;
      return cfg;
    }());
    Rng rng(2);
    workload::Dataset train, val, test;
    ASSERT_TRUE(corpus_->Split(0.9, 0.1, &rng, &train, &val, &test).ok());
    TrainOptions topts;
    topts.epochs = 10;
    ASSERT_TRUE(Trainer(model_, topts).Train(train, val).ok());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete model_;
  }

  static workload::Dataset* corpus_;
  static ZeroTuneModel* model_;
};

workload::Dataset* ExplainTest::corpus_ = nullptr;
ZeroTuneModel* ExplainTest::model_ = nullptr;

TEST_F(ExplainTest, ProducesRankedAttributions) {
  PredictionExplainer explainer(model_);
  const auto attrs = explainer.Explain(corpus_->sample(0).plan);
  ASSERT_TRUE(attrs.ok()) << attrs.status().ToString();
  ASSERT_FALSE(attrs.value().empty());
  // Sorted by descending combined impact.
  for (size_t i = 1; i < attrs.value().size(); ++i) {
    const auto& a = attrs.value()[i - 1];
    const auto& b = attrs.value()[i];
    EXPECT_GE(std::abs(a.latency_impact) + std::abs(a.throughput_impact),
              std::abs(b.latency_impact) + std::abs(b.throughput_impact));
  }
}

TEST_F(ExplainTest, TopKLimitRespected) {
  PredictionExplainer::Options opts;
  opts.top_k = 3;
  PredictionExplainer explainer(model_, opts);
  const auto attrs = explainer.Explain(corpus_->sample(1).plan).value();
  EXPECT_LE(attrs.size(), 3u);
}

TEST_F(ExplainTest, AttributionsReferenceRealFeatures) {
  PredictionExplainer explainer(model_);
  const auto attrs = explainer.Explain(corpus_->sample(2).plan).value();
  const auto names = FeatureEncoder::OperatorFeatureNames();
  for (const auto& a : attrs) {
    EXPECT_NE(std::find(names.begin(), names.end(), a.feature_name),
              names.end())
        << a.feature_name;
    EXPECT_NE(a.feature_value, 0.0);
    EXPECT_GE(a.operator_id, 0);
  }
}

TEST_F(ExplainTest, RateFeaturesMatterForLoadedPlans) {
  // On a trained model, occluding the source's event-rate feature should
  // register among the attributions of a rate-driven plan.
  PredictionExplainer::Options opts;
  opts.top_k = 0;  // all
  PredictionExplainer explainer(model_, opts);
  const auto attrs = explainer.Explain(corpus_->sample(0).plan).value();
  bool saw_rate = false;
  for (const auto& a : attrs) {
    if (a.feature_name.find("rate") != std::string::npos) saw_rate = true;
  }
  EXPECT_TRUE(saw_rate);
}

TEST_F(ExplainTest, ToTextRendersEveryRow) {
  PredictionExplainer explainer(model_);
  const auto attrs = explainer.Explain(corpus_->sample(0).plan).value();
  const std::string text = PredictionExplainer::ToText(attrs);
  EXPECT_NE(text.find("op"), std::string::npos);
  EXPECT_NE(text.find("latency"), std::string::npos);
  size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, attrs.size());
}

TEST_F(ExplainTest, ChunkedOcclusionEqualsOnePass) {
  // A six-way join on 16 nodes has several TrainBatch chunks' worth of
  // non-zero feature slots. Every attribution must equal (==) the one it
  // gets when the base graph and all occluded copies run in one pass.
  workload::QueryGenerator::Options gen_options;
  gen_options.overrides.num_workers = 16;
  workload::QueryGenerator gen(gen_options, 61);
  workload::GeneratedQuery q =
      gen.Generate(workload::QueryStructure::kSixWayJoin).value();
  dsp::ParallelQueryPlan plan(std::move(q.plan), std::move(q.cluster));
  Rng rng(61);
  ASSERT_TRUE(OptiSampleEnumerator().Assign(&plan, &rng).ok());

  PredictionExplainer::Options opts;
  opts.top_k = 0;  // all
  const auto attrs = PredictionExplainer(model_, opts).Explain(plan).value();

  const PlanGraph graph = BuildPlanGraph(plan, model_->config().features);
  const auto names = FeatureEncoder::OperatorFeatureNames();
  std::vector<PlanGraph> copies = {graph};
  std::vector<std::pair<int, std::string>> keys;
  for (size_t node = 0; node < graph.num_operators(); ++node) {
    for (size_t slot = 0; slot < graph.operator_features[node].size();
         ++slot) {
      if (graph.operator_features[node][slot] == 0.0) continue;
      copies.push_back(graph);
      copies.back().operator_features[node][slot] = 0.0;
      keys.emplace_back(static_cast<int>(node), names.at(slot));
    }
  }
  ASSERT_GT(keys.size(), 2 * kEvalChunk);
  ASSERT_EQ(attrs.size(), keys.size());
  std::vector<const PlanGraph*> all;
  for (const PlanGraph& g : copies) all.push_back(&g);
  const nn::Matrix out = TrainBatch(*model_, all).outputs();

  for (const FeatureAttribution& a : attrs) {
    const auto it = std::find(keys.begin(), keys.end(),
                              std::make_pair(a.operator_id, a.feature_name));
    ASSERT_NE(it, keys.end()) << a.operator_id << " " << a.feature_name;
    const size_t row = static_cast<size_t>(it - keys.begin()) + 1;
    EXPECT_EQ(a.latency_impact, out(0, 0) - out(row, 0))
        << a.operator_id << " " << a.feature_name;
    EXPECT_EQ(a.throughput_impact, out(0, 1) - out(row, 1))
        << a.operator_id << " " << a.feature_name;
  }
}

TEST_F(ExplainTest, InvalidPlanRejected) {
  dsp::QueryPlan q;
  q.AddSource({100.0, dsp::TupleSchema::Uniform(1, dsp::DataType::kInt)});
  dsp::ParallelQueryPlan p(q, dsp::Cluster::Homogeneous("m510", 1).value());
  PredictionExplainer explainer(model_);
  EXPECT_FALSE(explainer.Explain(p).ok());
}

}  // namespace
}  // namespace zerotune::core
