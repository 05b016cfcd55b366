// Parameterized property tests: graph encoding and model invariants
// across all query structures (synthetic + benchmarks) and both graph
// representations.
#include <cmath>
#include <gtest/gtest.h>

#include "core/model.h"
#include "core/enumeration.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace zerotune::core {
namespace {

using workload::QueryStructure;

std::string StructureName(
    const ::testing::TestParamInfo<QueryStructure>& info) {
  std::string s = workload::ToString(info.param);
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

class ModelProperty : public ::testing::TestWithParam<QueryStructure> {
 protected:
  dsp::ParallelQueryPlan MakePlan(uint64_t seed = 0xcafe) {
    Rng rng(seed);
    workload::GeneratedQuery g = [&] {
      const QueryStructure s = GetParam();
      if (s == QueryStructure::kSpikeDetection ||
          s == QueryStructure::kSmartGridLocal ||
          s == QueryStructure::kSmartGridGlobal) {
        return workload::BenchmarkQueries::Build(s, {}, &rng).value();
      }
      workload::QueryGenerator gen({}, seed);
      return gen.Generate(s).value();
    }();
    dsp::ParallelQueryPlan plan(std::move(g.plan), std::move(g.cluster));
    OptiSampleEnumerator enumerator;
    EXPECT_TRUE(enumerator.Assign(&plan, &rng).ok());
    return plan;
  }
};

TEST_P(ModelProperty, GraphEncodingInvariants) {
  const auto plan = MakePlan();
  for (const FeatureConfig& cfg :
       {FeatureConfig::All(), FeatureConfig::OperatorOnly(),
        FeatureConfig::ParallelismAndResource(),
        FeatureConfig::PerInstance()}) {
    const PlanGraph g = BuildPlanGraph(plan, cfg);
    ASSERT_GT(g.num_operators(), 0u);
    EXPECT_EQ(g.num_resources(), plan.cluster().num_nodes());
    EXPECT_EQ(g.topo_order.size(), g.num_operators());
    EXPECT_GE(g.sink_index, 0);
    EXPECT_LT(static_cast<size_t>(g.sink_index), g.num_operators());
    for (const auto& f : g.operator_features) {
      ASSERT_EQ(f.size(), FeatureEncoder::OperatorDim());
      for (double v : f) EXPECT_TRUE(std::isfinite(v));
    }
    for (const auto& e : g.mapping_edges) {
      EXPECT_GE(e.operator_index, 0);
      EXPECT_LT(static_cast<size_t>(e.operator_index), g.num_operators());
      EXPECT_GE(e.resource_index, 0);
      EXPECT_LT(static_cast<size_t>(e.resource_index), g.num_resources());
    }
    // Every data edge respects the topological order.
    std::vector<size_t> pos(g.num_operators());
    for (size_t i = 0; i < g.topo_order.size(); ++i) {
      pos[static_cast<size_t>(g.topo_order[i])] = i;
    }
    for (size_t d = 0; d < g.num_operators(); ++d) {
      for (const int u : g.operator_upstreams[d]) {
        EXPECT_LT(pos[static_cast<size_t>(u)], pos[d]);
      }
    }
  }
}

TEST_P(ModelProperty, ForwardIsFiniteAndDeterministic) {
  const auto plan = MakePlan();
  ModelConfig cfg;
  cfg.hidden_dim = 16;
  cfg.seed = 3;
  ZeroTuneModel model(cfg);
  const PlanGraph g = BuildPlanGraph(plan, cfg.features);
  const nn::NodePtr a = model.Forward(g);
  const nn::NodePtr b = model.Forward(g);
  for (size_t i = 0; i < a->value.size(); ++i) {
    EXPECT_TRUE(std::isfinite(a->value.data()[i]));
    EXPECT_DOUBLE_EQ(a->value.data()[i], b->value.data()[i]);
  }
}

TEST_P(ModelProperty, PredictionsNonNegative) {
  const auto plan = MakePlan();
  ModelConfig cfg;
  cfg.hidden_dim = 16;
  ZeroTuneModel model(cfg);
  TargetStats stats;
  stats.latency_mean = 3.0;
  stats.throughput_mean = 8.0;
  model.set_target_stats(stats);
  const auto p = model.Predict(plan);
  ASSERT_TRUE(p.ok());
  EXPECT_GE(p.value().latency_ms, 0.0);
  EXPECT_GE(p.value().throughput_tps, 0.0);
}

TEST_P(ModelProperty, TargetRoundTripAcrossMagnitudes) {
  ModelConfig cfg;
  ZeroTuneModel model(cfg);
  TargetStats stats;
  stats.latency_mean = 4.0;
  stats.latency_std = 2.0;
  stats.throughput_mean = 9.0;
  stats.throughput_std = 3.0;
  model.set_target_stats(stats);
  for (double lat : {0.5, 50.0, 5000.0}) {
    for (double tpt : {100.0, 1e5, 4e6}) {
      const auto decoded = model.DecodeOutput(model.EncodeTarget(lat, tpt));
      EXPECT_NEAR(decoded.latency_ms / lat, 1.0, 1e-9);
      EXPECT_NEAR(decoded.throughput_tps / tpt, 1.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, ModelProperty,
    ::testing::Values(
        QueryStructure::kLinear, QueryStructure::kTwoWayJoin,
        QueryStructure::kThreeWayJoin, QueryStructure::kTwoChainedFilters,
        QueryStructure::kFourChainedFilters, QueryStructure::kFourWayJoin,
        QueryStructure::kSixWayJoin, QueryStructure::kSpikeDetection,
        QueryStructure::kSmartGridLocal, QueryStructure::kSmartGridGlobal),
    StructureName);

}  // namespace
}  // namespace zerotune::core
