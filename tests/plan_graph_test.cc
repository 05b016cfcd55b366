#include "core/plan_graph.h"

#include <gtest/gtest.h>

namespace zerotune::core {
namespace {

using dsp::Cluster;
using dsp::ParallelQueryPlan;
using dsp::QueryPlan;

/// Data-flow edges of `g`: one per upstream-list entry.
size_t DataEdges(const PlanGraph& g) {
  size_t edges = 0;
  for (const auto& ups : g.operator_upstreams) edges += ups.size();
  return edges;
}

/// Checks that every data-flow edge runs forward in `g.topo_order`.
void ExpectEdgesFollowTopoOrder(const PlanGraph& g) {
  std::vector<size_t> pos(g.num_operators());
  for (size_t i = 0; i < g.topo_order.size(); ++i) {
    pos[static_cast<size_t>(g.topo_order[i])] = i;
  }
  for (size_t down = 0; down < g.num_operators(); ++down) {
    for (const int up : g.operator_upstreams[down]) {
      EXPECT_LT(pos[static_cast<size_t>(up)], pos[down]);
    }
  }
}

ParallelQueryPlan JoinPlan(int degree) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 2000;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kInt);
  const int s1 = q.AddSource(s);
  const int s2 = q.AddSource(s);
  const int j = q.AddWindowJoin(s1, s2, dsp::JoinProperties{}).value();
  ZT_CHECK_OK(q.AddSink(j));
  ParallelQueryPlan p(q, Cluster::Homogeneous("rs620", 3).value());
  EXPECT_TRUE(p.SetParallelism(j, degree).ok());
  p.DerivePartitioning();
  EXPECT_TRUE(p.PlaceRoundRobin().ok());
  return p;
}

TEST(PlanGraphTest, NodeAndEdgeCounts) {
  const auto p = JoinPlan(4);
  const PlanGraph g = BuildPlanGraph(p);
  EXPECT_EQ(g.num_operators(), 4u);
  EXPECT_EQ(g.num_resources(), 3u);
  // Data edges: s1->j, s2->j, j->sink.
  EXPECT_EQ(DataEdges(g), 3u);
  EXPECT_EQ(g.sink_index, 3);
}

TEST(PlanGraphTest, MappingEdgesOnePerHostingNode) {
  const auto p = JoinPlan(4);
  const PlanGraph g = BuildPlanGraph(p);
  // The join has 4 instances spread over 3 nodes: 3 distinct hosts.
  size_t join_edges = 0;
  for (const auto& e : g.mapping_edges) {
    if (e.operator_index == 2) ++join_edges;
  }
  EXPECT_EQ(join_edges, 3u);
  // Single-instance operators map to exactly one node.
  size_t src_edges = 0;
  for (const auto& e : g.mapping_edges) {
    if (e.operator_index == 0) ++src_edges;
  }
  EXPECT_EQ(src_edges, 1u);
}

TEST(PlanGraphTest, CollapsedRepresentationIndependentOfDegree) {
  // The paper's key design point: node count does not grow with the
  // parallelism degree (Sec. III-C2 option 2).
  const PlanGraph g1 = BuildPlanGraph(JoinPlan(1));
  const PlanGraph g64 = BuildPlanGraph(JoinPlan(16));
  EXPECT_EQ(g1.num_operators(), g64.num_operators());
  EXPECT_EQ(DataEdges(g1), DataEdges(g64));
}

TEST(PlanGraphTest, UpstreamsMirrorLogicalPlan) {
  const auto p = JoinPlan(2);
  const PlanGraph g = BuildPlanGraph(p);
  EXPECT_TRUE(g.operator_upstreams[0].empty());
  EXPECT_EQ(g.operator_upstreams[2].size(), 2u);
  EXPECT_EQ(g.operator_upstreams[3].size(), 1u);
}

TEST(PlanGraphTest, TopoOrderValid) {
  ExpectEdgesFollowTopoOrder(BuildPlanGraph(JoinPlan(2)));
}

TEST(PlanGraphTest, FeatureVectorsHaveDeclaredWidths) {
  const PlanGraph g = BuildPlanGraph(JoinPlan(2));
  for (const auto& f : g.operator_features) {
    EXPECT_EQ(f.size(), FeatureEncoder::OperatorDim());
  }
  for (const auto& f : g.resource_features) {
    EXPECT_EQ(f.size(), FeatureEncoder::ResourceDim());
  }
  for (const auto& e : g.mapping_edges) {
    EXPECT_EQ(e.features.size(), FeatureEncoder::MappingDim());
  }
}

TEST(PerInstanceGraphTest, NodeCountGrowsWithDegree) {
  const auto cfg = FeatureConfig::PerInstance();
  const PlanGraph g1 = BuildPlanGraph(JoinPlan(1), cfg);
  const PlanGraph g8 = BuildPlanGraph(JoinPlan(8), cfg);
  // 2 sources + join(P) + sink.
  EXPECT_EQ(g1.num_operators(), 4u);
  EXPECT_EQ(g8.num_operators(), 11u);
  EXPECT_GT(DataEdges(g8), DataEdges(g1));
}

TEST(PerInstanceGraphTest, HashShuffleIsAllPairs) {
  const auto cfg = FeatureConfig::PerInstance();
  const PlanGraph g = BuildPlanGraph(JoinPlan(4), cfg);
  // Each source instance (P=1) fans out to all 4 join instances; the sink
  // (P=1, rebalance) receives from all 4.
  // Edges: 2 sources ×4 + 4 join→sink = 12.
  EXPECT_EQ(DataEdges(g), 12u);
}

TEST(PerInstanceGraphTest, EveryInstanceHasOneMappingEdge) {
  const auto cfg = FeatureConfig::PerInstance();
  const PlanGraph g = BuildPlanGraph(JoinPlan(4), cfg);
  EXPECT_EQ(g.mapping_edges.size(), g.num_operators());
  for (const auto& e : g.mapping_edges) {
    EXPECT_DOUBLE_EQ(e.features[1], 1.0);  // full share per instance
  }
}

TEST(PerInstanceGraphTest, TopoOrderStillValid) {
  const auto cfg = FeatureConfig::PerInstance();
  ExpectEdgesFollowTopoOrder(BuildPlanGraph(JoinPlan(3), cfg));
}

TEST(PlanGraphTest, AblationMaskPropagates) {
  const auto p = JoinPlan(2);
  const PlanGraph g = BuildPlanGraph(p, FeatureConfig::OperatorOnly());
  for (const auto& f : g.resource_features) {
    for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

}  // namespace
}  // namespace zerotune::core
