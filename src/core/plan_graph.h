#ifndef ZEROTUNE_CORE_PLAN_GRAPH_H_
#define ZEROTUNE_CORE_PLAN_GRAPH_H_

#include <array>
#include <string>
#include <vector>

#include "core/features.h"
#include "dsp/parallel_plan.h"

namespace zerotune::core {

/// The paper's parallel graph representation (Sec. III-C2): one node per
/// *logical* operator (parallel instances collapsed, their aggregate
/// statistics encoded as node features), one node per physical resource,
/// and three edge families —
///   * data-flow edges between operator nodes (black), stored as each
///     operator's upstream list,
///   * links between resource nodes (orange): all pairs, left implicit
///     because no model reads them,
///   * operator→resource mapping edges, one per (operator, node) pair
///     hosting at least one instance, carrying per-instance mapping
///     features (green).
struct PlanGraph {
  struct MappingEdge {
    int operator_index = 0;  // index into operator_features
    int resource_index = 0;  // index into resource_features
    // Fixed MappingDim()-wide feature pair, inline so building a graph
    // costs no per-edge heap allocation (the batch engine builds one
    // graph per candidate on its hot path).
    std::array<double, 2> features{};
  };

  /// Feature vector per logical operator, indexed by operator id.
  std::vector<std::vector<double>> operator_features;
  /// Feature vector per cluster node.
  std::vector<std::vector<double>> resource_features;

  std::vector<MappingEdge> mapping_edges;

  /// Upstream operator ids per operator: the data-flow edges.
  std::vector<std::vector<int>> operator_upstreams;
  /// Topological order of operator indices (sources first).
  std::vector<int> topo_order;
  int sink_index = -1;

  size_t num_operators() const { return operator_features.size(); }
  size_t num_resources() const { return resource_features.size(); }
};

/// Builds the graph encoding of a placed parallel query plan with the
/// given feature configuration (feature groups can be masked for the
/// ablation study).
PlanGraph BuildPlanGraph(const dsp::ParallelQueryPlan& plan,
                         const FeatureConfig& config = FeatureConfig::All());

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_PLAN_GRAPH_H_
