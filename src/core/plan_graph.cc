#include "core/plan_graph.h"

#include <algorithm>
#include <cmath>

namespace zerotune::core {

namespace {

/// Option 1 of Sec. III-C2: every operator *instance* becomes a graph
/// node. Data-flow edges follow the partitioning (forward: i→i;
/// rebalance/hash: all instance pairs), and every instance maps to its
/// hosting resource. Node and edge counts grow with the parallelism
/// degree — the complexity blow-up the paper's analysis rejects; kept for
/// the representation ablation.
PlanGraph BuildPerInstanceGraph(const dsp::ParallelQueryPlan& plan,
                                const FeatureConfig& config) {
  PlanGraph g;
  const dsp::QueryPlan& q = plan.logical();
  // Rate and chain propagation walk the whole DAG; hoist them out of the
  // per-operator encoder calls (bit-identical, avoids O(V²)).
  std::vector<double> est_in, est_out;
  q.EstimatedRates(&est_in, &est_out);
  const std::vector<int> grouping = plan.GroupingNumbers();

  // Node index layout: contiguous blocks of instances per operator.
  std::vector<int> base(q.num_operators(), 0);
  int next = 0;
  for (const dsp::Operator& op : q.operators()) {
    base[static_cast<size_t>(op.id)] = next;
    next += plan.parallelism(op.id);
  }
  g.operator_features.resize(static_cast<size_t>(next));
  g.operator_upstreams.resize(static_cast<size_t>(next));

  for (const dsp::Operator& op : q.operators()) {
    const int degree = plan.parallelism(op.id);
    const std::vector<double> features = FeatureEncoder::EncodeOperator(
        plan, op.id, config, est_in, est_out, grouping);
    for (int i = 0; i < degree; ++i) {
      const int node = base[static_cast<size_t>(op.id)] + i;
      g.operator_features[static_cast<size_t>(node)] = features;
      // Instance-level data-flow edges from every upstream operator.
      for (int u : q.upstreams(op.id)) {
        const int up_degree = plan.parallelism(u);
        const auto strategy = plan.placement(op.id).partitioning;
        if (strategy == dsp::PartitioningStrategy::kForward &&
            up_degree == degree) {
          const int un = base[static_cast<size_t>(u)] + i;
          g.operator_upstreams[static_cast<size_t>(node)].push_back(un);
        } else {
          for (int k = 0; k < up_degree; ++k) {
            const int un = base[static_cast<size_t>(u)] + k;
            g.operator_upstreams[static_cast<size_t>(node)].push_back(un);
          }
        }
      }
    }
  }

  // Topological order: operators in plan order, instances within.
  for (int id : q.TopologicalOrder()) {
    for (int i = 0; i < plan.parallelism(id); ++i) {
      g.topo_order.push_back(base[static_cast<size_t>(id)] + i);
    }
  }
  g.sink_index = base[static_cast<size_t>(q.sink())];

  const size_t n_nodes = plan.cluster().num_nodes();
  for (size_t n = 0; n < n_nodes; ++n) {
    g.resource_features.push_back(
        FeatureEncoder::EncodeResource(plan, n, config));
  }

  // One mapping edge per instance to the node hosting it.
  const bool mapping_on =
      config.resource_features || config.parallelism_features;
  for (const dsp::Operator& op : q.operators()) {
    const auto& hosts = plan.placement(op.id).instance_nodes;
    const int degree = plan.parallelism(op.id);
    for (int i = 0; i < degree; ++i) {
      PlanGraph::MappingEdge e;
      e.operator_index = base[static_cast<size_t>(op.id)] + i;
      e.resource_index = hosts.empty()
                             ? static_cast<int>(static_cast<size_t>(i) %
                                                std::max<size_t>(1, n_nodes))
                             : hosts[static_cast<size_t>(i)];
      // One instance on this node, owning its full share.
      e.features = {mapping_on ? std::log1p(1.0) / 5.0 : 0.0,
                    mapping_on ? 1.0 : 0.0};
      g.mapping_edges.push_back(std::move(e));
    }
  }
  return g;
}

}  // namespace

PlanGraph BuildPlanGraph(const dsp::ParallelQueryPlan& plan,
                         const FeatureConfig& config) {
  if (config.per_instance_nodes) {
    return BuildPerInstanceGraph(plan, config);
  }
  PlanGraph g;
  const dsp::QueryPlan& q = plan.logical();
  // Hoisted rate and chain propagation, as in BuildPerInstanceGraph above.
  std::vector<double> est_in, est_out;
  q.EstimatedRates(&est_in, &est_out);
  const std::vector<int> grouping = plan.GroupingNumbers();

  g.operator_features.reserve(q.num_operators());
  g.operator_upstreams.reserve(q.num_operators());
  for (const dsp::Operator& op : q.operators()) {
    g.operator_features.push_back(FeatureEncoder::EncodeOperator(
        plan, op.id, config, est_in, est_out, grouping));
    g.operator_upstreams.push_back(q.upstreams(op.id));
  }
  g.topo_order = q.TopologicalOrder();
  g.sink_index = q.sink();

  const size_t n_nodes = plan.cluster().num_nodes();
  g.resource_features.reserve(n_nodes);
  for (size_t n = 0; n < n_nodes; ++n) {
    g.resource_features.push_back(
        FeatureEncoder::EncodeResource(plan, n, config));
  }

  // One mapping edge per (operator, hosting node) pair. When the plan is
  // unplaced, every operator maps to every node with its average share.
  std::vector<int> hosts;
  for (const dsp::Operator& op : q.operators()) {
    const auto& nodes = plan.placement(op.id).instance_nodes;
    hosts.assign(nodes.begin(), nodes.end());
    std::sort(hosts.begin(), hosts.end());
    hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
    if (hosts.empty()) {
      for (size_t n = 0; n < n_nodes; ++n) hosts.push_back(static_cast<int>(n));
    }
    for (int n : hosts) {
      PlanGraph::MappingEdge e;
      e.operator_index = op.id;
      e.resource_index = n;
      FeatureEncoder::EncodeMapping(plan, op.id, static_cast<size_t>(n),
                                    config, &e.features);
      g.mapping_edges.push_back(e);
    }
  }
  return g;
}

}  // namespace zerotune::core
