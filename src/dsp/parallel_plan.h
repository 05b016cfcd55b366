#ifndef ZEROTUNE_DSP_PARALLEL_PLAN_H_
#define ZEROTUNE_DSP_PARALLEL_PLAN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "dsp/cluster.h"
#include "dsp/query_plan.h"

namespace zerotune::dsp {

/// Physical execution attributes of one logical operator.
struct OperatorPlacement {
  /// Number of parallel instances (paper: parallelism degree P_i >= 1).
  int parallelism = 1;
  /// How this operator's *input* is distributed over its instances.
  PartitioningStrategy partitioning = PartitioningStrategy::kRebalance;
  /// Cluster node index hosting each instance; size == parallelism after
  /// placement.
  std::vector<int> instance_nodes;
};

/// A parallel query plan (PQP): a logical plan plus per-operator
/// parallelism, partitioning, and instance→node placement on a cluster.
/// This is the object the cost model predicts for and the optimizer
/// searches over.
class ParallelQueryPlan {
 public:
  ParallelQueryPlan(QueryPlan logical, Cluster cluster);

  const QueryPlan& logical() const { return logical_; }
  const Cluster& cluster() const { return cluster_; }

  /// Sets the parallelism degree of an operator (clears its placement).
  Status SetParallelism(int op_id, int degree);
  /// Overrides the derived input partitioning of an operator.
  Status SetPartitioning(int op_id, PartitioningStrategy strategy);

  /// Sets all operators to the same degree (sources/sinks stay at 1 when
  /// `pin_endpoints`), then re-derives partitioning.
  Status SetUniformParallelism(int degree, bool pin_endpoints = true);

  /// Derives the input partitioning of every operator the way Flink does:
  /// keyed window operators get kHash; an operator with the same degree as
  /// its single upstream gets kForward; everything else gets kRebalance.
  void DerivePartitioning();

  /// Assigns operator instances to cluster nodes. Operators in the same
  /// chain are co-located instance-by-instance; chains are spread
  /// round-robin over node slots (one slot per core). Fails with
  /// FailedPrecondition when the cluster has no slot at all.
  Status PlaceRoundRobin();

  /// Structural checks: degrees >= 1, max degree <= total cluster cores,
  /// placements (if set) reference valid nodes, keyed windows use kHash.
  Status Validate() const;

  const OperatorPlacement& placement(int op_id) const {
    return placements_[static_cast<size_t>(op_id)];
  }
  int parallelism(int op_id) const {
    return placements_[static_cast<size_t>(op_id)].parallelism;
  }

  /// Parallelism degrees for all operators, indexed by operator id.
  std::vector<int> ParallelismVector() const;

  // --- Operator chaining (paper Sec. III-B1, Fig. 3) -----------------

  /// Chain id per operator. An operator joins its upstream's chain when it
  /// has exactly one upstream, that upstream has exactly one downstream,
  /// its input partitioning is kForward, and degrees are equal.
  std::vector<int> ComputeChains() const;

  /// Number of operators grouped in this operator's chain (the
  /// "grouping number" transferable feature; 1 = unchained).
  int GroupingNumber(int op_id) const;

  /// Grouping numbers for all operators, indexed by operator id. One
  /// chain computation for the whole plan — callers encoding every
  /// operator (the graph builders) use this instead of paying a full
  /// ComputeChains() per GroupingNumber(id) call.
  std::vector<int> GroupingNumbers() const;

  /// True when the operator executes in the same chain (same task slot) as
  /// its single upstream — no network/serialization cost on that edge.
  bool IsChainedWithUpstream(int op_id) const;

  /// Average parallelism degree across non-source/sink operators; the
  /// paper buckets queries by this value into XS/S/M/L/XL.
  double AvgParallelism() const;

  /// Paper Table III categories: 1<=XS<8, 8<=S<16, 16<=M<32, 32<=L<64,
  /// 64<=XL<128 (values >=128 also report "XL").
  static const char* ParallelismCategory(double avg_degree);

  std::string DebugString() const;

 private:
  QueryPlan logical_;
  Cluster cluster_;
  std::vector<OperatorPlacement> placements_;
};

}  // namespace zerotune::dsp

#endif  // ZEROTUNE_DSP_PARALLEL_PLAN_H_
