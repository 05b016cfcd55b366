#include "dsp/parallel_plan.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace zerotune::dsp {

ParallelQueryPlan::ParallelQueryPlan(QueryPlan logical, Cluster cluster)
    : logical_(std::move(logical)), cluster_(std::move(cluster)) {
  placements_.resize(logical_.num_operators());
  DerivePartitioning();
}

Status ParallelQueryPlan::SetParallelism(int op_id, int degree) {
  if (op_id < 0 || op_id >= static_cast<int>(placements_.size())) {
    return Status::InvalidArgument("operator id out of range");
  }
  if (degree < 1) {
    return Status::InvalidArgument("parallelism degree must be >= 1");
  }
  placements_[static_cast<size_t>(op_id)].parallelism = degree;
  placements_[static_cast<size_t>(op_id)].instance_nodes.clear();
  return Status::OK();
}

Status ParallelQueryPlan::SetPartitioning(int op_id,
                                          PartitioningStrategy strategy) {
  if (op_id < 0 || op_id >= static_cast<int>(placements_.size())) {
    return Status::InvalidArgument("operator id out of range");
  }
  placements_[static_cast<size_t>(op_id)].partitioning = strategy;
  return Status::OK();
}

Status ParallelQueryPlan::SetUniformParallelism(int degree,
                                                bool pin_endpoints) {
  for (const Operator& op : logical_.operators()) {
    const bool endpoint = op.type == OperatorType::kSource ||
                          op.type == OperatorType::kSink;
    ZT_RETURN_IF_ERROR(
        SetParallelism(op.id, endpoint && pin_endpoints ? 1 : degree));
  }
  DerivePartitioning();
  return Status::OK();
}

void ParallelQueryPlan::DerivePartitioning() {
  for (const Operator& op : logical_.operators()) {
    OperatorPlacement& p = placements_[static_cast<size_t>(op.id)];
    if (op.type == OperatorType::kSource) {
      p.partitioning = PartitioningStrategy::kForward;
      continue;
    }
    const bool keyed =
        op.type == OperatorType::kWindowJoin ||
        (op.type == OperatorType::kWindowAggregate && op.aggregate.keyed);
    if (keyed) {
      p.partitioning = PartitioningStrategy::kHash;
      continue;
    }
    const auto& ups = logical_.upstreams(op.id);
    if (ups.size() == 1 &&
        placements_[static_cast<size_t>(ups[0])].parallelism ==
            p.parallelism) {
      p.partitioning = PartitioningStrategy::kForward;
    } else {
      p.partitioning = PartitioningStrategy::kRebalance;
    }
  }
}

std::vector<int> ParallelQueryPlan::ComputeChains() const {
  std::vector<int> chain(logical_.num_operators(), -1);
  int next_chain = 0;
  for (int id : logical_.TopologicalOrder()) {
    const auto& ups = logical_.upstreams(id);
    const OperatorPlacement& p = placements_[static_cast<size_t>(id)];
    bool chained = false;
    if (ups.size() == 1 &&
        p.partitioning == PartitioningStrategy::kForward &&
        logical_.downstreams(ups[0]).size() == 1 &&
        placements_[static_cast<size_t>(ups[0])].parallelism ==
            p.parallelism) {
      chain[static_cast<size_t>(id)] = chain[static_cast<size_t>(ups[0])];
      chained = true;
    }
    if (!chained) chain[static_cast<size_t>(id)] = next_chain++;
  }
  return chain;
}

int ParallelQueryPlan::GroupingNumber(int op_id) const {
  const std::vector<int> chains = ComputeChains();
  const int my_chain = chains[static_cast<size_t>(op_id)];
  return static_cast<int>(
      std::count(chains.begin(), chains.end(), my_chain));
}

std::vector<int> ParallelQueryPlan::GroupingNumbers() const {
  const std::vector<int> chains = ComputeChains();
  // Chain ids are dense in [0, num_operators).
  std::vector<int> per_chain(chains.size(), 0);
  for (int c : chains) ++per_chain[static_cast<size_t>(c)];
  std::vector<int> out(chains.size());
  for (size_t i = 0; i < chains.size(); ++i) {
    out[i] = per_chain[static_cast<size_t>(chains[i])];
  }
  return out;
}

bool ParallelQueryPlan::IsChainedWithUpstream(int op_id) const {
  const auto& ups = logical_.upstreams(op_id);
  if (ups.size() != 1) return false;
  const std::vector<int> chains = ComputeChains();
  return chains[static_cast<size_t>(op_id)] ==
         chains[static_cast<size_t>(ups[0])];
}

Status ParallelQueryPlan::PlaceRoundRobin() {
  // One slot per core, interleaved across nodes so consecutive slots land
  // on different machines (Flink-style slot spreading).
  std::vector<int> slots;
  int max_cores = 0;
  for (const NodeResources& n : cluster_.nodes()) {
    max_cores = std::max(max_cores, n.cpu_cores);
  }
  for (int c = 0; c < max_cores; ++c) {
    for (size_t nidx = 0; nidx < cluster_.num_nodes(); ++nidx) {
      if (c < cluster_.node(nidx).cpu_cores) {
        slots.push_back(static_cast<int>(nidx));
      }
    }
  }
  if (slots.empty()) {
    return Status::FailedPrecondition("cluster has no cores");
  }

  const std::vector<int> chains = ComputeChains();
  const int num_chains =
      chains.empty() ? 0 : *std::max_element(chains.begin(), chains.end()) + 1;

  // All operators in a chain share one set of slots (they run in the same
  // task). Assign each chain a contiguous run of slots, wrapping around.
  std::vector<std::vector<int>> chain_nodes(static_cast<size_t>(num_chains));
  size_t cursor = 0;
  for (int c = 0; c < num_chains; ++c) {
    int degree = 0;
    for (const Operator& op : logical_.operators()) {
      if (chains[static_cast<size_t>(op.id)] == c) {
        degree = std::max(degree,
                          placements_[static_cast<size_t>(op.id)].parallelism);
      }
    }
    auto& nodes = chain_nodes[static_cast<size_t>(c)];
    nodes.reserve(static_cast<size_t>(degree));
    for (int i = 0; i < degree; ++i) {
      nodes.push_back(slots[cursor % slots.size()]);
      ++cursor;
    }
  }

  for (const Operator& op : logical_.operators()) {
    OperatorPlacement& p = placements_[static_cast<size_t>(op.id)];
    const auto& nodes = chain_nodes[static_cast<size_t>(
        chains[static_cast<size_t>(op.id)])];
    p.instance_nodes.assign(nodes.begin(),
                            nodes.begin() + p.parallelism);
  }
  return Status::OK();
}

Status ParallelQueryPlan::Validate() const {
  ZT_RETURN_IF_ERROR(logical_.Validate());
  const int total_cores = cluster_.TotalCores();
  for (const Operator& op : logical_.operators()) {
    const OperatorPlacement& p = placements_[static_cast<size_t>(op.id)];
    if (p.parallelism < 1) {
      return Status::InvalidArgument("operator " + op.name +
                                     " has parallelism < 1");
    }
    if (p.parallelism > total_cores) {
      return Status::InvalidArgument(
          "operator " + op.name + " parallelism " +
          std::to_string(p.parallelism) + " exceeds total cores " +
          std::to_string(total_cores));
    }
    const bool keyed =
        op.type == OperatorType::kWindowJoin ||
        (op.type == OperatorType::kWindowAggregate && op.aggregate.keyed);
    if (keyed && p.parallelism > 1 &&
        p.partitioning != PartitioningStrategy::kHash) {
      return Status::InvalidArgument("keyed operator " + op.name +
                                     " requires hash partitioning");
    }
    if (!p.instance_nodes.empty()) {
      if (static_cast<int>(p.instance_nodes.size()) != p.parallelism) {
        return Status::InvalidArgument("operator " + op.name +
                                       " placement size != parallelism");
      }
      for (int n : p.instance_nodes) {
        if (n < 0 || n >= static_cast<int>(cluster_.num_nodes())) {
          return Status::InvalidArgument("operator " + op.name +
                                         " placed on invalid node");
        }
      }
    }
  }
  return Status::OK();
}

std::vector<int> ParallelQueryPlan::ParallelismVector() const {
  std::vector<int> out(placements_.size());
  for (size_t i = 0; i < placements_.size(); ++i) {
    out[i] = placements_[i].parallelism;
  }
  return out;
}

double ParallelQueryPlan::AvgParallelism() const {
  double sum = 0.0;
  int count = 0;
  for (const Operator& op : logical_.operators()) {
    if (op.type == OperatorType::kSource || op.type == OperatorType::kSink) {
      continue;
    }
    sum += placements_[static_cast<size_t>(op.id)].parallelism;
    ++count;
  }
  if (count == 0) return 1.0;
  return sum / count;
}

const char* ParallelQueryPlan::ParallelismCategory(double avg_degree) {
  if (avg_degree < 8.0) return "XS";
  if (avg_degree < 16.0) return "S";
  if (avg_degree < 32.0) return "M";
  if (avg_degree < 64.0) return "L";
  return "XL";
}

std::string ParallelQueryPlan::DebugString() const {
  std::ostringstream os;
  const std::vector<int> chains = ComputeChains();
  os << "ParallelQueryPlan{\n";
  for (const Operator& op : logical_.operators()) {
    const OperatorPlacement& p = placements_[static_cast<size_t>(op.id)];
    os << "  [" << op.id << "] " << op.name << " P=" << p.parallelism
       << " part=" << ToString(p.partitioning)
       << " chain=" << chains[static_cast<size_t>(op.id)] << " nodes=(";
    for (size_t i = 0; i < p.instance_nodes.size(); ++i) {
      if (i > 0) os << ",";
      os << p.instance_nodes[i];
    }
    os << ")\n";
  }
  os << "}";
  return os.str();
}

}  // namespace zerotune::dsp
