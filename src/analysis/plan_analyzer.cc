#include "analysis/plan_analyzer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "analysis/segments.h"

namespace zerotune::analysis {

namespace {

using dsp::OperatorType;
using dsp::PartitioningStrategy;

/// Trained envelope of the paper's Table I parameter ranges; values
/// outside still predict, but transferability is not established there.
constexpr double kMinEventRate = 50.0;
constexpr double kMaxEventRate = 4e6;
constexpr double kMinWindowLength = 2.0;
constexpr double kMaxWindowLength = 1e4;

size_t ExpectedArity(OperatorType type) {
  switch (type) {
    case OperatorType::kSource: return 0;
    case OperatorType::kFilter: return 1;
    case OperatorType::kWindowAggregate: return 1;
    case OperatorType::kWindowJoin: return 2;
    case OperatorType::kSink: return 1;
  }
  return 0;
}

bool IsKeyed(const LintOperator& op) {
  return op.type == OperatorType::kWindowJoin ||
         (op.type == OperatorType::kWindowAggregate && op.keyed);
}

std::string Num(double v) {
  // Trim "50.000000" to "50" for readable messages.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return std::to_string(v);
}

/// Structural checks: ids, edges, DAG-ness, reachability.
void CheckStructure(const LintPlan& plan, DiagnosticReport* report) {
  std::unordered_map<int, size_t> index;
  for (size_t i = 0; i < plan.operators.size(); ++i) {
    const LintOperator& op = plan.operators[i];
    if (!index.emplace(op.id, i).second) {
      report->AddError("ZT-P004",
                       "duplicate operator id " + std::to_string(op.id),
                       op.id, op.name, "give every operator a unique id");
    }
  }

  size_t num_sources = 0;
  std::vector<int> sinks;
  for (const LintOperator& op : plan.operators) {
    if (op.type == OperatorType::kSource) ++num_sources;
    if (op.type == OperatorType::kSink) sinks.push_back(op.id);

    const size_t want = ExpectedArity(op.type);
    if (op.upstreams.size() != want) {
      report->AddError(
          "ZT-P008",
          std::string(dsp::ToString(op.type)) + " has " +
              std::to_string(op.upstreams.size()) + " upstream(s), expected " +
              std::to_string(want),
          op.id, op.name, "rewire the operator's inputs");
    }
    for (int u : op.upstreams) {
      if (index.count(u) == 0) {
        report->AddError("ZT-P005",
                         "upstream reference to unknown operator " +
                             std::to_string(u),
                         op.id, op.name,
                         "reference an operator declared in this plan");
      } else if (u == op.id) {
        report->AddError("ZT-P006", "operator consumes its own output",
                         op.id, op.name, "remove the self-loop");
      }
    }
  }
  if (num_sources == 0) {
    report->AddError("ZT-P002", "plan has no source operator", -1, "",
                     "add at least one source");
  }
  if (sinks.size() != 1) {
    report->AddError("ZT-P003",
                     "plan has " + std::to_string(sinks.size()) +
                         " sinks, expected exactly 1",
                     -1, "", "terminate the query in a single sink");
  }

  // Cycle detection (Kahn): repeatedly peel operators whose every valid
  // upstream is already peeled; whatever remains sits on a cycle.
  std::unordered_map<int, size_t> in_degree;
  std::unordered_map<int, std::vector<int>> downstream;
  for (const LintOperator& op : plan.operators) {
    in_degree.try_emplace(op.id, 0);
    for (int u : op.upstreams) {
      if (index.count(u) == 0 || u == op.id) continue;  // reported above
      ++in_degree[op.id];
      downstream[u].push_back(op.id);
    }
  }
  std::vector<int> frontier;
  for (const auto& [id, deg] : in_degree) {
    if (deg == 0) frontier.push_back(id);
  }
  size_t peeled = 0;
  while (!frontier.empty()) {
    const int id = frontier.back();
    frontier.pop_back();
    ++peeled;
    for (int d : downstream[id]) {
      if (--in_degree[d] == 0) frontier.push_back(d);
    }
  }
  if (peeled < in_degree.size()) {
    std::vector<int> cyclic;
    for (const auto& [id, deg] : in_degree) {
      if (deg > 0) cyclic.push_back(id);
    }
    std::sort(cyclic.begin(), cyclic.end());
    std::string ids;
    for (int id : cyclic) {
      if (!ids.empty()) ids += ",";
      ids += std::to_string(id);
    }
    report->AddError("ZT-P006",
                     "cycle in the operator graph involving operators {" +
                         ids + "}",
                     cyclic.front(), "",
                     "streaming plans must be DAGs; break the back edge");
  }

  // Reachability: every operator must feed (transitively) into the sink.
  if (sinks.size() == 1) {
    std::unordered_set<int> reaches;
    std::vector<int> stack = {sinks.front()};
    reaches.insert(sinks.front());
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      const auto it = index.find(id);
      if (it == index.end()) continue;
      for (int u : plan.operators[it->second].upstreams) {
        if (index.count(u) > 0 && reaches.insert(u).second) {
          stack.push_back(u);
        }
      }
    }
    for (const LintOperator& op : plan.operators) {
      if (reaches.count(op.id) == 0) {
        report->AddError("ZT-P007",
                         "operator output never reaches the sink", op.id,
                         op.name,
                         "connect it downstream or remove dead operators");
      }
    }
  }
}

/// Table I feature-range checks per operator.
void CheckFeatures(const LintPlan& plan, DiagnosticReport* report) {
  for (const LintOperator& op : plan.operators) {
    if (op.type == OperatorType::kSource) {
      if (!(op.event_rate > 0.0) || !std::isfinite(op.event_rate)) {
        report->AddError("ZT-P010",
                         "source event rate " + Num(op.event_rate) +
                             " must be positive and finite",
                         op.id, op.name, "set rate > 0");
      } else if (op.event_rate < kMinEventRate ||
                 op.event_rate > kMaxEventRate) {
        report->AddWarning(
            "ZT-P014",
            "event rate " + Num(op.event_rate) +
                " outside the trained envelope [" + Num(kMinEventRate) +
                ", " + Num(kMaxEventRate) + "]; predictions are extrapolating",
            op.id, op.name, "retrain with matching ranges or adjust the rate");
      }
      if (op.schema_width == 0) {
        report->AddError("ZT-P011", "source schema has no fields", op.id,
                         op.name, "declare at least one tuple field");
      }
    }
    if (op.has_selectivity &&
        (op.selectivity < 0.0 || op.selectivity > 1.0 ||
         !std::isfinite(op.selectivity))) {
      report->AddError("ZT-P009",
                       "selectivity " + std::to_string(op.selectivity) +
                           " outside [0, 1]",
                       op.id, op.name,
                       "selectivities are fractions of passing tuples");
    }
    if (op.has_window) {
      if (op.window.length <= 0.0 || op.window.slide <= 0.0) {
        report->AddError("ZT-P012",
                         "window length/slide must be positive (got length=" +
                             Num(op.window.length) +
                             ", slide=" + Num(op.window.slide) + ")",
                         op.id, op.name, "use positive window parameters");
      } else {
        if (op.window.type == dsp::WindowType::kTumbling &&
            op.window.slide != op.window.length) {
          report->AddWarning(
              "ZT-P013",
              "tumbling window with slide " + Num(op.window.slide) +
                  " != length " + Num(op.window.length),
              op.id, op.name,
              "tumbling windows slide by their full length; use a sliding "
              "window or set slide = length");
        }
        if (op.window.length < kMinWindowLength ||
            op.window.length > kMaxWindowLength) {
          report->AddWarning(
              "ZT-P014",
              "window length " + Num(op.window.length) +
                  " outside the trained envelope [" + Num(kMinWindowLength) +
                  ", " + Num(kMaxWindowLength) + "]",
              op.id, op.name,
              "retrain with matching ranges or adjust the window");
        }
      }
    }
  }
}

/// Parallelism / partitioning / placement checks against the cluster.
void CheckPhysical(const LintPlan& plan, DiagnosticReport* report) {
  if (plan.nodes.empty()) {
    report->AddError("ZT-P023", "deployment has no cluster nodes", -1, "",
                     "declare at least one cluster node");
  }
  const int total_cores = plan.TotalCores();

  std::unordered_map<int, const LintOperator*> by_id;
  for (const LintOperator& op : plan.operators) by_id.emplace(op.id, &op);

  // Instances mapped per node, for the oversubscription warning.
  std::unordered_map<int, int> node_load;

  for (const LintOperator& op : plan.operators) {
    if (op.parallelism < 1) {
      report->AddError("ZT-P015",
                       "parallelism " + std::to_string(op.parallelism) +
                           " must be >= 1",
                       op.id, op.name, "degrees start at 1");
    }
    if (total_cores > 0 && op.parallelism > total_cores) {
      report->AddError(
          "ZT-P016",
          "parallelism " + std::to_string(op.parallelism) +
              " exceeds the cluster's " + std::to_string(total_cores) +
              " total cores",
          op.id, op.name,
          "cap degrees at the cluster core count (paper Sec. III-C3)");
    }
    if (IsKeyed(op) && op.parallelism > 1 &&
        op.partitioning != PartitioningStrategy::kHash) {
      report->AddError(
          "ZT-P017",
          std::string("keyed ") + dsp::ToString(op.type) + " with degree " +
              std::to_string(op.parallelism) + " uses " +
              dsp::ToString(op.partitioning) + " partitioning",
          op.id, op.name,
          "keyed state requires hash partitioning when parallelized");
    }
    if (!IsKeyed(op) && op.type != OperatorType::kSource &&
        op.partitioning == PartitioningStrategy::kHash) {
      report->AddWarning(
          "ZT-P018",
          "hash partitioning on an operator without keyed state", op.id,
          op.name, "rebalance/forward avoids needless key shuffling");
    }
    if (op.partitioning == PartitioningStrategy::kForward &&
        op.type != OperatorType::kSource) {
      const LintOperator* up = op.upstreams.size() == 1
                                   ? (by_id.count(op.upstreams[0])
                                          ? by_id[op.upstreams[0]]
                                          : nullptr)
                                   : nullptr;
      if (up == nullptr || up->parallelism != op.parallelism) {
        report->AddWarning(
            "ZT-P019",
            "forward partitioning needs a single upstream with the same "
            "degree" +
                (up ? " (upstream degree " +
                          std::to_string(up->parallelism) + " != " +
                          std::to_string(op.parallelism) + ")"
                    : std::string()),
            op.id, op.name, "use rebalance or align the degrees");
      }
    }
    if (!op.instance_nodes.empty()) {
      if (static_cast<int>(op.instance_nodes.size()) != op.parallelism) {
        report->AddError(
            "ZT-P020",
            "placement lists " + std::to_string(op.instance_nodes.size()) +
                " instance nodes for degree " +
                std::to_string(op.parallelism),
            op.id, op.name, "place exactly one node per instance");
      }
      for (int n : op.instance_nodes) {
        if (n < 0 || n >= static_cast<int>(plan.nodes.size())) {
          report->AddError("ZT-P021",
                           "instance placed on unknown cluster node " +
                               std::to_string(n),
                           op.id, op.name,
                           "node indices address the cluster section");
        } else {
          ++node_load[n];
        }
      }
    }
    if ((op.type == OperatorType::kSource ||
         op.type == OperatorType::kSink) &&
        op.parallelism > 1) {
      report->AddWarning("ZT-P024",
                         std::string(dsp::ToString(op.type)) + " has degree " +
                             std::to_string(op.parallelism),
                         op.id, op.name,
                         "the paper pins sources and sinks at degree 1");
    }
  }

  for (const auto& [node, load] : node_load) {
    const int cores = plan.nodes[static_cast<size_t>(node)].cpu_cores;
    if (load > cores) {
      report->AddWarning(
          "ZT-P022",
          "node " + std::to_string(node) + " hosts " + std::to_string(load) +
              " operator instances on " + std::to_string(cores) + " cores",
          -1, "", "oversubscribed slots contend for CPU; spread placements");
    }
  }
}

/// ZT-P026: pattern-segment decomposition sanity. A segment with zero
/// processing operators (e.g. a bare source→sink "pipeline") carries no
/// tunable work, so the analytical prescreen tier cannot fit a cost
/// closure for it and parallelism tuning degenerates to a no-op. The
/// decomposition is skipped on structurally broken graphs — those are
/// ZT-P004..P008 territory.
void CheckSegments(const LintPlan& plan, DiagnosticReport* report) {
  const std::vector<PlanSegment> segments = DecomposeSegments(plan);
  for (const PlanSegment& seg : segments) {
    if (!seg.IsDegenerate()) continue;
    std::string ids;
    for (int id : seg.operator_ids) {
      if (!ids.empty()) ids += ",";
      ids += std::to_string(id);
    }
    report->AddWarning(
        "ZT-P026",
        std::string("degenerate ") + ToString(seg.kind) +
            " segment {" + ids + "} has no processing operators",
        seg.operator_ids.empty() ? -1 : seg.operator_ids.front(), "",
        "a segment of only sources/sinks gives the analytical cost tier "
        "nothing to model; add a filter/aggregate/join or merge the plan");
  }
}

}  // namespace

LintPlan LintPlan::FromLogical(const dsp::QueryPlan& plan) {
  LintPlan out;
  out.operators.reserve(plan.num_operators());
  for (const dsp::Operator& op : plan.operators()) {
    LintOperator lo;
    lo.id = op.id;
    lo.type = op.type;
    lo.name = op.name;
    lo.upstreams = plan.upstreams(op.id);
    switch (op.type) {
      case OperatorType::kSource:
        lo.event_rate = op.source.event_rate;
        lo.schema_width = op.source.schema.width();
        break;
      case OperatorType::kFilter:
        lo.selectivity = op.filter.selectivity;
        lo.has_selectivity = true;
        break;
      case OperatorType::kWindowAggregate:
        lo.selectivity = op.aggregate.selectivity;
        lo.has_selectivity = true;
        lo.window = op.aggregate.window;
        lo.has_window = true;
        lo.keyed = op.aggregate.keyed;
        break;
      case OperatorType::kWindowJoin:
        lo.selectivity = op.join.selectivity;
        lo.has_selectivity = true;
        lo.window = op.join.window;
        lo.has_window = true;
        lo.keyed = true;
        break;
      case OperatorType::kSink:
        break;
    }
    out.operators.push_back(std::move(lo));
  }
  return out;
}

LintPlan LintPlan::FromParallel(const dsp::ParallelQueryPlan& plan) {
  LintPlan out = FromLogical(plan.logical());
  out.nodes = plan.cluster().nodes();
  out.has_physical = true;
  for (LintOperator& lo : out.operators) {
    const dsp::OperatorPlacement& p = plan.placement(lo.id);
    lo.parallelism = p.parallelism;
    lo.partitioning = p.partitioning;
    lo.instance_nodes = p.instance_nodes;
  }
  return out;
}

int LintPlan::TotalCores() const {
  int total = 0;
  for (const dsp::NodeResources& n : nodes) total += n.cpu_cores;
  return total;
}

DiagnosticReport PlanAnalyzer::Analyze(const LintPlan& plan) {
  DiagnosticReport report;
  if (plan.operators.empty()) {
    report.AddError("ZT-P001", "plan has no operators", -1, "",
                    "declare at least a source and a sink");
    return report;
  }
  CheckStructure(plan, &report);
  CheckFeatures(plan, &report);
  CheckSegments(plan, &report);
  if (plan.has_physical) CheckPhysical(plan, &report);
  return report;
}

DiagnosticReport PlanAnalyzer::Analyze(const dsp::QueryPlan& plan) {
  return Analyze(LintPlan::FromLogical(plan));
}

DiagnosticReport PlanAnalyzer::Analyze(const dsp::ParallelQueryPlan& plan) {
  return Analyze(LintPlan::FromParallel(plan));
}

Status PlanAnalyzer::Check(const dsp::ParallelQueryPlan& plan) {
  return Analyze(plan).ToStatus();
}

}  // namespace zerotune::analysis
