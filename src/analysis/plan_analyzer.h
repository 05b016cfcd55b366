#ifndef ZEROTUNE_ANALYSIS_PLAN_ANALYZER_H_
#define ZEROTUNE_ANALYSIS_PLAN_ANALYZER_H_

#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "dsp/cluster.h"
#include "dsp/parallel_plan.h"
#include "dsp/query_plan.h"
#include "dsp/types.h"

namespace zerotune::analysis {

/// One operator as the linter sees it. Unlike dsp::QueryPlan — whose
/// builder API makes dangling references and cycles unconstructible — this
/// representation stores the graph exactly as written, so the analyzer can
/// diagnose malformed plans the strict loader would refuse to even build.
struct LintOperator {
  int id = -1;
  dsp::OperatorType type = dsp::OperatorType::kSource;
  std::string name;
  std::vector<int> upstreams;

  // Logical payload; which fields are meaningful depends on `type`.
  double event_rate = 0.0;   // source
  size_t schema_width = 0;   // source
  double selectivity = 1.0;  // filter / aggregate / join
  bool has_selectivity = false;
  dsp::WindowSpec window;  // aggregate / join
  bool has_window = false;
  bool keyed = false;  // aggregate keyed flag; joins are always keyed

  // Physical deployment. Defaults describe an undeployed operator.
  int parallelism = 1;
  dsp::PartitioningStrategy partitioning =
      dsp::PartitioningStrategy::kRebalance;
  std::vector<int> instance_nodes;
};

/// A plan in analyzer form: raw operators plus (optionally) the cluster
/// and deployment. Built from in-memory plans or by the tolerant parser
/// in analysis/plan_linter.h.
struct LintPlan {
  std::vector<LintOperator> operators;
  std::vector<dsp::NodeResources> nodes;
  /// True when the plan carries cluster/deployment sections; physical
  /// checks are skipped for purely logical plans.
  bool has_physical = false;

  static LintPlan FromLogical(const dsp::QueryPlan& plan);
  static LintPlan FromParallel(const dsp::ParallelQueryPlan& plan);

  int TotalCores() const;
};

/// Static semantic verification of query plans (paper Table I invariants
/// plus DAG well-formedness). Runs without executing or featurizing
/// anything and never stops at the first defect: one pass reports every
/// finding. Codes are stable; see docs/static_analysis.md for the catalog.
///
///   ZT-P001 empty plan                      ZT-P014 feature out of envelope
///   ZT-P002 no source                       ZT-P015 parallelism < 1
///   ZT-P003 sink count != 1                 ZT-P016 parallelism > cluster cores
///   ZT-P004 duplicate operator id           ZT-P017 keyed op not hash-partitioned
///   ZT-P005 dangling reference              ZT-P018 hash on non-keyed op
///   ZT-P006 cycle in operator graph         ZT-P019 forward with mismatched degrees
///   ZT-P007 operator cannot reach the sink  ZT-P020 placement size != parallelism
///   ZT-P008 wrong upstream arity            ZT-P021 placement on invalid node
///   ZT-P009 selectivity outside [0,1]       ZT-P022 node oversubscribed
///   ZT-P010 non-finite or <= 0 event rate   ZT-P023 cluster has no cores
///   ZT-P011 empty source schema             ZT-P024 source/sink parallelism > 1
///   ZT-P012 non-finite or <= 0 window       ZT-P025 unparseable plan line
///   ZT-P013 tumbling slide != length        ZT-P026 degenerate plan segment
struct PlanAnalyzer {
  static DiagnosticReport Analyze(const LintPlan& plan);
  static DiagnosticReport Analyze(const dsp::QueryPlan& plan);
  static DiagnosticReport Analyze(const dsp::ParallelQueryPlan& plan);

  /// OK when `plan` has no error-severity findings; otherwise an
  /// InvalidArgument listing every error with its code. The form the
  /// serving admission gate uses on plans that arrive from outside.
  static Status Check(const dsp::ParallelQueryPlan& plan);
};

}  // namespace zerotune::analysis

#endif  // ZEROTUNE_ANALYSIS_PLAN_ANALYZER_H_
