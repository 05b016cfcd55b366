// Tests for the static-analysis subsystem (analysis/): one fixture per
// plan diagnostic code ZT-Pxxx, the tolerant linter front end, and the
// GNN shape checker (ZT-Mxxx) including corrupted-model-file loads.
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostics.h"
#include "analysis/plan_analyzer.h"
#include "analysis/plan_linter.h"
#include "analysis/shape_checker.h"
#include "core/model.h"
#include "dsp/cluster.h"
#include "dsp/parallel_plan.h"
#include "dsp/query_plan.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace zerotune::analysis {
namespace {

// --- helpers ---------------------------------------------------------

DiagnosticReport Lint(const std::string& text) {
  std::istringstream is(text);
  return PlanLinter::Lint(is);
}

// A well-formed logical plan in the text format of dsp::PlanIO.
const char kLogicalText[] =
    "zerotune-plan-v1\n"
    "source id=0 rate=1000 schema=ddd\n"
    "filter id=1 in=0 fn=1 literal=2 sel=0.5\n"
    "aggregate id=2 in=1 fn=2 agg_class=2 key_class=1 keyed=1"
    " wtype=0 wpolicy=0 wlen=10 wslide=10 sel=0.1\n"
    "sink id=3 in=2\n";

// The same plan with a consistent single-node deployment.
const char kPhysicalSuffix[] =
    "cluster node=m510 cores=8 ghz=2 mem=64 net=10\n"
    "deploy id=0 p=1 part=1 nodes=0\n"
    "deploy id=1 p=2 part=1 nodes=0,0\n"
    "deploy id=2 p=2 part=2 nodes=0,0\n"
    "deploy id=3 p=1 part=1 nodes=0\n";

dsp::QueryPlan ValidLogicalPlan() {
  dsp::QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 1000.0;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  const int f = q.AddFilter(src, dsp::FilterProperties{}).value();
  const int a = q.AddWindowAggregate(f, dsp::AggregateProperties{}).value();
  ZT_CHECK_OK(q.AddSink(a));
  return q;
}

// --- clean plans stay clean ------------------------------------------

TEST(PlanAnalyzerTest, ValidLogicalTextIsClean) {
  const DiagnosticReport r = Lint(kLogicalText);
  EXPECT_TRUE(r.Clean()) << r.ToText();
}

TEST(PlanAnalyzerTest, ValidPhysicalTextIsClean) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) + kPhysicalSuffix);
  EXPECT_TRUE(r.Clean()) << r.ToText();
}

TEST(PlanAnalyzerTest, ValidQueryPlanObjectIsClean) {
  const DiagnosticReport r = PlanAnalyzer::Analyze(ValidLogicalPlan());
  EXPECT_TRUE(r.Clean()) << r.ToText();
}

TEST(PlanAnalyzerTest, ValidParallelPlanObjectIsClean) {
  dsp::ParallelQueryPlan plan(ValidLogicalPlan(),
                              dsp::Cluster::Homogeneous("m510", 2).value());
  ZT_CHECK_OK(plan.SetUniformParallelism(2));
  ZT_CHECK_OK(plan.PlaceRoundRobin());
  const DiagnosticReport r = PlanAnalyzer::Analyze(plan);
  EXPECT_TRUE(r.Clean()) << r.ToText();
  EXPECT_TRUE(PlanAnalyzer::Check(plan).ok());
}

// --- structural codes ------------------------------------------------

TEST(PlanAnalyzerTest, P001EmptyPlan) {
  const DiagnosticReport r = Lint("zerotune-plan-v1\n");
  EXPECT_TRUE(r.Has("ZT-P001"));
  EXPECT_TRUE(r.HasErrors());
}

TEST(PlanAnalyzerTest, P002NoSource) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "filter id=0 in=1 fn=1 literal=2 sel=0.5\n"
      "sink id=1 in=0\n");
  EXPECT_TRUE(r.Has("ZT-P002"));
}

TEST(PlanAnalyzerTest, P003NoSink) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "filter id=1 in=0 fn=1 literal=2 sel=0.5\n");
  EXPECT_TRUE(r.Has("ZT-P003"));
}

TEST(PlanAnalyzerTest, P003TwoSinks) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "sink id=1 in=0\n"
      "sink id=2 in=0\n");
  EXPECT_TRUE(r.Has("ZT-P003"));
}

TEST(PlanAnalyzerTest, P004DuplicateOperatorId) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "source id=0 rate=2000 schema=dd\n"
      "sink id=1 in=0\n");
  EXPECT_TRUE(r.Has("ZT-P004"));
}

TEST(PlanAnalyzerTest, P005DanglingReference) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "filter id=1 in=7 fn=1 literal=2 sel=0.5\n"
      "sink id=2 in=1\n");
  EXPECT_TRUE(r.Has("ZT-P005"));
}

TEST(PlanAnalyzerTest, P005DeployOnUnknownOperator) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "cluster node=m510 cores=8 ghz=2 mem=64"
                                  " net=10\n"
                                  "deploy id=42 p=2 part=1\n");
  EXPECT_TRUE(r.Has("ZT-P005"));
}

TEST(PlanAnalyzerTest, P006Cycle) {
  // 1 -> 2 -> 3 -> 1 with a detached source/sink pair keeping the other
  // checks quiet.
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "filter id=1 in=3 fn=1 literal=2 sel=0.5\n"
      "filter id=2 in=1 fn=1 literal=2 sel=0.5\n"
      "filter id=3 in=2 fn=1 literal=2 sel=0.5\n"
      "sink id=4 in=0\n");
  EXPECT_TRUE(r.Has("ZT-P006"));
}

TEST(PlanAnalyzerTest, P006SelfLoop) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "filter id=1 in=1 fn=1 literal=2 sel=0.5\n"
      "sink id=2 in=0\n");
  EXPECT_TRUE(r.Has("ZT-P006"));
}

TEST(PlanAnalyzerTest, P007UnreachableOperator) {
  // filter 1 consumes the source but nothing consumes the filter.
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "filter id=1 in=0 fn=1 literal=2 sel=0.5\n"
      "sink id=2 in=0\n");
  EXPECT_TRUE(r.Has("ZT-P007"));
}

TEST(PlanAnalyzerTest, P008WrongArity) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "join id=1 in=0 key_class=1 wtype=0 wpolicy=0 wlen=10 wslide=10"
      " sel=0.01\n"
      "sink id=2 in=1\n");
  EXPECT_TRUE(r.Has("ZT-P008"));
}

// --- feature-range codes ---------------------------------------------

TEST(PlanAnalyzerTest, P009SelectivityOutOfRange) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "filter id=1 in=0 fn=1 literal=2 sel=1.5\n"
      "sink id=2 in=1\n");
  EXPECT_TRUE(r.Has("ZT-P009"));
}

TEST(PlanAnalyzerTest, P010NonPositiveEventRate) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=0 schema=ddd\n"
      "sink id=1 in=0\n");
  EXPECT_TRUE(r.Has("ZT-P010"));
}

TEST(PlanAnalyzerTest, P011EmptySchema) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=\n"
      "sink id=1 in=0\n");
  EXPECT_TRUE(r.Has("ZT-P011"));
}

TEST(PlanAnalyzerTest, P012NonPositiveWindow) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "aggregate id=1 in=0 fn=2 agg_class=2 key_class=1 keyed=1"
      " wtype=0 wpolicy=0 wlen=0 wslide=0 sel=0.1\n"
      "sink id=2 in=1\n");
  EXPECT_TRUE(r.Has("ZT-P012"));
}

TEST(PlanAnalyzerTest, P013TumblingSlideMismatchIsWarning) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "aggregate id=1 in=0 fn=2 agg_class=2 key_class=1 keyed=1"
      " wtype=0 wpolicy=0 wlen=10 wslide=5 sel=0.1\n"
      "sink id=2 in=1\n");
  EXPECT_TRUE(r.Has("ZT-P013"));
  EXPECT_FALSE(r.HasErrors()) << r.ToText();
  EXPECT_GT(r.warning_count(), 0u);
}

TEST(PlanAnalyzerTest, P014RateOutsideTrainedEnvelopeIsWarning) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=5000000 schema=ddd\n"
      "sink id=1 in=0\n");
  EXPECT_TRUE(r.Has("ZT-P014"));
  EXPECT_FALSE(r.HasErrors()) << r.ToText();
}

// --- physical codes --------------------------------------------------

TEST(PlanAnalyzerTest, P015ParallelismBelowOne) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "cluster node=m510 cores=8 ghz=2 mem=64"
                                  " net=10\n"
                                  "deploy id=1 p=0 part=1\n");
  EXPECT_TRUE(r.Has("ZT-P015"));
}

TEST(PlanAnalyzerTest, P016ParallelismExceedsClusterCores) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "cluster node=m510 cores=4 ghz=2 mem=64"
                                  " net=10\n"
                                  "deploy id=1 p=64 part=1\n");
  EXPECT_TRUE(r.Has("ZT-P016"));
}

TEST(PlanAnalyzerTest, P017KeyedOperatorNotHashPartitioned) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "cluster node=m510 cores=8 ghz=2 mem=64"
                                  " net=10\n"
                                  "deploy id=2 p=4 part=1\n");
  EXPECT_TRUE(r.Has("ZT-P017"));
}

TEST(PlanAnalyzerTest, P018HashOnNonKeyedIsWarning) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "cluster node=m510 cores=8 ghz=2 mem=64"
                                  " net=10\n"
                                  "deploy id=1 p=2 part=2\n");
  EXPECT_TRUE(r.Has("ZT-P018"));
  EXPECT_FALSE(r.HasErrors()) << r.ToText();
}

TEST(PlanAnalyzerTest, P019ForwardDegreeMismatchIsWarning) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "cluster node=m510 cores=8 ghz=2 mem=64"
                                  " net=10\n"
                                  "deploy id=1 p=3 part=0\n");
  EXPECT_TRUE(r.Has("ZT-P019"));
}

TEST(PlanAnalyzerTest, P020PlacementSizeMismatch) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "cluster node=m510 cores=8 ghz=2 mem=64"
                                  " net=10\n"
                                  "deploy id=1 p=2 part=1 nodes=0\n");
  EXPECT_TRUE(r.Has("ZT-P020"));
}

TEST(PlanAnalyzerTest, P021PlacementOnInvalidNode) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "cluster node=m510 cores=8 ghz=2 mem=64"
                                  " net=10\n"
                                  "deploy id=1 p=2 part=1 nodes=0,7\n");
  EXPECT_TRUE(r.Has("ZT-P021"));
}

TEST(PlanAnalyzerTest, P022NodeOversubscribedIsWarning) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "cluster node=m510 cores=2 ghz=2 mem=64"
                                  " net=10\n"
                                  "deploy id=0 p=1 part=1 nodes=0\n"
                                  "deploy id=1 p=2 part=1 nodes=0,0\n"
                                  "deploy id=2 p=2 part=2 nodes=0,0\n"
                                  "deploy id=3 p=1 part=1 nodes=0\n");
  EXPECT_TRUE(r.Has("ZT-P022"));
}

TEST(PlanAnalyzerTest, P023DeploymentWithoutClusterNodes) {
  const DiagnosticReport r =
      Lint(std::string(kLogicalText) + "deploy id=1 p=2 part=1\n");
  EXPECT_TRUE(r.Has("ZT-P023"));
}

TEST(PlanAnalyzerTest, P024ParallelSourceIsWarning) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "cluster node=m510 cores=8 ghz=2 mem=64"
                                  " net=10\n"
                                  "deploy id=0 p=2 part=1\n");
  EXPECT_TRUE(r.Has("ZT-P024"));
}

TEST(PlanAnalyzerTest, P026BareSourceSinkSegmentIsWarning) {
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=dd\n"
      "sink id=1 in=0\n");
  EXPECT_TRUE(r.Has("ZT-P026"));
  EXPECT_FALSE(r.HasErrors());  // degenerate segments are warnings
}

TEST(PlanAnalyzerTest, P026AbsentOnPlansWithProcessingWork) {
  // A full pipeline has work in every terminal segment...
  EXPECT_FALSE(Lint(kLogicalText).Has("ZT-P026"));
  // ...and source-only pipelines feeding a join are the map side of the
  // task pool, not degenerate segments.
  const DiagnosticReport join = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=dd\n"
      "source id=1 rate=1000 schema=dd\n"
      "join id=2 in=0,1 key_class=1 wtype=0 wpolicy=0 wlen=10 wslide=10"
      " sel=0.1\n"
      "sink id=3 in=2\n");
  EXPECT_FALSE(join.Has("ZT-P026")) << join.ToText();
}

// --- linter front end ------------------------------------------------

TEST(PlanLinterTest, P025UnparseableLineKeepsRestOfPlan) {
  const DiagnosticReport r = Lint(std::string(kLogicalText) +
                                  "garbage this is not a plan line\n");
  EXPECT_TRUE(r.Has("ZT-P025"));
  // The well-formed part of the plan must still have been analyzed
  // without bogus follow-on findings.
  EXPECT_FALSE(r.Has("ZT-P002"));
  EXPECT_FALSE(r.Has("ZT-P005"));
}

TEST(PlanLinterTest, BadMagicIsSingleParseError) {
  const DiagnosticReport r = Lint("not-a-plan-file\n");
  EXPECT_TRUE(r.Has("ZT-P025"));
  EXPECT_TRUE(r.HasErrors());
}

TEST(PlanLinterTest, ReportsMultipleDefectsInOnePass) {
  // Cycle + over-parallelized + keyed aggregate on rebalance: all three
  // codes must surface from a single Lint() call (the acceptance demo).
  const DiagnosticReport r = Lint(
      "zerotune-plan-v1\n"
      "source id=0 rate=1000 schema=ddd\n"
      "filter id=1 in=3 fn=1 literal=2 sel=0.5\n"
      "aggregate id=2 in=1 fn=2 agg_class=2 key_class=1 keyed=1"
      " wtype=0 wpolicy=0 wlen=10 wslide=10 sel=0.1\n"
      "filter id=3 in=2 fn=1 literal=2 sel=0.5\n"
      "sink id=4 in=0\n"
      "cluster node=m510 cores=4 ghz=2 mem=64 net=10\n"
      "deploy id=1 p=64 part=1\n"
      "deploy id=2 p=8 part=1\n");
  EXPECT_TRUE(r.Has("ZT-P006")) << r.ToText();
  EXPECT_TRUE(r.Has("ZT-P016")) << r.ToText();
  EXPECT_TRUE(r.Has("ZT-P017")) << r.ToText();
}

TEST(PlanLinterTest, LintFileOnMissingPathIsIOError) {
  const auto r = PlanLinter::LintFile("/nonexistent/zt.plan");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(PlanLinterTest, FromParallelCarriesDeployment) {
  dsp::ParallelQueryPlan plan(ValidLogicalPlan(),
                              dsp::Cluster::Homogeneous("m510", 2).value());
  ZT_CHECK_OK(plan.SetUniformParallelism(4));
  ZT_CHECK_OK(plan.PlaceRoundRobin());
  const LintPlan lint = LintPlan::FromParallel(plan);
  EXPECT_TRUE(lint.has_physical);
  EXPECT_EQ(lint.nodes.size(), 2u);
  ASSERT_EQ(lint.operators.size(), plan.logical().num_operators());
  EXPECT_EQ(lint.operators[1].parallelism, 4);
  EXPECT_EQ(lint.operators[1].instance_nodes.size(), 4u);
}

TEST(PlanAnalyzerTest, CheckRejectsKeyedRebalance) {
  dsp::ParallelQueryPlan plan(ValidLogicalPlan(),
                              dsp::Cluster::Homogeneous("m510", 2).value());
  ZT_CHECK_OK(plan.SetUniformParallelism(4));
  ZT_CHECK_OK(
      plan.SetPartitioning(2, dsp::PartitioningStrategy::kRebalance));
  const Status s = PlanAnalyzer::Check(plan);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ZT-P017"), std::string::npos) << s.message();
}

TEST(PlanAnalyzerTest, P012NonFiniteWindowOnBuiltPlan) {
  dsp::QueryPlan q = ValidLogicalPlan();
  q.mutable_op(2).aggregate.window.length =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(PlanAnalyzer::Analyze(q).Has("ZT-P012"));
  q.mutable_op(2).aggregate.window.length = 10.0;
  q.mutable_op(2).aggregate.window.slide =
      std::numeric_limits<double>::infinity();
  EXPECT_TRUE(PlanAnalyzer::Analyze(q).Has("ZT-P012"));
}

TEST(PlanAnalyzerTest, P023ClusterWithoutCores) {
  dsp::NodeResources node;
  node.cpu_cores = 0;
  dsp::ParallelQueryPlan plan(ValidLogicalPlan(),
                              dsp::Cluster({node, node}));
  const DiagnosticReport r = PlanAnalyzer::Analyze(plan);
  EXPECT_TRUE(r.Has("ZT-P023")) << r.ToText();
  EXPECT_FALSE(PlanAnalyzer::Check(plan).ok());
}

// --- the analyzer agrees with Validate() on API-built plans ----------

// Every plan built the way ParallelismOptimizer::Tune builds a candidate:
// set every degree, derive partitioning, place round-robin. Placement
// fails only on a cluster without cores; the plan is kept unplaced then.
dsp::ParallelQueryPlan Materialize(const dsp::QueryPlan& q,
                                   const dsp::Cluster& cluster,
                                   const std::vector<int>& degrees) {
  dsp::ParallelQueryPlan plan(q, cluster);
  for (const dsp::Operator& op : q.operators()) {
    ZT_CHECK_OK(
        plan.SetParallelism(op.id, degrees[static_cast<size_t>(op.id)]));
  }
  plan.DerivePartitioning();
  const Status placed = plan.PlaceRoundRobin();
  if (cluster.TotalCores() > 0) {
    ZT_CHECK_OK(placed);
  } else {
    EXPECT_EQ(placed.code(), StatusCode::kFailedPrecondition);
  }
  return plan;
}

// Degree vectors like Tune's: uniform in range (endpoints pinned at 1
// or not), one operator past the core count, and uniform powers of two
// up to 1024 whatever the cluster.
std::vector<std::vector<int>> SweepDegrees(const dsp::QueryPlan& q,
                                           int cores) {
  const size_t n = q.num_operators();
  std::vector<std::vector<int>> out;
  auto uniform = [&](int d, bool pin_endpoints) {
    std::vector<int> v(n, d);
    for (const dsp::Operator& op : q.operators()) {
      if (pin_endpoints && (op.type == dsp::OperatorType::kSource ||
                            op.type == dsp::OperatorType::kSink)) {
        v[static_cast<size_t>(op.id)] = 1;
      }
    }
    return v;
  };
  const int cap = std::max(1, cores);
  for (int d : {1, 2, std::max(1, cap / 2), cap}) {
    out.push_back(uniform(d, true));
    out.push_back(uniform(d, false));
  }
  for (size_t i = 0; i < n; ++i) {
    for (int d : {cap + 1, 2 * cap}) {
      std::vector<int> v = uniform(1, true);
      v[i] = d;
      out.push_back(std::move(v));
    }
  }
  for (int d = 1; d <= 1024; d *= 2) out.push_back(uniform(d, true));
  return out;
}

// Copies of `q` with one field set to NaN or ±inf.
std::vector<dsp::QueryPlan> NonFiniteVariants(const dsp::QueryPlan& q) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<dsp::QueryPlan> out;
  for (const dsp::Operator& op : q.operators()) {
    for (double bad : {kNan, kInf, -kInf}) {
      auto vary = [&](auto&& set) {
        dsp::QueryPlan copy = q;
        set(copy.mutable_op(op.id));
        out.push_back(std::move(copy));
      };
      switch (op.type) {
        case dsp::OperatorType::kSource:
          vary([&](dsp::Operator& o) { o.source.event_rate = bad; });
          break;
        case dsp::OperatorType::kFilter:
          vary([&](dsp::Operator& o) { o.filter.selectivity = bad; });
          break;
        case dsp::OperatorType::kWindowAggregate:
          vary([&](dsp::Operator& o) { o.aggregate.selectivity = bad; });
          vary([&](dsp::Operator& o) { o.aggregate.window.length = bad; });
          vary([&](dsp::Operator& o) { o.aggregate.window.slide = bad; });
          break;
        case dsp::OperatorType::kWindowJoin:
          vary([&](dsp::Operator& o) { o.join.selectivity = bad; });
          vary([&](dsp::Operator& o) { o.join.window.length = bad; });
          vary([&](dsp::Operator& o) { o.join.window.slide = bad; });
          break;
        case dsp::OperatorType::kSink:
          break;
      }
    }
  }
  return out;
}

// ParallelismOptimizer::Tune checks its candidates with Validate() alone
// and leaves the analyzer to plans that come from outside, so the two
// must agree on every plan Tune can build: every query structure, in- and
// out-of-range degrees, non-finite fields and a cluster without cores.
TEST(PlanAnalyzerTest, CheckAgreesWithValidateOnBuiltPlans) {
  using workload::QueryStructure;
  std::vector<QueryStructure> structures = workload::TrainingStructures();
  for (const auto& more : {workload::UnseenSyntheticStructures(),
                           workload::BenchmarkStructures()}) {
    structures.insert(structures.end(), more.begin(), more.end());
  }
  size_t both_ok = 0;
  size_t both_fail = 0;
  for (const QueryStructure s : structures) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(workload::ToString(s)) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      const workload::GeneratedQuery g =
          s == QueryStructure::kSpikeDetection ||
                  s == QueryStructure::kSmartGridLocal ||
                  s == QueryStructure::kSmartGridGlobal
              ? workload::BenchmarkQueries::Build(s, {}, &rng).value()
              : workload::QueryGenerator({}, seed).Generate(s).value();
      std::vector<dsp::NodeResources> coreless = g.cluster.nodes();
      for (dsp::NodeResources& node : coreless) node.cpu_cores = 0;
      std::vector<dsp::QueryPlan> queries = NonFiniteVariants(g.plan);
      queries.insert(queries.begin(), g.plan);
      for (const dsp::Cluster& cluster :
           {g.cluster, dsp::Cluster(std::move(coreless))}) {
        const std::vector<std::vector<int>> sweep =
            SweepDegrees(g.plan, cluster.TotalCores());
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          const dsp::QueryPlan& q = queries[qi];
          // A non-finite copy fails whatever its degrees; two will do.
          const size_t num_degrees = qi == 0 ? sweep.size() : 2;
          for (size_t di = 0; di < num_degrees; ++di) {
            const dsp::ParallelQueryPlan plan =
                Materialize(q, cluster, sweep[di]);
            const bool valid = plan.Validate().ok();
            const Status checked = PlanAnalyzer::Check(plan);
            ASSERT_EQ(checked.ok(), valid)
                << checked.ToString() << "\n" << plan.DebugString();
            ++(valid ? both_ok : both_fail);
          }
        }
      }
    }
  }
  // The sweep covers both outcomes, not just one.
  EXPECT_GT(both_ok, 100u);
  EXPECT_GT(both_fail, 100u);
}

// --- diagnostics plumbing --------------------------------------------

TEST(DiagnosticReportTest, CountsAndStatus) {
  DiagnosticReport r;
  EXPECT_TRUE(r.Clean());
  EXPECT_TRUE(r.ToStatus().ok());
  r.AddWarning("ZT-P014", "just outside the envelope", 3, "src_3");
  EXPECT_FALSE(r.Clean());
  EXPECT_FALSE(r.HasErrors());
  EXPECT_TRUE(r.ToStatus().ok());
  r.AddError("ZT-P016", "too parallel", 1, "filter_1", "lower p");
  EXPECT_EQ(r.error_count(), 1u);
  EXPECT_EQ(r.warning_count(), 1u);
  const Status s = r.ToStatus();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ZT-P016"), std::string::npos);
}

TEST(DiagnosticReportTest, JsonContainsCodesAndCounts) {
  DiagnosticReport r;
  r.AddError("ZT-P005", "dangling ref", 2, "filter_2", "fix the edge");
  const std::string json = r.ToJson();
  EXPECT_NE(json.find("\"ZT-P005\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos) << json;
}

// --- shape checker ---------------------------------------------------

TEST(ShapeCheckerTest, M001ParameterCountMismatch) {
  GnnShapeSpec spec;
  spec.AddLinear("enc", 4, 8);
  std::istringstream is("zerotune-params-v1 5\n");
  const DiagnosticReport r = spec.VerifyParamStream(is);
  EXPECT_TRUE(r.Has("ZT-M001"));
}

TEST(ShapeCheckerTest, M002TruncatedStream) {
  GnnShapeSpec spec;
  spec.AddLinear("enc", 2, 2);
  // Header promises two tensors; the stream ends inside the first.
  std::istringstream is("zerotune-params-v1 2\n2 2 0.5 0.5\n");
  const DiagnosticReport r = spec.VerifyParamStream(is);
  EXPECT_TRUE(r.Has("ZT-M002"));
}

TEST(ShapeCheckerTest, M003NamesTheOffendingLayer) {
  GnnShapeSpec spec;
  spec.AddLinear("enc", 2, 2);
  std::ostringstream model;
  model << "zerotune-params-v1 2\n3 2 0 0 0 0 0 0\n1 2 0 0\n";
  std::istringstream is(model.str());
  const DiagnosticReport r = spec.VerifyParamStream(is);
  ASSERT_TRUE(r.Has("ZT-M003"));
  bool named = false;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.message.find("enc.linear0.weight") != std::string::npos ||
        d.message.find("enc.weight") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << r.ToText();
}

TEST(ShapeCheckerTest, M004BadHeader) {
  GnnShapeSpec spec;
  spec.AddLinear("enc", 2, 2);
  std::istringstream is("garbage\n");
  const DiagnosticReport r = spec.VerifyParamStream(is);
  EXPECT_TRUE(r.Has("ZT-M004"));
}

// --- shape checking wired into model load ----------------------------

class ModelFileShapeTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "zt_shape_" + name;
  }

  // Saves a small model and returns the file split into lines.
  std::vector<std::string> SaveModelLines(const std::string& path) {
    core::ModelConfig config;
    config.hidden_dim = 8;
    core::ZeroTuneModel model(config);
    ZT_CHECK_OK(model.Save(path));
    std::ifstream f(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(f, line)) lines.push_back(line);
    return lines;
  }

  void WriteLines(const std::string& path,
                  const std::vector<std::string>& lines) {
    std::ofstream f(path);
    for (const std::string& l : lines) f << l << "\n";
  }

  // Index of the "zerotune-params-v1 N" line.
  size_t ParamsHeaderIndex(const std::vector<std::string>& lines) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind("zerotune-params-v1", 0) == 0) return i;
    }
    ADD_FAILURE() << "no params header in model file";
    return 0;
  }
};

TEST_F(ModelFileShapeTest, DimensionCorruptedModelFailsWithNamedLayer) {
  const std::string path = TempPath("corrupt.model");
  std::vector<std::string> lines = SaveModelLines(path);
  const size_t header = ParamsHeaderIndex(lines);
  ASSERT_LT(header + 1, lines.size());
  // Corrupt the row count of the very first tensor — op_encoder's first
  // weight matrix — keeping the value payload as-is.
  std::istringstream dims(lines[header + 1]);
  size_t rows = 0, cols = 0;
  dims >> rows >> cols;
  std::string rest;
  std::getline(dims, rest);
  lines[header + 1] = std::to_string(rows + 1) + " " +
                      std::to_string(cols) + rest;
  WriteLines(path, lines);

  core::ModelConfig config;
  config.hidden_dim = 8;
  core::ZeroTuneModel model(config);
  const Status s = model.Load(path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ZT-M003"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("op_encoder"), std::string::npos) << s.message();
}

TEST_F(ModelFileShapeTest, TruncatedModelFailsWithTruncationDiagnostic) {
  const std::string path = TempPath("truncated.model");
  std::vector<std::string> lines = SaveModelLines(path);
  const size_t header = ParamsHeaderIndex(lines);
  ASSERT_LT(header + 2, lines.size());
  // Keep the header and the first tensor; drop the rest of the stream.
  lines.resize(header + 2);
  WriteLines(path, lines);

  core::ModelConfig config;
  config.hidden_dim = 8;
  core::ZeroTuneModel model(config);
  const Status s = model.Load(path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ZT-M002"), std::string::npos) << s.message();
}

TEST_F(ModelFileShapeTest, IntactModelRoundTrips) {
  const std::string path = TempPath("intact.model");
  core::ModelConfig config;
  config.hidden_dim = 8;
  core::ZeroTuneModel model(config);
  ZT_CHECK_OK(model.Save(path));
  core::ZeroTuneModel reloaded(config);
  EXPECT_TRUE(reloaded.Load(path).ok());
}

}  // namespace
}  // namespace zerotune::analysis
