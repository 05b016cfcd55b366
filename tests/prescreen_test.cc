// Tests for the analytical pre-screen tier (core/prescreen/) and the
// segment decomposition it is built on (analysis/segments.h): golden
// decompositions for the canonical plan shapes, probe-ladder calibration,
// prescreen-vs-GNN ranking agreement, the optimizer's two-tier wiring,
// and the graceful fallback when calibration cannot model the plan.
#include "core/prescreen/analytical.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "analysis/segments.h"
#include "core/optimizer.h"
#include "core/oracle_predictor.h"
#include "core/search_space.h"
#include "dsp/parallel_plan.h"

namespace zerotune::core {
namespace {

using analysis::DecomposeSegments;
using analysis::PlanSegment;
using analysis::SegmentKind;
using dsp::Cluster;
using dsp::QueryPlan;

QueryPlan LinearPlan(double rate) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = rate;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  dsp::FilterProperties f;
  f.selectivity = 0.8;
  const int fid = q.AddFilter(src, f).value();
  dsp::AggregateProperties a;
  a.selectivity = 0.2;
  const int aid = q.AddWindowAggregate(fid, a).value();
  ZT_CHECK_OK(q.AddSink(aid));
  return q;
}

QueryPlan JoinPlan(double rate) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = rate;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int left = q.AddSource(s);
  const int right = q.AddSource(s);
  const int join = q.AddWindowJoin(left, right, dsp::JoinProperties{}).value();
  ZT_CHECK_OK(q.AddSink(join));
  return q;
}

QueryPlan SourceSinkPlan() {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 1000.0;
  s.schema = dsp::TupleSchema::Uniform(2, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  ZT_CHECK_OK(q.AddSink(src));
  return q;
}

// --- segment decomposition goldens ------------------------------------

TEST(SegmentDecompositionTest, LinearPipelineSplitsAtTheShuffle) {
  const auto segs = DecomposeSegments(LinearPlan(1000));
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.value().size(), 2u);
  // source -> filter grow one pipeline; the keyed aggregate opens a
  // map-reduce segment that the sink terminates.
  EXPECT_EQ(segs.value()[0].kind, SegmentKind::kPipeline);
  EXPECT_EQ(segs.value()[0].operator_ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(segs.value()[0].processing_operators, 1u);
  EXPECT_FALSE(segs.value()[0].contains_sink);
  EXPECT_FALSE(segs.value()[0].IsDegenerate());
  EXPECT_EQ(segs.value()[1].kind, SegmentKind::kMapReduce);
  EXPECT_EQ(segs.value()[1].operator_ids, (std::vector<int>{2, 3}));
  EXPECT_EQ(segs.value()[1].processing_operators, 1u);
  EXPECT_TRUE(segs.value()[1].contains_sink);
  EXPECT_FALSE(segs.value()[1].IsDegenerate());
}

TEST(SegmentDecompositionTest, JoinTreeFormsATaskPool) {
  const auto segs = DecomposeSegments(JoinPlan(1000));
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.value().size(), 3u);
  // Each source is its own (map-side) pipeline; the join is a task pool
  // the sink terminates. Source-only pipelines are NOT degenerate.
  EXPECT_EQ(segs.value()[0].kind, SegmentKind::kPipeline);
  EXPECT_EQ(segs.value()[0].operator_ids, (std::vector<int>{0}));
  EXPECT_FALSE(segs.value()[0].IsDegenerate());
  EXPECT_EQ(segs.value()[1].kind, SegmentKind::kPipeline);
  EXPECT_EQ(segs.value()[1].operator_ids, (std::vector<int>{1}));
  EXPECT_EQ(segs.value()[2].kind, SegmentKind::kTaskPool);
  EXPECT_EQ(segs.value()[2].operator_ids, (std::vector<int>{2, 3}));
  EXPECT_TRUE(segs.value()[2].contains_sink);
  EXPECT_FALSE(segs.value()[2].IsDegenerate());
}

TEST(SegmentDecompositionTest, StackedAggregatesEachOpenASegment) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 2000.0;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  const int a1 =
      q.AddWindowAggregate(src, dsp::AggregateProperties{}).value();
  const int a2 =
      q.AddWindowAggregate(a1, dsp::AggregateProperties{}).value();
  ZT_CHECK_OK(q.AddSink(a2));
  const auto segs = DecomposeSegments(q);
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.value().size(), 3u);
  EXPECT_EQ(segs.value()[0].kind, SegmentKind::kPipeline);
  EXPECT_EQ(segs.value()[1].kind, SegmentKind::kMapReduce);
  EXPECT_EQ(segs.value()[1].operator_ids, (std::vector<int>{1}));
  EXPECT_EQ(segs.value()[2].kind, SegmentKind::kMapReduce);
  EXPECT_EQ(segs.value()[2].operator_ids, (std::vector<int>{2, 3}));
}

TEST(SegmentDecompositionTest, BareSourceSinkIsDegenerate) {
  const auto segs = DecomposeSegments(SourceSinkPlan());
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.value().size(), 1u);
  EXPECT_EQ(segs.value()[0].kind, SegmentKind::kPipeline);
  EXPECT_TRUE(segs.value()[0].IsDegenerate());
}

TEST(SegmentDecompositionTest, EveryOperatorInExactlyOneSegment) {
  for (const QueryPlan& q : {LinearPlan(1000), JoinPlan(1000)}) {
    const auto segs = DecomposeSegments(q);
    ASSERT_TRUE(segs.ok());
    std::set<int> seen;
    for (const PlanSegment& s : segs.value()) {
      for (int id : s.operator_ids) {
        EXPECT_TRUE(seen.insert(id).second) << "operator " << id << " twice";
      }
    }
    EXPECT_EQ(seen.size(), q.num_operators());
  }
}

// --- probe ladder and calibration --------------------------------------

TEST(AnalyticalPrescreenTest, ProbeLadderSpansTheDegreeRange) {
  const QueryPlan q = LinearPlan(100000);
  const Cluster cluster = Cluster::Homogeneous("m510", 4).value();
  const auto probes =
      AnalyticalPrescreen::ProbeLadder(q, cluster, 128, 6);
  ASSERT_TRUE(probes.ok());
  ASSERT_GE(probes.value().size(), 2u);
  ASSERT_LE(probes.value().size(), 6u);
  const int cap = std::min(128, cluster.TotalCores());
  std::set<std::vector<int>> distinct;
  for (const auto& degrees : probes.value()) {
    ASSERT_EQ(degrees.size(), q.num_operators());
    EXPECT_EQ(degrees.back(), 1);  // sink pinned
    for (int d : degrees) {
      EXPECT_GE(d, 1);
      EXPECT_LE(d, cap);
    }
    distinct.insert(degrees);
  }
  EXPECT_EQ(distinct.size(), probes.value().size()) << "duplicate probes";
  // The ladder excites every fitted direction: the all-1 baseline, a
  // source-scaled full-blast rung, and per-kind rungs that move one
  // pattern's processing operators independently.
  EXPECT_TRUE(distinct.count({1, 1, 1, 1}));
  EXPECT_TRUE(distinct.count({cap, cap, cap, 1}));
  EXPECT_TRUE(distinct.count({1, cap, 1, 1}));  // pipeline only
  EXPECT_TRUE(distinct.count({1, 1, cap, 1}));  // map-reduce only
}

// Deploys `degrees` (indexed by operator id) the way the optimizer does.
Result<dsp::ParallelQueryPlan> Deploy(const QueryPlan& q,
                                      const Cluster& cluster,
                                      const std::vector<int>& degrees) {
  dsp::ParallelQueryPlan plan(q, cluster);
  for (const auto& op : q.operators()) {
    ZT_RETURN_IF_ERROR(
        plan.SetParallelism(op.id, degrees[static_cast<size_t>(op.id)]));
  }
  plan.DerivePartitioning();
  ZT_RETURN_IF_ERROR(plan.PlaceRoundRobin());
  return plan;
}

Result<AnalyticalPrescreen> FitFromOracle(const QueryPlan& q,
                                          const Cluster& cluster) {
  OraclePredictor oracle;
  ZT_ASSIGN_OR_RETURN(const std::vector<std::vector<int>> probes,
                      AnalyticalPrescreen::ProbeLadder(q, cluster, 128, 6));
  std::vector<CostPrediction> costs;
  for (const auto& degrees : probes) {
    ZT_ASSIGN_OR_RETURN(const dsp::ParallelQueryPlan plan,
                        Deploy(q, cluster, degrees));
    ZT_ASSIGN_OR_RETURN(const CostPrediction p, oracle.Predict(plan));
    costs.push_back(p);
  }
  return AnalyticalPrescreen::Fit(q, cluster, probes, costs,
                                  AnalyticalPrescreen::Options());
}

TEST(AnalyticalPrescreenTest, FitRejectsDegeneratePlans) {
  const Cluster cluster = Cluster::Homogeneous("m510", 2).value();
  const auto fitted = FitFromOracle(SourceSinkPlan(), cluster);
  ASSERT_FALSE(fitted.ok());
  EXPECT_NE(fitted.status().message().find("ZT-P026"), std::string::npos);
}

TEST(AnalyticalPrescreenTest, ScoresAreFiniteAndArityChecked) {
  const QueryPlan q = LinearPlan(200000);
  const Cluster cluster = Cluster::Homogeneous("m510", 4).value();
  const auto fitted = FitFromOracle(q, cluster);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  std::vector<PlanCandidate> cands;
  cands.emplace_back(std::vector<int>{1, 4, 4, 1});
  cands.emplace_back(std::vector<int>{1, 1, 1, 1});
  cands.emplace_back(std::vector<int>{1, 2});  // wrong arity
  const auto scores = fitted.value().ScoreCandidates(cands);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores.value().size(), 3u);
  EXPECT_TRUE(std::isfinite(scores.value()[0]));
  EXPECT_TRUE(std::isfinite(scores.value()[1]));
  EXPECT_TRUE(std::isinf(scores.value()[2]))
      << "wrong-arity candidates must sort last";
}

TEST(AnalyticalPrescreenTest, ExplainSegmentsTellsTheWholeStory) {
  const QueryPlan q = LinearPlan(200000);
  const Cluster cluster = Cluster::Homogeneous("m510", 4).value();
  const auto fitted = FitFromOracle(q, cluster);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  const auto stories =
      fitted.value().ExplainSegments(std::vector<int>{1, 4, 4, 1});
  ASSERT_EQ(stories.size(), 2u);
  EXPECT_EQ(stories[0].segment.kind, SegmentKind::kPipeline);
  EXPECT_EQ(stories[1].segment.kind, SegmentKind::kMapReduce);
  for (const auto& s : stories) {
    EXPECT_GT(s.closure_value, 0.0);
    EXPECT_TRUE(std::isfinite(s.latency_coefficient));
    EXPECT_TRUE(std::isfinite(s.throughput_coefficient));
  }
  // Raising a processing degree lowers the per-instance load closure.
  const auto relaxed =
      fitted.value().ExplainSegments(std::vector<int>{1, 16, 16, 1});
  EXPECT_LT(relaxed[0].closure_value, stories[0].closure_value);
}

TEST(AnalyticalPrescreenTest, TopIndicesKeepsLowestInAscendingOrder) {
  const std::vector<double> scores = {5.0, 1.0, 3.0, 1.0, 4.0};
  const auto top = AnalyticalPrescreen::TopIndices(scores, 3);
  EXPECT_EQ(top, (std::vector<size_t>{1, 2, 3}));  // ties break earlier
  EXPECT_EQ(AnalyticalPrescreen::TopIndices(scores, 10).size(), 5u);
}

// The agreement property that makes a pre-screen usable at all: on a
// fig10-style loaded workload, the candidate the GNN ranks first must
// survive the analytical cut at the default keep fraction.
TEST(AnalyticalPrescreenTest, GnnTopCandidateSurvivesDefaultCut) {
  OraclePredictor oracle;
  const QueryPlan q = LinearPlan(500000);
  const Cluster cluster = Cluster::Homogeneous("m510", 4).value();
  const auto enumerated =
      GridSearchSpace().Enumerate(q, cluster);
  ASSERT_TRUE(enumerated.ok());
  std::vector<PlanCandidate> cands;
  std::set<std::vector<int>> seen;
  for (const PlanCandidate& c : enumerated.value()) {
    if (seen.insert(c.degrees).second) cands.push_back(c);
  }

  // Rank every candidate as the optimizer does: one PredictBatch, then
  // the search score 0.5·log(latency) − 0.5·log(throughput).
  std::vector<dsp::ParallelQueryPlan> plans;
  for (const PlanCandidate& c : cands) {
    auto plan = Deploy(q, cluster, c.degrees);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(plan).value());
  }
  const auto preds = PredictBatch(oracle, plans);
  ASSERT_TRUE(preds.ok()) << preds.status().ToString();
  const auto score = [](const CostPrediction& p) {
    return 0.5 * std::log(std::max(p.latency_ms, 1e-6)) -
           0.5 * std::log(std::max(p.throughput_tps, 1e-6));
  };
  size_t gnn_best = 0;
  for (size_t i = 1; i < preds.value().size(); ++i) {
    if (score(preds.value()[i]) < score(preds.value()[gnn_best])) {
      gnn_best = i;
    }
  }

  const auto fitted = FitFromOracle(q, cluster);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  const auto analytical = fitted.value().ScoreCandidates(cands);
  ASSERT_TRUE(analytical.ok());
  const ParallelismOptimizer::PrescreenOptions defaults;
  const size_t keep = std::max(
      defaults.min_keep,
      static_cast<size_t>(std::ceil(defaults.keep_fraction *
                                    static_cast<double>(cands.size()))));
  const auto kept = AnalyticalPrescreen::TopIndices(analytical.value(), keep);
  EXPECT_NE(std::find(kept.begin(), kept.end(), gnn_best), kept.end())
      << "the GNN's top candidate fell to the analytical cut";
}

// --- optimizer wiring ---------------------------------------------------

TEST(TwoTierTuneTest, DisabledPrescreenReportsZeroCounts) {
  OraclePredictor oracle;
  const auto r = ParallelismOptimizer(&oracle).Tune(
      LinearPlan(100000), Cluster::Homogeneous("m510", 2).value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().candidates_prescreened, 0u);
  EXPECT_EQ(r.value().prescreen_kept, 0u);
}

TEST(TwoTierTuneTest, PrescreenCutsGnnWorkWithoutLosingQuality) {
  OraclePredictor oracle;
  const QueryPlan q = LinearPlan(500000);
  const Cluster cluster = Cluster::Homogeneous("m510", 32).value();

  const auto off = ParallelismOptimizer(&oracle).Tune(q, cluster);
  ASSERT_TRUE(off.ok());

  ParallelismOptimizer::Options opts;
  opts.prescreen.enabled = true;
  const auto on = ParallelismOptimizer(&oracle, opts).Tune(q, cluster);
  ASSERT_TRUE(on.ok());

  EXPECT_GT(on.value().candidates_prescreened, 0u);
  EXPECT_GT(on.value().prescreen_kept, 0u);
  EXPECT_LE(on.value().prescreen_kept, on.value().candidates_prescreened);
  EXPECT_LT(on.value().candidates_evaluated,
            off.value().candidates_evaluated)
      << "prescreening must reduce GNN scoring work";
  EXPECT_TRUE(on.value().plan.Validate().ok());

  // Quality: the two-tier winner's combined log score stays close to the
  // exhaustive search's (the pre-screen only has to keep the winner's
  // neighborhood alive, not reproduce the full ranking).
  auto score = [](const CostPrediction& p) {
    return 0.5 * std::log(std::max(p.latency_ms, 1e-6)) -
           0.5 * std::log(std::max(p.throughput_tps, 1e-6));
  };
  EXPECT_LE(score(on.value().predicted),
            score(off.value().predicted) + 0.5);
}

TEST(TwoTierTuneTest, DegeneratePlanFallsBackToFullGnnScoring) {
  OraclePredictor oracle;
  ParallelismOptimizer::Options opts;
  opts.prescreen.enabled = true;
  const auto r = ParallelismOptimizer(&oracle, opts)
                     .Tune(SourceSinkPlan(),
                           Cluster::Homogeneous("m510", 2).value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Calibration cannot model a bare source->sink plan (ZT-P026); the
  // tune must still succeed, with no analytical ranking performed.
  EXPECT_EQ(r.value().candidates_prescreened, 0u);
  EXPECT_TRUE(r.value().plan.Validate().ok());
}

TEST(TwoTierTuneTest, PrescreenOptionsValidateChecksEveryKnob) {
  ParallelismOptimizer::PrescreenOptions p;
  EXPECT_TRUE(p.Validate().ok());
  p.keep_fraction = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = ParallelismOptimizer::PrescreenOptions();
  p.keep_fraction = 1.5;
  EXPECT_FALSE(p.Validate().ok());
  p = ParallelismOptimizer::PrescreenOptions();
  p.min_keep = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = ParallelismOptimizer::PrescreenOptions();
  p.max_probes = 1;
  EXPECT_FALSE(p.Validate().ok());
  p = ParallelismOptimizer::PrescreenOptions();
  p.hill_climb_keep = 0;
  EXPECT_FALSE(p.Validate().ok());
  // And the optimizer surfaces prescreen misconfiguration like any other.
  ParallelismOptimizer::Options opts;
  opts.prescreen.keep_fraction = -1.0;
  EXPECT_FALSE(opts.Validate().ok());
}

}  // namespace
}  // namespace zerotune::core
