// Tests for the pluggable candidate-generation API (core/search_space.h):
// grid candidate order is a stability contract (it keeps Tune()
// bit-identical to the pre-SearchSpace optimizer), a null
// Options::search_space must behave exactly like an injected default
// GridSearchSpace, and enumeration failures must fail Tune() loudly
// instead of being dropped.
#include "core/search_space.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/enumeration.h"
#include "core/optimizer.h"
#include "core/oracle_predictor.h"
#include "dsp/parallel_plan.h"

namespace zerotune::core {
namespace {

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

// --- GridSearchSpace --------------------------------------------------

TEST(GridSearchSpaceTest, OptionsValidateChecksEveryKnob) {
  GridSearchSpace::Options opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.max_parallelism = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = GridSearchSpace::Options();
  opts.num_scale_factors = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = GridSearchSpace::Options();
  opts.min_scale_factor = 0.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = GridSearchSpace::Options();
  opts.max_scale_factor = opts.min_scale_factor / 2.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = GridSearchSpace::Options();
  opts.uniform_degrees = {4, 0};
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(GridSearchSpaceTest, InvalidOptionsSurfaceAtEnumerate) {
  GridSearchSpace::Options bad;
  bad.num_scale_factors = 0;
  const GridSearchSpace space(bad);
  const auto r = space.Enumerate(LinearPlan(1000),
                                 Cluster::Homogeneous("m510", 2).value());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// The historical candidate order: num_scale_factors OptiSample
// assignments over the log-spaced grid, then the uniform degrees with
// sources/sinks pinned at 1. Reproduced independently here so a change
// to Enumerate() that reorders candidates fails this golden test.
TEST(GridSearchSpaceTest, EnumerationOrderMatchesHistoricalGrid) {
  const QueryPlan q = LinearPlan(100000);
  const Cluster cluster = Cluster::Homogeneous("m510", 4).value();
  GridSearchSpace::Options opts;  // defaults
  const GridSearchSpace space(opts);
  const auto r = space.Enumerate(q, cluster);
  ASSERT_TRUE(r.ok());
  const std::vector<PlanCandidate>& got = r.value();

  std::vector<std::vector<int>> want;
  const double log_min = std::log(opts.min_scale_factor);
  const double log_max = std::log(opts.max_scale_factor);
  for (size_t i = 0; i < opts.num_scale_factors; ++i) {
    const double t = opts.num_scale_factors == 1
                         ? 0.0
                         : static_cast<double>(i) /
                               static_cast<double>(opts.num_scale_factors - 1);
    const double sf = std::exp(log_min + t * (log_max - log_min));
    dsp::ParallelQueryPlan plan(q, cluster);
    ASSERT_TRUE(OptiSampleEnumerator::AssignWithScaleFactor(
                    &plan, sf, opts.max_parallelism)
                    .ok());
    want.push_back(plan.ParallelismVector());
  }
  const int cap = std::min(opts.max_parallelism, cluster.TotalCores());
  for (const int d : opts.uniform_degrees) {
    if (d > cap) continue;
    std::vector<int> degrees(q.num_operators(), d);
    for (const auto& op : q.operators()) {
      if (op.type == dsp::OperatorType::kSource ||
          op.type == dsp::OperatorType::kSink) {
        degrees[static_cast<size_t>(op.id)] = 1;
      }
    }
    want.push_back(degrees);
  }

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].degrees, want[i]) << "candidate " << i;
    EXPECT_EQ(got[i].origin,
              i < opts.num_scale_factors ? "opti-sample" : "uniform");
  }
}

TEST(GridSearchSpaceTest, UniformDegreesAboveClusterCapSkipped) {
  const Cluster tiny = Cluster::Homogeneous("m510", 1).value();  // 8 cores
  const GridSearchSpace space;
  const auto r = space.Enumerate(LinearPlan(1000), tiny);
  ASSERT_TRUE(r.ok());
  for (const PlanCandidate& c : r.value()) {
    if (c.origin != "uniform") continue;
    for (int d : c.degrees) EXPECT_LE(d, 8);
  }
}

// --- injection into the optimizer -------------------------------------

// A null Options::search_space must behave exactly like an explicitly
// injected default GridSearchSpace: same winner, same predictions, same
// candidate-by-candidate evaluation trace.
TEST(SearchSpaceInjectionTest, NullSearchSpaceMatchesInjectedDefaultGrid) {
  OraclePredictor oracle;
  const QueryPlan q = LinearPlan(250000);
  const Cluster cluster = Cluster::Homogeneous("m510", 4).value();

  ParallelismOptimizer::Options legacy;  // null search_space
  const auto via_fields =
      ParallelismOptimizer(&oracle, legacy).Tune(q, cluster);
  ASSERT_TRUE(via_fields.ok());

  GridSearchSpace::Options gopts;
  gopts.max_parallelism = legacy.max_parallelism;
  const GridSearchSpace space(gopts);
  ParallelismOptimizer::Options injected;
  injected.search_space = &space;
  const auto via_space =
      ParallelismOptimizer(&oracle, injected).Tune(q, cluster);
  ASSERT_TRUE(via_space.ok());

  const auto& a = via_fields.value();
  const auto& b = via_space.value();
  EXPECT_EQ(a.plan.ParallelismVector(), b.plan.ParallelismVector());
  EXPECT_DOUBLE_EQ(a.predicted.latency_ms, b.predicted.latency_ms);
  EXPECT_DOUBLE_EQ(a.predicted.throughput_tps, b.predicted.throughput_tps);
  ASSERT_EQ(a.candidates_evaluated, b.candidates_evaluated);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].degrees, b.candidates[i].degrees);
    EXPECT_DOUBLE_EQ(a.candidates[i].predicted.latency_ms,
                     b.candidates[i].predicted.latency_ms);
    EXPECT_DOUBLE_EQ(a.candidates[i].predicted.throughput_tps,
                     b.candidates[i].predicted.throughput_tps);
  }
}

class FailingSearchSpace : public SearchSpace {
 public:
  Result<std::vector<PlanCandidate>> Enumerate(
      const dsp::QueryPlan&, const dsp::Cluster&) const override {
    return Status::Internal("enumeration backend unavailable");
  }
  std::string name() const override { return "failing"; }
};

// Enumeration failures must fail the tune loudly, not degrade into an
// empty candidate set.
TEST(SearchSpaceInjectionTest, EnumerationFailureFailsTuneLoudly) {
  OraclePredictor oracle;
  const FailingSearchSpace space;
  ParallelismOptimizer::Options opts;
  opts.search_space = &space;
  const auto r = ParallelismOptimizer(&oracle, opts)
                     .Tune(LinearPlan(1000),
                           Cluster::Homogeneous("m510", 2).value());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace zerotune::core
