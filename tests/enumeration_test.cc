#include "core/enumeration.h"

#include <gtest/gtest.h>
#include <set>

#include "workload/generator.h"

namespace zerotune::core {
namespace {

using dsp::Cluster;
using dsp::OperatorType;
using dsp::ParallelQueryPlan;
using dsp::QueryPlan;

QueryPlan RatePlan(double rate, double filter_sel) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = rate;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  dsp::FilterProperties f;
  f.selectivity = filter_sel;
  const int fid = q.AddFilter(src, f).value();
  dsp::AggregateProperties a;
  a.selectivity = 0.1;
  const int aid = q.AddWindowAggregate(fid, a).value();
  ZT_CHECK_OK(q.AddSink(aid));
  return q;
}

TEST(OptiSampleTest, AssignsValidDegrees) {
  OptiSampleEnumerator e;
  Rng rng(1);
  ParallelQueryPlan plan(RatePlan(100000, 0.5),
                         Cluster::Homogeneous("m510", 4).value());
  ASSERT_TRUE(e.Assign(&plan, &rng).ok());
  EXPECT_TRUE(plan.Validate().ok());
  for (const auto& op : plan.logical().operators()) {
    EXPECT_GE(plan.parallelism(op.id), 1);
    EXPECT_LE(plan.parallelism(op.id), plan.cluster().TotalCores());
  }
}

TEST(OptiSampleTest, SinkStaysAtOne) {
  OptiSampleEnumerator e;
  Rng rng(2);
  ParallelQueryPlan plan(RatePlan(1000000, 1.0),
                         Cluster::Homogeneous("rs6525", 4).value());
  ASSERT_TRUE(e.Assign(&plan, &rng).ok());
  EXPECT_EQ(plan.parallelism(plan.logical().sink()), 1);
}

TEST(OptiSampleTest, HigherRatesGetHigherDegrees) {
  // With a fixed scale factor, degrees follow input rates (Defs. 7-8).
  ParallelQueryPlan low(RatePlan(10000, 0.5),
                        Cluster::Homogeneous("rs6525", 4).value());
  ParallelQueryPlan high(RatePlan(1000000, 0.5),
                         Cluster::Homogeneous("rs6525", 4).value());
  ASSERT_TRUE(
      OptiSampleEnumerator::AssignWithScaleFactor(&low, 5e-5, 128).ok());
  ASSERT_TRUE(
      OptiSampleEnumerator::AssignWithScaleFactor(&high, 5e-5, 128).ok());
  EXPECT_LT(low.parallelism(1), high.parallelism(1));
}

TEST(OptiSampleTest, DownstreamDegreesFollowSelectivity) {
  // Filter with sel 0.1: the aggregate sees 10% of the rate and must get
  // a proportionally lower degree (Def. 8, P(ω_j) = sf·In(ω_i)·sel).
  ParallelQueryPlan plan(RatePlan(1000000, 0.1),
                         Cluster::Homogeneous("rs6525", 4).value());
  ASSERT_TRUE(
      OptiSampleEnumerator::AssignWithScaleFactor(&plan, 5e-5, 128).ok());
  EXPECT_GT(plan.parallelism(1), plan.parallelism(2));
  EXPECT_NEAR(static_cast<double>(plan.parallelism(2)),
              0.1 * plan.parallelism(1), 2.0);
}

TEST(OptiSampleTest, ClampsToMaxParallelism) {
  OptiSampleEnumerator::Options opts;
  opts.max_parallelism = 8;
  OptiSampleEnumerator e(opts);
  Rng rng(3);
  ParallelQueryPlan plan(RatePlan(4000000, 1.0),
                         Cluster::Homogeneous("rs6525", 10).value());
  ASSERT_TRUE(e.Assign(&plan, &rng).ok());
  for (const auto& op : plan.logical().operators()) {
    EXPECT_LE(plan.parallelism(op.id), 8);
  }
}

TEST(OptiSampleTest, DeterministicGivenRngSeed) {
  OptiSampleEnumerator e;
  ParallelQueryPlan p1(RatePlan(50000, 0.5),
                       Cluster::Homogeneous("m510", 2).value());
  ParallelQueryPlan p2 = p1;
  Rng r1(9), r2(9);
  ASSERT_TRUE(e.Assign(&p1, &r1).ok());
  ASSERT_TRUE(e.Assign(&p2, &r2).ok());
  EXPECT_EQ(p1.ParallelismVector(), p2.ParallelismVector());
}

TEST(EnumeratorSearchSpaceTest, InvalidEnumeratorOptionsSurfaceEverywhere) {
  OptiSampleEnumerator::Options bad;
  bad.max_parallelism = 0;
  EXPECT_FALSE(bad.Validate().ok());
  const Cluster cluster = Cluster::Homogeneous("m510", 2).value();
  ParallelQueryPlan plan(RatePlan(1000, 0.5), cluster);
  Rng rng(1);
  EXPECT_FALSE(OptiSampleEnumerator(bad).Assign(&plan, &rng).ok());

  RandomEnumerator::Options bad_r;
  bad_r.max_parallelism = 0;
  EXPECT_FALSE(bad_r.Validate().ok());
  EXPECT_FALSE(RandomEnumerator(bad_r).Assign(&plan, &rng).ok());
}

TEST(RandomEnumeratorTest, DegreesWithinBounds) {
  RandomEnumerator e;
  Rng rng(4);
  ParallelQueryPlan plan(RatePlan(1000, 0.5),
                         Cluster::Homogeneous("m510", 2).value());  // 16 cores
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(e.Assign(&plan, &rng).ok());
    EXPECT_TRUE(plan.Validate().ok());
    for (const auto& op : plan.logical().operators()) {
      EXPECT_GE(plan.parallelism(op.id), 1);
      EXPECT_LE(plan.parallelism(op.id), 16);
    }
  }
}

TEST(RandomEnumeratorTest, ProducesVariety) {
  RandomEnumerator e;
  Rng rng(5);
  ParallelQueryPlan plan(RatePlan(1000, 0.5),
                         Cluster::Homogeneous("rs6525", 2).value());
  std::set<std::vector<int>> distinct;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(e.Assign(&plan, &rng).ok());
    distinct.insert(plan.ParallelismVector());
  }
  EXPECT_GT(distinct.size(), 10u);
}

TEST(RandomEnumeratorTest, IgnoresWorkloadRates) {
  // Statistically, random assigns similar degrees regardless of rate —
  // the property that makes it data-inefficient (Exp. 4).
  RandomEnumerator e;
  Rng rng(6);
  double sum_low = 0.0, sum_high = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    ParallelQueryPlan low(RatePlan(100, 0.5),
                          Cluster::Homogeneous("m510", 2).value());
    ParallelQueryPlan high(RatePlan(1000000, 0.5),
                           Cluster::Homogeneous("m510", 2).value());
    EXPECT_TRUE(e.Assign(&low, &rng).ok());
    EXPECT_TRUE(e.Assign(&high, &rng).ok());
    sum_low += low.parallelism(1);
    sum_high += high.parallelism(1);
  }
  EXPECT_NEAR(sum_low / trials, sum_high / trials, 2.0);
}

}  // namespace
}  // namespace zerotune::core
