// Tests for the sharded serving fleet (serve/fleet/): replica health
// state machine, tenant quotas and fair admission, replica crash/restart
// lifecycle, deterministic routing/failover/hedging on a FakeClock, the
// same hedging policy on a real pool, the Dhalion-style fleet controller,
// and the fleet stats invariants.
#include "serve/fleet/fleet.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "dsp/cluster.h"
#include "dsp/parallel_plan.h"
#include "dsp/query_plan.h"
#include "serve/fleet/controller.h"
#include "serve/fleet/hash_ring.h"
#include "serve/fleet/health.h"
#include "serve/fleet/tenant_quota.h"

namespace zerotune::serve::fleet {
namespace {

using core::CostPrediction;

dsp::ParallelQueryPlan ValidPlan() {
  dsp::QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 50000.0;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  const int f = q.AddFilter(src, dsp::FilterProperties{}).value();
  const int a = q.AddWindowAggregate(f, dsp::AggregateProperties{}).value();
  ZT_CHECK_OK(q.AddSink(a));
  dsp::ParallelQueryPlan plan(q, dsp::Cluster::Homogeneous("m510", 2).value());
  ZT_CHECK_OK(plan.SetUniformParallelism(2));
  ZT_CHECK_OK(plan.PlaceRoundRobin());
  return plan;
}

/// Fixed-latency, optionally always-failing predictor; latency is burned
/// on the injected clock, so FakeClock tests advance virtual time through
/// it deterministically.
class StubPredictor : public core::CostPredictor {
 public:
  StubPredictor(Clock* clock, double latency_ms, bool fail = false)
      : clock_(clock), latency_ms_(latency_ms), fail_(fail) {}

  Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan&) const override {
    if (latency_ms_ > 0.0 && clock_ != nullptr) {
      clock_->SleepFor(static_cast<int64_t>(latency_ms_ * 1e6));
    }
    if (fail_) return Status::Internal("stub primary failure");
    return CostPrediction{12.0, 48000.0};
  }
  std::string name() const override { return "stub"; }

 private:
  Clock* clock_;
  double latency_ms_;
  bool fail_;
};

/// Blocks every Predict until Open() is called; drives real-concurrency
/// controller and quota tests.
class GatedPredictor : public core::CostPredictor {
 public:
  Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan&) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    return CostPrediction{12.0, 48000.0};
  }
  std::string name() const override { return "gated"; }

  void Open() {
    std::lock_guard<std::mutex> g(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void AwaitWaiters(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiting_ >= n || open_; });
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable size_t waiting_ = 0;
  bool open_ = false;
};

// "t<n>", built by appending: GCC 12's -Wrestrict misfires on
// `"t" + std::to_string(n)` in Release builds.
std::string TenantName(int n) {
  std::string name = "t";
  name += std::to_string(n);
  return name;
}

void ExpectFleetInvariants(const FleetStats& s) {
  EXPECT_EQ(s.received, s.admitted + s.shed_fleet_capacity +
                            s.shed_tenant_quota + s.shed_fair_share);
  EXPECT_EQ(s.admitted, s.answered + s.deadline_expired + s.failed);
  EXPECT_EQ(s.hedges_sent, s.hedges_won + s.hedges_cancelled);
  uint64_t replica_received = 0;
  for (const ReplicaStatsEntry& r : s.replicas) {
    replica_received += r.service.received + r.crashed_rejections;
  }
  EXPECT_EQ(s.dispatches, replica_received);
  EXPECT_EQ(s.latency_ms.count(), s.answered);
}

// ---------------------------------------------------------------- health

TEST(HealthOptionsTest, ValidatesRanges) {
  EXPECT_TRUE(HealthOptions().Validate().ok());
  HealthOptions o;
  o.window = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = HealthOptions();
  o.suspect_error_rate = 0.8;
  o.down_error_rate = 0.5;  // suspect above down
  EXPECT_FALSE(o.Validate().ok());
  o = HealthOptions();
  o.down_probe_backoff_ms = -1.0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(HealthTrackerTest, ErrorRateDrivesStateMachine) {
  FakeClock clock;
  HealthOptions opts;
  opts.window = 10;
  opts.min_samples = 4;
  opts.suspect_error_rate = 0.3;
  opts.down_error_rate = 0.7;
  HealthTracker tracker(opts, &clock);

  EXPECT_EQ(tracker.health(), ReplicaHealth::kHealthy);
  // Under min_samples: no judgment, whatever the rate.
  tracker.RecordFailure();
  tracker.RecordFailure();
  EXPECT_EQ(tracker.health(), ReplicaHealth::kHealthy);
  // 2 failures / 4 samples = 0.5 >= 0.3: suspect.
  tracker.RecordSuccess(1.0);
  tracker.RecordSuccess(1.0);
  EXPECT_EQ(tracker.health(), ReplicaHealth::kSuspect);
  // Flood the window with successes: recovers to healthy.
  for (int i = 0; i < 10; ++i) tracker.RecordSuccess(1.0);
  EXPECT_EQ(tracker.health(), ReplicaHealth::kHealthy);
  // Flood with failures: down, and a down transition is counted.
  for (int i = 0; i < 10; ++i) tracker.RecordFailure();
  EXPECT_EQ(tracker.health(), ReplicaHealth::kDown);
  EXPECT_EQ(tracker.downs(), 1u);
}

TEST(HealthTrackerTest, ErrorRateDownRecoversViaProbationAfterBackoff) {
  FakeClock clock;
  HealthOptions opts;
  opts.window = 8;
  opts.min_samples = 4;
  opts.down_probe_backoff_ms = 100.0;
  HealthTracker tracker(opts, &clock);
  for (int i = 0; i < 8; ++i) tracker.RecordFailure();
  ASSERT_EQ(tracker.health(), ReplicaHealth::kDown);

  clock.AdvanceMillis(99.0);
  EXPECT_EQ(tracker.health(), ReplicaHealth::kDown);
  clock.AdvanceMillis(2.0);
  // Probation: suspect with a cleared window — it must re-earn healthy.
  EXPECT_EQ(tracker.health(), ReplicaHealth::kSuspect);
  for (int i = 0; i < 8; ++i) tracker.RecordSuccess(1.0);
  EXPECT_EQ(tracker.health(), ReplicaHealth::kHealthy);
}

TEST(HealthTrackerTest, CrashIsStickyUntilReset) {
  FakeClock clock;
  HealthTracker tracker(HealthOptions{}, &clock);
  tracker.MarkCrashed();
  EXPECT_EQ(tracker.health(), ReplicaHealth::kDown);
  clock.AdvanceMillis(1e6);  // backoff never revives a crash
  EXPECT_EQ(tracker.health(), ReplicaHealth::kDown);
  for (int i = 0; i < 100; ++i) tracker.RecordSuccess(1.0);
  EXPECT_EQ(tracker.health(), ReplicaHealth::kDown);
  tracker.Reset();
  EXPECT_EQ(tracker.health(), ReplicaHealth::kHealthy);
}

TEST(HealthTrackerTest, SlowSuccessesCountAsFailures) {
  FakeClock clock;
  HealthOptions opts;
  opts.window = 8;
  opts.min_samples = 4;
  opts.slow_ms = 50.0;
  HealthTracker tracker(opts, &clock);
  for (int i = 0; i < 8; ++i) tracker.RecordSuccess(200.0);
  EXPECT_EQ(tracker.health(), ReplicaHealth::kDown);
}

// ---------------------------------------------------------------- quotas

TEST(TenantQuotasTest, EnforcesCapacityTenantCapAndFairShare) {
  QuotaOptions opts;
  opts.max_tenant_share = 0.5;
  opts.fair_share_watermark = 0.75;
  TenantQuotas quotas(opts);
  constexpr size_t kCapacity = 8;

  // Tenant cap: 0.5 * 8 = 4 slots.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(quotas.Admit("hog", kCapacity), QuotaDecision::kAdmit);
  }
  EXPECT_EQ(quotas.Admit("hog", kCapacity), QuotaDecision::kTenantQuota);
  EXPECT_EQ(quotas.active_tenants(), 1u);

  // Below the watermark (4+1 < 6) other tenants admit freely.
  EXPECT_EQ(quotas.Admit("small", kCapacity), QuotaDecision::kAdmit);
  // At the watermark (5+1 >= 6), fair share = capacity / active = 8/2 = 4:
  // "hog" at 4 would be refused, "small" at 1 still admits.
  EXPECT_EQ(quotas.Admit("small2", kCapacity), QuotaDecision::kAdmit);
  EXPECT_EQ(quotas.total_inflight(), 6u);

  // Full fleet: everyone is refused, including new tenants.
  EXPECT_EQ(quotas.Admit("t7", kCapacity), QuotaDecision::kAdmit);
  EXPECT_EQ(quotas.Admit("t8", kCapacity), QuotaDecision::kAdmit);
  EXPECT_EQ(quotas.total_inflight(), kCapacity);
  EXPECT_EQ(quotas.Admit("t9", kCapacity), QuotaDecision::kFleetFull);

  // Release restores capacity and tenant accounting.
  quotas.Release("hog");
  quotas.Release("hog");
  quotas.Release("hog");
  quotas.Release("hog");
  EXPECT_EQ(quotas.total_inflight(), 4u);
  EXPECT_EQ(quotas.Admit("t9", kCapacity), QuotaDecision::kAdmit);
  EXPECT_EQ(quotas.tenants_seen(), 6u);
}

TEST(TenantQuotasTest, FairShareShedsTheHeavyTenantNotTheLight) {
  QuotaOptions opts;
  opts.max_tenant_share = 1.0;       // no hard cap; fairness only
  opts.fair_share_watermark = 0.5;
  TenantQuotas quotas(opts);
  constexpr size_t kCapacity = 8;

  // "heavy" grabs 5 slots while the fleet is quiet.
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(quotas.Admit("heavy", kCapacity), QuotaDecision::kAdmit);
  }
  // Above the watermark now. fair = 8 / 1 = 8, heavy still under it; a
  // second tenant halves the fair share.
  ASSERT_EQ(quotas.Admit("light", kCapacity), QuotaDecision::kAdmit);
  // fair = 8 / 2 = 4: heavy (5) is over, light (1) is not.
  EXPECT_EQ(quotas.Admit("heavy", kCapacity), QuotaDecision::kFairShare);
  EXPECT_EQ(quotas.Admit("light", kCapacity), QuotaDecision::kAdmit);
}

// --------------------------------------------------------------- replica

TEST(ReplicaTest, KillFailsFastAndRestartRecoversWithStatsIntact) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  Replica replica(7, std::make_unique<StubPredictor>(&clock, 1.0),
                  /*fallback=*/nullptr, ServeOptions{}, HealthOptions{},
                  &clock);
  ASSERT_TRUE(replica.Predict(plan, 0.0).ok());
  ASSERT_TRUE(replica.Predict(plan, 0.0).ok());
  EXPECT_EQ(replica.incarnations(), 1u);

  replica.Kill();
  EXPECT_FALSE(replica.alive());
  EXPECT_EQ(replica.health(), ReplicaHealth::kDown);
  const auto dead = replica.Predict(plan, 0.0);
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(replica.crashed_rejections(), 1u);

  replica.Restart();
  EXPECT_TRUE(replica.alive());
  EXPECT_EQ(replica.health(), ReplicaHealth::kHealthy);
  EXPECT_EQ(replica.incarnations(), 2u);
  ASSERT_TRUE(replica.Predict(plan, 0.0).ok());

  // Cumulative stats span incarnations: 2 pre-kill + 1 post-restart.
  const ServiceStats stats = replica.CumulativeStats();
  EXPECT_EQ(stats.received, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.latency_ms.count(), 3u);
}

// ----------------------------------------------------------------- fleet

FleetOptions InlineFleetOptions(size_t replicas) {
  FleetOptions opts;
  opts.initial_replicas = replicas;
  opts.replica.lint_admission = false;
  opts.replica.max_attempts = 1;
  opts.hedge.enabled = false;
  return opts;
}

PredictionFleet::PrimaryFactory StubFactory(FakeClock* clock,
                                            double latency_ms) {
  return [clock, latency_ms](uint32_t) {
    return std::make_unique<StubPredictor>(clock, latency_ms);
  };
}

TEST(FleetOptionsTest, ValidatesNestedOptions) {
  EXPECT_TRUE(FleetOptions().Validate().ok());
  FleetOptions o;
  o.initial_replicas = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = FleetOptions();
  o.hedge.percentile = 100.0;
  EXPECT_FALSE(o.Validate().ok());
  o = FleetOptions();
  o.replica.max_inflight = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(FleetTest, RoutingIsDeterministicPerTenant) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  PredictionFleet fleet(StubFactory(&clock, 0.5), /*fallback=*/nullptr,
                        InlineFleetOptions(4), /*pool=*/nullptr, &clock);
  ASSERT_EQ(fleet.replica_count(), 4u);

  FleetRequest req;
  req.plan = &plan;
  for (const char* tenant : {"alpha", "beta", "gamma"}) {
    req.tenant = tenant;
    const uint32_t first = fleet.Predict(req).value().replica;
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(fleet.Predict(req).value().replica, first) << tenant;
    }
  }
  ExpectFleetInvariants(fleet.Snapshot());
}

TEST(FleetTest, CrashedReplicaFailsOverAndRecoversOnRestart) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  PredictionFleet fleet(StubFactory(&clock, 0.5), /*fallback=*/nullptr,
                        InlineFleetOptions(3), /*pool=*/nullptr, &clock);
  FleetRequest req;
  req.plan = &plan;
  req.tenant = "victim-tenant";
  const uint32_t home = fleet.Predict(req).value().replica;

  ZT_CHECK_OK(fleet.KillReplica(home));
  EXPECT_EQ(fleet.alive_count(), 2u);
  const auto rerouted = fleet.Predict(req);
  ASSERT_TRUE(rerouted.ok());
  EXPECT_NE(rerouted.value().replica, home);
  EXPECT_GE(rerouted.value().failovers, 1u);
  EXPECT_FALSE(rerouted.value().served.degraded);

  ZT_CHECK_OK(fleet.RestartReplica(home));
  EXPECT_EQ(fleet.alive_count(), 3u);
  EXPECT_EQ(fleet.Predict(req).value().replica, home);

  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.kills, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.answered, stats.admitted);  // nothing lost to the crash
  ExpectFleetInvariants(stats);
}

TEST(FleetTest, TotalOutageIsRescuedByFleetFallback) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  StubPredictor fallback(&clock, 0.1);
  PredictionFleet fleet(StubFactory(&clock, 0.5), &fallback,
                        InlineFleetOptions(2), /*pool=*/nullptr, &clock);
  for (const uint32_t id : fleet.ReplicaIds()) {
    ZT_CHECK_OK(fleet.KillReplica(id));
  }
  ASSERT_EQ(fleet.alive_count(), 0u);

  FleetRequest req;
  req.plan = &plan;
  req.tenant = "t";
  const auto rescued = fleet.Predict(req);
  ASSERT_TRUE(rescued.ok());
  EXPECT_TRUE(rescued.value().rescued);
  EXPECT_TRUE(rescued.value().served.degraded);

  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.fallback_rescues, 1u);
  EXPECT_EQ(stats.answered, stats.admitted);
  EXPECT_DOUBLE_EQ(stats.Availability(), 1.0);
  ExpectFleetInvariants(stats);
}

// With every replica down the fleet still admits one replica's worth of
// concurrent requests, since the fallback can answer each of them; it
// does not drop to one request at a time.
TEST(FleetTest, TotalOutageKeepsOneReplicaOfCapacity) {
  FakeClock clock;
  StubPredictor fallback(&clock, 0.1);
  const FleetOptions opts = InlineFleetOptions(2);
  PredictionFleet fleet(StubFactory(&clock, 0.5), &fallback, opts,
                        /*pool=*/nullptr, &clock);
  EXPECT_EQ(fleet.capacity(), 2 * opts.replica.max_inflight);
  ZT_CHECK_OK(fleet.KillReplica(fleet.ReplicaIds().front()));
  EXPECT_EQ(fleet.capacity(), opts.replica.max_inflight);
  ZT_CHECK_OK(fleet.KillReplica(fleet.ReplicaIds().back()));
  ASSERT_EQ(fleet.alive_count(), 0u);
  EXPECT_EQ(fleet.capacity(), opts.replica.max_inflight);
}

// Availability is answered over *received*: a request shed at admission
// is as unanswered as a failed one.
TEST(FleetTest, AvailabilityCountsShedRequests) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  // Each primary call re-enters the fleet as the same tenant while the
  // outer request still holds that tenant's only slot, so the nested
  // request is shed by the tenant quota.
  class ReentrantPredictor : public core::CostPredictor {
   public:
    explicit ReentrantPredictor(PredictionFleet* const* fleet)
        : fleet_(fleet) {}
    Result<CostPrediction> Predict(
        const dsp::ParallelQueryPlan& p) const override {
      FleetRequest nested;
      nested.plan = &p;
      nested.tenant = "solo";
      EXPECT_EQ((*fleet_)->Predict(nested).status().code(),
                StatusCode::kResourceExhausted);
      return CostPrediction{12.0, 48000.0};
    }
    std::string name() const override { return "reentrant"; }

   private:
    PredictionFleet* const* fleet_;
  };
  PredictionFleet* fleet_ptr = nullptr;
  auto factory = [&fleet_ptr](uint32_t)
      -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<ReentrantPredictor>(&fleet_ptr);
  };
  FleetOptions opts = InlineFleetOptions(1);
  opts.replica.max_inflight = 1;  // capacity 1: every tenant's cap is 1
  PredictionFleet fleet(factory, /*fallback=*/nullptr, opts,
                        /*pool=*/nullptr, &clock);
  fleet_ptr = &fleet;

  FleetRequest req;
  req.plan = &plan;
  req.tenant = "solo";
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(fleet.Predict(req).ok());

  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.received, 6u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.answered, 3u);
  EXPECT_EQ(stats.shed_tenant_quota, 3u);
  EXPECT_DOUBLE_EQ(stats.Availability(),
                   static_cast<double>(stats.answered) /
                       static_cast<double>(stats.received));
  EXPECT_LT(stats.Availability(), 1.0);
  ExpectFleetInvariants(stats);
}

TEST(FleetTest, TotalOutageWithoutFallbackFails) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  PredictionFleet fleet(StubFactory(&clock, 0.5), /*fallback=*/nullptr,
                        InlineFleetOptions(2), /*pool=*/nullptr, &clock);
  for (const uint32_t id : fleet.ReplicaIds()) {
    ZT_CHECK_OK(fleet.KillReplica(id));
  }
  FleetRequest req;
  req.plan = &plan;
  req.tenant = "t";
  const auto r = fleet.Predict(req);
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.failed, 1u);
  ExpectFleetInvariants(stats);
}

TEST(FleetTest, PrimaryErrorFailsOverToNextReplicaSynchronously) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  // Replica 0 always fails its primary; others succeed. No fallback at
  // any layer, so replica 0's service surfaces the primary error and the
  // fleet must retry on the next ring replica.
  auto factory = [&clock](uint32_t id)
      -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<StubPredictor>(&clock, 0.5, /*fail=*/id == 0);
  };
  PredictionFleet fleet(factory, /*fallback=*/nullptr,
                        InlineFleetOptions(2), /*pool=*/nullptr, &clock);

  // Find a tenant homed on replica 0.
  FleetRequest req;
  req.plan = &plan;
  ConsistentHashRing ring(FleetOptions{}.virtual_nodes);
  ring.Add(0);
  ring.Add(1);
  const uint64_t plan_hash = PlanKeyHash(plan);
  std::string tenant = "t0";
  for (int i = 0; i < 1000; ++i) {
    tenant = TenantName(i);
    if (ring.Owner(RequestKey(tenant, plan_hash)).value() == 0) break;
  }
  ASSERT_EQ(ring.Owner(RequestKey(tenant, plan_hash)).value(), 0u);

  req.tenant = tenant;
  const auto r = fleet.Predict(req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().replica, 1u);

  const FleetStats stats = fleet.Snapshot();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.answered, 1u);
  ExpectFleetInvariants(stats);
}

TEST(FleetTest, InlineHedgingIsDeterministicAndFirstAnswerWins) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  // Replica 0 is slow (30 ms), replica 1 fast (1 ms). With a 5 ms hedge
  // budget, a request homed on 0 must hedge to 1 and the hedge must win
  // with virtual latency = hedge_delay + fast = 6 ms.
  auto factory = [&clock](uint32_t id)
      -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<StubPredictor>(&clock, id == 0 ? 30.0 : 1.0);
  };
  FleetOptions opts = InlineFleetOptions(2);
  opts.hedge.enabled = true;
  opts.hedge.initial_delay_ms = 5.0;
  opts.hedge.min_samples = 1000000;  // pin the delay: no refresh in-test
  PredictionFleet fleet(factory, /*fallback=*/nullptr, opts,
                        /*pool=*/nullptr, &clock);

  ConsistentHashRing ring(opts.virtual_nodes);
  ring.Add(0);
  ring.Add(1);
  const uint64_t plan_hash = PlanKeyHash(plan);
  std::string slow_tenant = "s";
  std::string fast_tenant = "f";
  for (int i = 0; i < 1000; ++i) {
    const std::string t = TenantName(i);
    (ring.Owner(RequestKey(t, plan_hash)).value() == 0 ? slow_tenant
                                                       : fast_tenant) = t;
  }

  FleetRequest req;
  req.plan = &plan;
  req.tenant = slow_tenant;
  for (int i = 0; i < 3; ++i) {
    const auto r = fleet.Predict(req);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().hedged);
    EXPECT_TRUE(r.value().hedge_won);
    EXPECT_EQ(r.value().replica, 1u);
    EXPECT_DOUBLE_EQ(r.value().latency_ms, 6.0);
  }
  // A request homed on the fast replica finishes under the budget: no
  // hedge is sent at all.
  req.tenant = fast_tenant;
  const auto fast = fleet.Predict(req);
  ASSERT_TRUE(fast.ok());
  EXPECT_FALSE(fast.value().hedged);
  EXPECT_EQ(fast.value().replica, 1u);

  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.hedges_sent, 3u);
  EXPECT_EQ(stats.hedges_won, 3u);
  EXPECT_EQ(stats.hedges_cancelled, 0u);
  ExpectFleetInvariants(stats);
}

TEST(FleetTest, HedgeLosesWhenPrimaryWouldStillFinishFirst) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  // Both replicas take 30 ms: the hedge fires (30 > 5) but its virtual
  // completion (5 + 30) loses to the primary's 30.
  auto factory = [&clock](uint32_t)
      -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<StubPredictor>(&clock, 30.0);
  };
  FleetOptions opts = InlineFleetOptions(2);
  opts.hedge.enabled = true;
  opts.hedge.initial_delay_ms = 5.0;
  opts.hedge.min_samples = 1000000;
  PredictionFleet fleet(factory, /*fallback=*/nullptr, opts,
                        /*pool=*/nullptr, &clock);
  FleetRequest req;
  req.plan = &plan;
  req.tenant = "anyone";
  const auto r = fleet.Predict(req);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().hedged);
  EXPECT_FALSE(r.value().hedge_won);
  EXPECT_DOUBLE_EQ(r.value().latency_ms, 30.0);
  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.hedges_sent, 1u);
  EXPECT_EQ(stats.hedges_cancelled, 1u);
  ExpectFleetInvariants(stats);
}

// A tenant whose requests for `plan` are homed on replica `id` of a
// fleet whose ring holds replicas 0..n-1.
std::string TenantHomedOn(const dsp::ParallelQueryPlan& plan, uint32_t id,
                          uint32_t n) {
  ConsistentHashRing ring(FleetOptions{}.virtual_nodes);
  for (uint32_t r = 0; r < n; ++r) ring.Add(r);
  const uint64_t plan_hash = PlanKeyHash(plan);
  for (int i = 0; i < 1000; ++i) {
    const std::string tenant = TenantName(i);
    if (ring.Owner(RequestKey(tenant, plan_hash)).value() == id) {
      return tenant;
    }
  }
  ADD_FAILURE() << "no tenant homed on replica " << id;
  return "";
}

// Replica 0 fails after 30 ms, replica 1 answers in 1 ms, the hedge
// delay is 5 ms: the primary has not answered by the delay, so both
// modes hedge to replica 1 and its answer at 5 + 1 ms wins. Inline, the
// answer time is exact on the FakeClock.
FleetOptions SlowFailingPrimaryOptions() {
  FleetOptions opts = InlineFleetOptions(2);
  opts.hedge.enabled = true;
  opts.hedge.initial_delay_ms = 5.0;
  opts.hedge.min_samples = 1000000;
  return opts;
}

PredictionFleet::PrimaryFactory SlowFailingPrimaryFactory(Clock* clock) {
  return [clock](uint32_t id) -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<StubPredictor>(clock, id == 0 ? 30.0 : 1.0,
                                           /*fail=*/id == 0);
  };
}

TEST(FleetTest, InlineHedgeRescuesPrimaryThatFailsAfterTheHedgeDelay) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  PredictionFleet fleet(SlowFailingPrimaryFactory(&clock),
                        /*fallback=*/nullptr, SlowFailingPrimaryOptions(),
                        /*pool=*/nullptr, &clock);
  FleetRequest req;
  req.plan = &plan;
  req.tenant = TenantHomedOn(plan, 0, 2);
  const auto r = fleet.Predict(req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().hedged);
  EXPECT_TRUE(r.value().hedge_won);
  EXPECT_EQ(r.value().replica, 1u);
  EXPECT_DOUBLE_EQ(r.value().latency_ms, 6.0);
  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.hedges_won, 1u);
  EXPECT_EQ(stats.failovers, 0u);
  ExpectFleetInvariants(stats);
}

TEST(FleetTest, PooledHedgeRescuesPrimaryThatFailsAfterTheHedgeDelay) {
  Clock* clock = SystemClock::Default();
  const dsp::ParallelQueryPlan plan = ValidPlan();
  ThreadPool pool(2);
  PredictionFleet fleet(SlowFailingPrimaryFactory(clock),
                        /*fallback=*/nullptr, SlowFailingPrimaryOptions(),
                        &pool, clock);
  FleetRequest req;
  req.plan = &plan;
  req.tenant = TenantHomedOn(plan, 0, 2);
  const auto r = fleet.Predict(req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().hedged);
  EXPECT_TRUE(r.value().hedge_won);
  EXPECT_EQ(r.value().replica, 1u);
  EXPECT_LT(r.value().latency_ms, 30.0);
  pool.Wait();
  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.hedges_won, 1u);
  EXPECT_EQ(stats.failovers, 0u);
  ExpectFleetInvariants(stats);
}

// A real race on the system clock: the primary answers after ~50 ms, the
// hedge fires at 2 ms and its 1 ms answer wins.
TEST(FleetTest, PooledHedgeWinsARealRace) {
  Clock* clock = SystemClock::Default();
  const dsp::ParallelQueryPlan plan = ValidPlan();
  auto factory = [clock](uint32_t id)
      -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<StubPredictor>(clock, id == 0 ? 50.0 : 1.0);
  };
  FleetOptions opts = InlineFleetOptions(2);
  opts.hedge.enabled = true;
  opts.hedge.initial_delay_ms = 2.0;
  opts.hedge.min_samples = 1000000;
  ThreadPool pool(2);
  PredictionFleet fleet(factory, /*fallback=*/nullptr, opts, &pool, clock);
  FleetRequest req;
  req.plan = &plan;
  req.tenant = TenantHomedOn(plan, 0, 2);
  const auto r = fleet.Predict(req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().hedged);
  EXPECT_TRUE(r.value().hedge_won);
  EXPECT_EQ(r.value().replica, 1u);
  EXPECT_LT(r.value().latency_ms, 25.0);
  pool.Wait();  // the losing primary drains
  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.answered, 1u);
  EXPECT_EQ(stats.hedges_sent, 1u);
  EXPECT_EQ(stats.hedges_won, 1u);
  EXPECT_EQ(stats.dispatches, 2u);
  ExpectFleetInvariants(stats);
}

// On a FakeClock a pooled fleet still waits for its attempts in real
// time, so every request is answered.
TEST(FleetTest, PooledFleetOnAFakeClockAnswersEveryRequest) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  FleetOptions opts = InlineFleetOptions(2);
  opts.hedge.enabled = true;
  ThreadPool pool(2);
  PredictionFleet fleet(StubFactory(&clock, 0.5), /*fallback=*/nullptr, opts,
                        &pool, &clock);
  FleetRequest req;
  req.plan = &plan;
  for (int i = 0; i < 200; ++i) {
    req.tenant = TenantName(i % 8);
    const auto r = fleet.Predict(req);
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
    EXPECT_FALSE(r.value().served.degraded);
  }
  pool.Wait();
  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.answered, 200u);
  ExpectFleetInvariants(stats);
}

// A plan the admission lint rejects (ZT-P016: parallelism 64 on one
// 8-core node) is rejected by every replica alike: it fails as is, with
// no failover, hedge or rescue, and does not count against the replica.
TEST(FleetTest, LintRejectedRequestsFailWithoutTakingReplicasDown) {
  FakeClock clock;
  dsp::ParallelQueryPlan bad(
      ValidPlan().logical(), dsp::Cluster::Homogeneous("m510", 1).value());
  ZT_CHECK_OK(bad.SetUniformParallelism(64));
  ZT_CHECK_OK(bad.PlaceRoundRobin());
  const dsp::ParallelQueryPlan good = ValidPlan();
  StubPredictor fallback(&clock, 0.1);
  FleetOptions opts = InlineFleetOptions(2);
  opts.replica.lint_admission = true;
  opts.hedge.enabled = true;
  PredictionFleet fleet(StubFactory(&clock, 0.5), &fallback, opts,
                        /*pool=*/nullptr, &clock);

  FleetRequest req;
  req.plan = &bad;
  req.tenant = "linty";
  for (int i = 0; i < 20; ++i) {
    const auto r = fleet.Predict(req);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  for (const uint32_t id : fleet.ReplicaIds()) {
    EXPECT_EQ(fleet.replica_health(id).value(), ReplicaHealth::kHealthy)
        << "replica " << id;
  }
  req.plan = &good;
  for (int i = 0; i < 10; ++i) {
    req.tenant = TenantName(i);
    const auto r = fleet.Predict(req);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.value().served.degraded);
    EXPECT_FALSE(r.value().rescued);
  }

  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.failed, 20u);
  EXPECT_EQ(stats.answered, 10u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.hedges_sent, 0u);
  EXPECT_EQ(stats.fallback_rescues, 0u);
  EXPECT_EQ(stats.dispatches, 30u);
  ExpectFleetInvariants(stats);
}

TEST(FleetTest, ScaleUpAndDrainAdjustTheRing) {
  FakeClock clock;
  PredictionFleet fleet(StubFactory(&clock, 0.5), /*fallback=*/nullptr,
                        InlineFleetOptions(2), /*pool=*/nullptr, &clock);
  const auto added = fleet.AddReplica();
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(fleet.replica_count(), 3u);

  ZT_CHECK_OK(fleet.RemoveReplica(added.value()));
  EXPECT_EQ(fleet.replica_count(), 2u);
  EXPECT_EQ(fleet.RemoveReplica(added.value()).code(), StatusCode::kNotFound);

  // The last routable replica cannot be drained.
  const std::vector<uint32_t> rest = fleet.ReplicaIds();
  ZT_CHECK_OK(fleet.RemoveReplica(rest[0]));
  EXPECT_EQ(fleet.RemoveReplica(rest[1]).code(),
            StatusCode::kFailedPrecondition);

  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.scale_ups, 1u);
  EXPECT_EQ(stats.scale_downs, 2u);
  // Drained replicas stay visible in stats (routable=false).
  EXPECT_EQ(stats.replicas.size(), 3u);
  EXPECT_EQ(stats.replicas_total, 1u);
}

TEST(FleetTest, PerReplicaSeriesAreLabelled) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  PredictionFleet fleet(StubFactory(&clock, 0.5), /*fallback=*/nullptr,
                        InlineFleetOptions(2), /*pool=*/nullptr, &clock);
  FleetRequest req;
  req.plan = &plan;
  req.tenant = "labelled-tenant";
  ASSERT_TRUE(fleet.Predict(req).ok());
  const std::string dump = obs::MetricsRegistry::Global()->ToText();
  EXPECT_NE(dump.find("replica="), std::string::npos);
  EXPECT_NE(dump.find("tenant=labelled-tenant"), std::string::npos);
  EXPECT_NE(dump.find("serve.fleet.received_total"), std::string::npos);
}

// ------------------------------------------------------------ controller

TEST(ControllerOptionsTest, ValidatesRanges) {
  EXPECT_TRUE(ControllerOptions().Validate().ok());
  ControllerOptions o;
  o.min_replicas = 4;
  o.max_replicas = 2;
  EXPECT_FALSE(o.Validate().ok());
  o = ControllerOptions();
  o.scale_up_step = 0.5;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(ControllerTest, RestartsCrashedReplicaAfterDelay) {
  FakeClock clock;
  PredictionFleet fleet(StubFactory(&clock, 0.5), /*fallback=*/nullptr,
                        InlineFleetOptions(2), /*pool=*/nullptr, &clock);
  ControllerOptions copts;
  copts.min_replicas = 2;
  copts.max_replicas = 2;
  copts.restart_delay_ms = 100.0;
  FleetController controller(&fleet, copts, &clock);

  const uint32_t victim = fleet.ReplicaIds()[0];
  ZT_CHECK_OK(fleet.KillReplica(victim));
  ASSERT_EQ(fleet.alive_count(), 1u);

  // First tick observes the crash; no restart before the delay.
  EXPECT_EQ(controller.Tick().restarts, 0u);
  clock.AdvanceMillis(50.0);
  EXPECT_EQ(controller.Tick().restarts, 0u);
  EXPECT_EQ(fleet.alive_count(), 1u);
  // Past the delay: restarted.
  clock.AdvanceMillis(60.0);
  EXPECT_EQ(controller.Tick().restarts, 1u);
  EXPECT_EQ(fleet.alive_count(), 2u);
  EXPECT_EQ(fleet.Snapshot().restarts, 1u);
}

TEST(ControllerTest, ShedOverloadScalesUpAndCooldownHolds) {
  const dsp::ParallelQueryPlan plan = ValidPlan();
  ThreadPool pool(4);
  FleetOptions fopts;
  fopts.initial_replicas = 1;
  fopts.replica.max_inflight = 2;
  fopts.replica.lint_admission = false;
  fopts.hedge.enabled = false;
  GatedPredictor gate;
  auto factory = [&gate](uint32_t) -> std::unique_ptr<const core::CostPredictor> {
    struct Borrow : core::CostPredictor {
      const GatedPredictor* inner;
      explicit Borrow(const GatedPredictor* g) : inner(g) {}
      Result<CostPrediction> Predict(
          const dsp::ParallelQueryPlan& p) const override {
        return inner->Predict(p);
      }
      std::string name() const override { return "borrow"; }
    };
    return std::make_unique<Borrow>(&gate);
  };
  PredictionFleet fleet(factory, /*fallback=*/nullptr, fopts, &pool,
                        /*clock=*/nullptr);
  ControllerOptions copts;
  copts.min_replicas = 1;
  copts.max_replicas = 4;
  copts.overload_shed_rate = 0.05;
  copts.cooldown_ticks = 2;
  FleetController controller(&fleet, copts, /*clock=*/nullptr);

  // Two tenants saturate the capacity-2 fleet with blocked requests...
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&fleet, &plan, c] {
      FleetRequest req;
      req.plan = &plan;
      req.tenant = "blocked-" + std::to_string(c);
      ASSERT_TRUE(fleet.Predict(req).ok());
    });
  }
  gate.AwaitWaiters(2);
  // ...so a third tenant is shed at fleet capacity.
  FleetRequest req;
  req.plan = &plan;
  req.tenant = "shed-me";
  EXPECT_EQ(fleet.Predict(req).status().code(),
            StatusCode::kResourceExhausted);

  // Tick sees shed-rate 1/3 > 5%: scale up toward SelfRegulation's
  // target, then hold through the cooldown.
  const ControllerAction action = controller.Tick();
  EXPECT_GE(action.scale_ups, 1u);
  EXPECT_GE(fleet.replica_count(), 2u);
  const size_t after = fleet.replica_count();
  EXPECT_EQ(controller.Tick().scale_ups, 0u);  // cooldown
  EXPECT_EQ(fleet.replica_count(), after);

  gate.Open();
  for (std::thread& t : callers) t.join();
  pool.Wait();
  ExpectFleetInvariants(fleet.Snapshot());
}

TEST(ControllerTest, UnderutilizationScalesDownToFloor) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  PredictionFleet fleet(StubFactory(&clock, 0.5), /*fallback=*/nullptr,
                        InlineFleetOptions(4), /*pool=*/nullptr, &clock);
  ControllerOptions copts;
  copts.min_replicas = 2;
  copts.max_replicas = 4;
  copts.underutilization_threshold = 0.25;
  copts.cooldown_ticks = 0;
  FleetController controller(&fleet, copts, &clock);

  FleetRequest req;
  req.plan = &plan;
  // Each tick needs traffic in its interval (inline traffic leaves zero
  // utilization behind) and drains exactly one replica, down to the floor.
  for (int tick = 0; tick < 4; ++tick) {
    req.tenant = TenantName(tick);
    ASSERT_TRUE(fleet.Predict(req).ok());
    controller.Tick();
  }
  EXPECT_EQ(fleet.replica_count(), 2u);  // floor respected
  EXPECT_EQ(fleet.Snapshot().scale_downs, 2u);
}

// ------------------------------------------------- end-to-end mini soak

TEST(FleetTest, MixedChaosTrafficReconcilesExactly) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = ValidPlan();
  StubPredictor fallback(&clock, 0.05);
  FleetOptions opts = InlineFleetOptions(3);
  opts.hedge.enabled = true;
  opts.hedge.initial_delay_ms = 2.0;
  opts.hedge.min_samples = 64;
  PredictionFleet fleet(StubFactory(&clock, 0.5), &fallback, opts,
                        /*pool=*/nullptr, &clock);

  FleetRequest req;
  req.plan = &plan;
  for (int i = 0; i < 2000; ++i) {
    req.tenant = TenantName(i % 37);
    ASSERT_TRUE(fleet.Predict(req).ok());
    clock.AdvanceMillis(0.01);
    if (i % 400 == 199) {
      const std::vector<uint32_t> alive = fleet.AliveReplicaIds();
      if (!alive.empty()) {
        ZT_CHECK_OK(fleet.KillReplica(alive[i % alive.size()]));
      }
    }
    if (i % 400 == 399) {
      for (const uint32_t id : fleet.ReplicaIds()) {
        if (!fleet.Predict(req).ok()) break;  // never expected
        ZT_CHECK_OK(fleet.RestartReplica(id));
      }
    }
  }
  const FleetStats stats = fleet.Snapshot();
  EXPECT_EQ(stats.received, 2000u + 15u);  // restart loop adds 3 x 5
  EXPECT_EQ(stats.answered, stats.admitted);
  EXPECT_DOUBLE_EQ(stats.Availability(), 1.0);
  EXPECT_EQ(stats.tenants_seen, 37u);
  ExpectFleetInvariants(stats);
}

}  // namespace
}  // namespace zerotune::serve::fleet
