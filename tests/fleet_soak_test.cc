// Soak tests for the sharded serving fleet (serve/fleet/):
//
//  1. A deterministic inline drill on a FakeClock: >= 1M requests from
//     >1000 tenants through an 8-replica fleet while a chaos schedule
//     kills replicas and the Dhalion-style controller restarts them.
//     Fleet accounting must reconcile EXACTLY (received == answered +
//     shed, dispatches == per-replica receipts, nothing lost or
//     double-counted) and >= 99.9% of admitted requests must be answered
//     despite the crashes. Identical runs must be bit-identical.
//  2. A concurrent soak on a real ThreadPool with live chaos threads —
//     the TSan target: hedged races, crash/restart under load, quota
//     churn, and concurrent snapshots must be data-race-free and still
//     reconcile at quiescence.
#include <atomic>
#include <memory>
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
#include "serve/fleet/fleet.h"
#include "serve/fleet/hash_ring.h"

// Sanitized builds trade volume for tool depth: TSan/ASan run the same
// chaos schedule at reduced request counts (the full-million drill runs
// in every plain build and in the committed bench).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define ZT_FLEET_SOAK_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define ZT_FLEET_SOAK_SANITIZED 1
#endif
#endif

namespace zerotune::serve::fleet {
namespace {

using core::CostPrediction;

dsp::ParallelQueryPlan SoakPlan() {
  dsp::QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 80000.0;
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

/// Deterministic flaky predictor: fails every `fail_every`-th call, runs
/// slow every `slow_every`-th, burns latency on the injected clock.
class FlakyPredictor : public core::CostPredictor {
 public:
  FlakyPredictor(Clock* clock, double base_ms, double slow_ms,
                 size_t fail_every, size_t slow_every)
      : clock_(clock),
        base_ms_(base_ms),
        slow_ms_(slow_ms),
        fail_every_(fail_every),
        slow_every_(slow_every) {}

  Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan&) const override {
    const uint64_t n = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
    double ms = base_ms_;
    if (slow_every_ > 0 && n % slow_every_ == 0) ms += slow_ms_;
    if (ms > 0.0) clock_->SleepFor(static_cast<int64_t>(ms * 1e6));
    if (fail_every_ > 0 && n % fail_every_ == 0) {
      return Status::Internal("flaky primary failure");
    }
    return CostPrediction{12.0, 48000.0};
  }
  std::string name() const override { return "flaky"; }

 private:
  Clock* clock_;
  double base_ms_;
  double slow_ms_;
  size_t fail_every_;
  size_t slow_every_;
  mutable std::atomic<uint64_t> calls_{0};
};

class FastFallback : public core::CostPredictor {
 public:
  Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan&) const override {
    return CostPrediction{20.0, 30000.0};
  }
  std::string name() const override { return "fast-fallback"; }
};

// "t<n>", built by appending: GCC 12's -Wrestrict misfires on
// `"t" + std::to_string(n)` in Release builds.
std::string TenantName(uint64_t n) {
  std::string name = "t";
  name += std::to_string(n);
  return name;
}

void ExpectExactReconciliation(const FleetStats& s) {
  // Nothing lost, nothing double-counted.
  ASSERT_EQ(s.received, s.admitted + s.shed_fleet_capacity +
                            s.shed_tenant_quota + s.shed_fair_share);
  ASSERT_EQ(s.admitted, s.answered + s.deadline_expired + s.failed);
  ASSERT_EQ(s.hedges_sent, s.hedges_won + s.hedges_cancelled);
  ASSERT_EQ(s.latency_ms.count(), s.answered);
  uint64_t replica_receipts = 0;
  for (const ReplicaStatsEntry& r : s.replicas) {
    replica_receipts += r.service.received + r.crashed_rejections;
    // Each replica's own ledger reconciles too.
    ASSERT_EQ(r.service.received, r.service.admitted +
                                      r.service.shed_queue_full +
                                      r.service.shed_lint);
    ASSERT_EQ(r.service.admitted, r.service.completed +
                                      r.service.deadline_expired +
                                      r.service.failed);
  }
  ASSERT_EQ(s.dispatches, replica_receipts);
}

/// One deterministic inline chaos drill; returns the final stats JSON so
/// callers can assert bit-identical replays.
std::string RunInlineChaosDrill(size_t requests, size_t tenants,
                                size_t kill_every, FleetStats* out) {
  FakeClock clock;
  const dsp::ParallelQueryPlan plan = SoakPlan();
  FastFallback fallback;

  FleetOptions opts;
  opts.initial_replicas = 8;
  opts.replica.lint_admission = false;
  opts.replica.max_attempts = 2;
  opts.replica.backoff_base_ms = 0.0;
  opts.replica.backoff_max_ms = 0.0;
  opts.hedge.enabled = true;
  opts.hedge.initial_delay_ms = 2.0;
  auto factory = [&clock](uint32_t) -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<FlakyPredictor>(&clock, /*base_ms=*/0.02,
                                            /*slow_ms=*/1.0,
                                            /*fail_every=*/97,
                                            /*slow_every=*/41);
  };
  PredictionFleet fleet(factory, &fallback, opts, /*pool=*/nullptr, &clock);

  ControllerOptions copts;
  copts.min_replicas = 8;
  copts.max_replicas = 8;
  copts.restart_delay_ms = 5.0;
  FleetController controller(&fleet, copts, &clock);

  const uint64_t tenant_stream = DeriveSeed(2024, 3);
  const uint64_t kill_stream = DeriveSeed(2024, 4);
  uint64_t kill_count = 0;
  FleetRequest req;
  req.plan = &plan;
  for (size_t i = 0; i < requests; ++i) {
    req.tenant = TenantName(Mix64(tenant_stream ^ i) % tenants);
    const auto r = fleet.Predict(req);
    // Inline, within capacity, with a healthy fallback: every single
    // request must be answered.
    if (!r.ok()) ADD_FAILURE() << r.status().ToString();
    clock.AdvanceMillis(0.01);
    if (kill_every > 0 && (i + 1) % kill_every == 0) {
      const std::vector<uint32_t> alive = fleet.AliveReplicaIds();
      if (!alive.empty()) {
        ZT_CHECK_OK(fleet.KillReplica(
            alive[Mix64(kill_stream ^ kill_count++) % alive.size()]));
      }
    }
    if ((i + 1) % 256 == 0) (void)controller.Tick();
  }
  // The kill schedule may land its final kill after the last controller
  // tick; give the controller a deterministic chance to revive the fleet so
  // replicas_alive == replicas_total holds at snapshot time.
  for (int i = 0;
       i < 5 && fleet.AliveReplicaIds().size() <
                    static_cast<size_t>(opts.initial_replicas);
       ++i) {
    clock.AdvanceMillis(10.0);
    (void)controller.Tick();
  }
  *out = fleet.Snapshot();
  return out->ToJson();
}

TEST(FleetSoakTest, MillionRequestChaosDrillReconcilesExactly) {
#ifdef ZT_FLEET_SOAK_SANITIZED
  constexpr size_t kRequests = 100000;
#else
  constexpr size_t kRequests = 1000000;
#endif
  constexpr size_t kTenants = 1200;
  constexpr size_t kKillEvery = 5000;

  FleetStats stats;
  RunInlineChaosDrill(kRequests, kTenants, kKillEvery, &stats);

  EXPECT_EQ(stats.received, kRequests);
  EXPECT_EQ(stats.tenants_seen, kTenants);
  ExpectExactReconciliation(stats);

  // The chaos schedule actually ran: replicas died and were revived.
  EXPECT_EQ(stats.kills, kRequests / kKillEvery);
  EXPECT_GT(stats.restarts, 0u);
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_GT(stats.hedges_sent, 0u);

  // Availability: >= 99.9% of admitted requests answered (degraded
  // allowed) despite every replica crash. This config answers all.
  EXPECT_GE(stats.Availability(), 0.999);
  EXPECT_EQ(stats.answered, stats.admitted);
  EXPECT_EQ(stats.replicas_alive, stats.replicas_total);  // all revived
}

TEST(FleetSoakTest, InlineChaosDrillIsBitDeterministic) {
  FleetStats first_stats;
  FleetStats second_stats;
  const std::string first =
      RunInlineChaosDrill(30000, 500, 3000, &first_stats);
  const std::string second =
      RunInlineChaosDrill(30000, 500, 3000, &second_stats);
  EXPECT_EQ(first, second);
  EXPECT_GT(first_stats.kills, 0u);
  EXPECT_GT(first_stats.hedges_sent, 0u);
}

TEST(FleetSoakTest, ConcurrentChaosSoakReconcilesAtQuiescence) {
#ifdef ZT_FLEET_SOAK_SANITIZED
  constexpr size_t kRequestsPerCaller = 1500;
#else
  constexpr size_t kRequestsPerCaller = 4000;
#endif
  constexpr size_t kCallers = 8;
  constexpr size_t kTenants = 64;

  const dsp::ParallelQueryPlan plan = SoakPlan();
  FastFallback fallback;
  ThreadPool pool(8);

  FleetOptions opts;
  opts.initial_replicas = 4;
  opts.replica.lint_admission = false;
  opts.replica.max_attempts = 2;
  opts.replica.backoff_base_ms = 0.0;
  opts.replica.backoff_max_ms = 0.0;
  opts.replica.max_inflight = 8;
  opts.hedge.enabled = true;
  opts.hedge.initial_delay_ms = 0.5;
  SystemClock* clock = SystemClock::Default();
  auto factory = [clock](uint32_t) -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<FlakyPredictor>(clock, /*base_ms=*/0.0,
                                            /*slow_ms=*/1.0,
                                            /*fail_every=*/59,
                                            /*slow_every=*/23);
  };
  PredictionFleet fleet(factory, &fallback, opts, &pool, clock);

  ControllerOptions copts;
  copts.min_replicas = 4;
  copts.max_replicas = 4;
  copts.restart_delay_ms = 1.0;
  FleetController controller(&fleet, copts, clock);

  std::atomic<bool> running{true};

  // Chaos: kill a replica, let the fleet limp, revive it via the
  // controller, repeat — concurrently with the request load.
  std::thread chaos([&] {
    uint64_t n = 0;
    while (running.load()) {
      const std::vector<uint32_t> alive = fleet.AliveReplicaIds();
      if (alive.size() > 1) {
        (void)fleet.KillReplica(alive[Mix64(n++) % alive.size()]);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      (void)controller.Tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      (void)controller.Tick();
    }
  });

  // Sampler: concurrent snapshots must stay monotonic and respect the
  // disposition inequalities mid-flight (reverse-causal read order).
  std::atomic<uint64_t> sampler_violations{0};
  std::thread sampler([&] {
    FleetStats prev;
    while (running.load()) {
      const FleetStats s = fleet.Snapshot();
      if (s.received < prev.received || s.answered < prev.answered ||
          s.dispatches < prev.dispatches || s.kills < prev.kills ||
          s.restarts < prev.restarts) {
        ++sampler_violations;
      }
      if (s.received < s.admitted + s.shed_fleet_capacity +
                           s.shed_tenant_quota + s.shed_fair_share) {
        ++sampler_violations;
      }
      prev = s;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<uint64_t> ok_counts(kCallers, 0);
  std::vector<uint64_t> shed_counts(kCallers, 0);
  std::vector<uint64_t> deadline_counts(kCallers, 0);
  std::vector<uint64_t> other_counts(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      FleetRequest req;
      req.plan = &plan;
      for (size_t i = 0; i < kRequestsPerCaller; ++i) {
        const size_t g = c * kRequestsPerCaller + i;
        req.tenant = TenantName(Mix64(g) % kTenants);
        // Every 13th request carries a hopeless budget to exercise the
        // deadline disposition under concurrency.
        req.deadline_ms = (i % 13 == 12) ? 1e-6 : 0.0;
        const auto r = fleet.Predict(req);
        if (r.ok()) {
          ++ok_counts[c];
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          ++shed_counts[c];
        } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
          ++deadline_counts[c];
        } else {
          ++other_counts[c];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  pool.Wait();  // drain hedge losers so the ledger is quiescent
  running.store(false);
  chaos.join();
  sampler.join();

  // Leave the fleet fully revived.
  for (const uint32_t id : fleet.ReplicaIds()) {
    const auto health = fleet.replica_health(id);
    if (health.ok() && health.value() == ReplicaHealth::kDown) {
      ZT_CHECK_OK(fleet.RestartReplica(id));
    }
  }

  uint64_t ok = 0, shed = 0, deadline = 0, other = 0;
  for (size_t c = 0; c < kCallers; ++c) {
    ok += ok_counts[c];
    shed += shed_counts[c];
    deadline += deadline_counts[c];
    other += other_counts[c];
  }
  const uint64_t total = kCallers * kRequestsPerCaller;
  EXPECT_EQ(ok + shed + deadline + other, total);
  // With the fleet fallback of last resort, nothing ends untyped.
  EXPECT_EQ(other, 0u);
  EXPECT_EQ(sampler_violations.load(), 0u);

  const FleetStats s = fleet.Snapshot();
  EXPECT_EQ(s.received, total);
  EXPECT_EQ(s.answered, ok);
  EXPECT_EQ(s.shed_fleet_capacity + s.shed_tenant_quota + s.shed_fair_share,
            shed);
  EXPECT_EQ(s.deadline_expired, deadline);
  EXPECT_EQ(s.failed, 0u);
  ExpectExactReconciliation(s);

  // Availability criterion: >= 99.9% of admitted requests answered even
  // though replicas were being killed the whole time.
  EXPECT_GE(static_cast<double>(s.answered),
            0.999 * static_cast<double>(s.admitted - s.deadline_expired));
  EXPECT_GT(s.kills, 0u);
  EXPECT_GT(s.restarts, 0u);
}

}  // namespace
}  // namespace zerotune::serve::fleet
