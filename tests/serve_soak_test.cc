// Soak test for the serving runtime: >= 10k requests from concurrent
// caller threads through PredictionService under ~30% injected chaos.
// Proves liveness (every request gets an answer or a typed rejection —
// the ctest timeout catches hangs), the admission bound, and that the
// stats counters stay monotonic and consistent.
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/oracle_predictor.h"
#include "obs/metrics.h"
#include "dsp/cluster.h"
#include "dsp/parallel_plan.h"
#include "dsp/query_plan.h"
#include "serve/chaos_predictor.h"
#include "serve/prediction_service.h"

namespace zerotune::serve {
namespace {

constexpr size_t kCallers = 8;
constexpr size_t kRequestsPerCaller = 1250;  // 10k total

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

// Drives kCallers closed-loop callers through one service bounded at
// `max_inflight`, checks every liveness and ledger invariant, and stores
// how many requests were shed at admission in `*shed_out`.
void RunSoak(size_t max_inflight, uint64_t* shed_out) {
  core::OraclePredictor oracle;

  ChaosPredictor::Options chaos_opts;
  chaos_opts.fail_rate = 0.3;  // the ISSUE's 30% injected failure
  chaos_opts.slow_rate = 0.02;
  chaos_opts.slow_ms = 0.1;
  chaos_opts.seed = 99;
  ChaosPredictor chaos(&oracle, chaos_opts, nullptr);

  core::OraclePredictor fallback;

  ServeOptions opts;
  opts.max_inflight = max_inflight;
  opts.max_attempts = 2;
  opts.backoff_base_ms = 0.0;  // retry immediately; keep the soak fast
  opts.backoff_max_ms = 0.0;
  opts.breaker.window = 64;
  opts.breaker.min_samples = 16;
  // 30% chaos with one retry keeps the observed error rate well below
  // this, so the breaker should stay closed the whole run.
  opts.breaker.error_rate_to_trip = 0.9;

  PredictionService service(&chaos, &fallback, opts, nullptr);
  const dsp::ParallelQueryPlan plan = SoakPlan();

  std::atomic<bool> running{true};
  std::atomic<uint64_t> bound_violations{0};
  std::atomic<uint64_t> monotonicity_violations{0};

  // Sampler: concurrent snapshots must show monotonic counters and an
  // inflight count that never exceeds the admission bound.
  std::thread sampler([&] {
    ServiceStats prev;
    while (running.load()) {
      if (service.inflight() > max_inflight) ++bound_violations;
      const ServiceStats s = service.Snapshot();
      if (s.received < prev.received || s.admitted < prev.admitted ||
          s.completed < prev.completed ||
          s.shed_queue_full < prev.shed_queue_full ||
          s.shed_lint < prev.shed_lint ||
          s.deadline_expired < prev.deadline_expired ||
          s.failed < prev.failed || s.retries < prev.retries ||
          s.primary_failures < prev.primary_failures) {
        ++monotonicity_violations;
      }
      prev = s;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Per-caller tallies, merged after the join.
  std::vector<uint64_t> ok_counts(kCallers, 0);
  std::vector<uint64_t> shed_counts(kCallers, 0);
  std::vector<uint64_t> deadline_counts(kCallers, 0);
  std::vector<uint64_t> other_counts(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t i = 0; i < kRequestsPerCaller; ++i) {
        // Every 11th request carries an already-hopeless budget to drive
        // the deadline path; the rest are unbounded.
        const double deadline_ms = (i % 11 == 10) ? 1e-6 : 0.0;
        const auto r = service.Predict(plan, deadline_ms);
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
  running.store(false);
  sampler.join();

  uint64_t ok = 0, shed = 0, deadline = 0, other = 0;
  for (size_t c = 0; c < kCallers; ++c) {
    ok += ok_counts[c];
    shed += shed_counts[c];
    deadline += deadline_counts[c];
    other += other_counts[c];
  }
  *shed_out = shed;
  const uint64_t total = kCallers * kRequestsPerCaller;
  // Every request was answered: a value or a typed rejection.
  EXPECT_EQ(ok + shed + deadline + other, total);
  // With an always-healthy fallback nothing should end untyped/failed.
  EXPECT_EQ(other, 0u);

  EXPECT_EQ(bound_violations.load(), 0u);
  EXPECT_EQ(monotonicity_violations.load(), 0u);

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.received, total);
  EXPECT_EQ(s.received, s.admitted + s.shed_queue_full + s.shed_lint);
  EXPECT_EQ(s.admitted, s.completed + s.deadline_expired + s.failed);
  EXPECT_EQ(s.shed_lint, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.completed, ok);
  EXPECT_EQ(s.shed_queue_full, shed);
  EXPECT_EQ(s.deadline_expired, deadline);
  EXPECT_EQ(s.latency_ms.count(), s.completed);
  // 30% chaos actually bit: failures and retries happened, and some
  // requests were served degraded by the fallback.
  EXPECT_GT(s.primary_failures, 0u);
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.degraded, 0u);
  EXPECT_GT(chaos.injected_failures(), 0u);
  EXPECT_EQ(service.inflight(), 0u);

  // The service's counters live on the global metrics registry (one
  // labelled series per instance). After the run the registry must agree
  // exactly with the Snapshot() view — same atomics, read at quiescence —
  // and therefore satisfy the same disposition invariants.
  auto* reg = obs::MetricsRegistry::Global();
  const obs::Labels& labels = service.metric_labels();
  const auto counter = [&](const char* name) {
    const auto v = reg->CounterValue(name, labels);
    EXPECT_TRUE(v.has_value()) << name;
    return v.value_or(0);
  };
  EXPECT_EQ(counter("serve.received_total"), s.received);
  EXPECT_EQ(counter("serve.admitted_total"), s.admitted);
  EXPECT_EQ(counter("serve.shed_queue_full_total"), s.shed_queue_full);
  EXPECT_EQ(counter("serve.shed_lint_total"), s.shed_lint);
  EXPECT_EQ(counter("serve.completed_total"), s.completed);
  EXPECT_EQ(counter("serve.degraded_total"), s.degraded);
  EXPECT_EQ(counter("serve.deadline_expired_total"), s.deadline_expired);
  EXPECT_EQ(counter("serve.failed_total"), s.failed);
  EXPECT_EQ(counter("serve.retries_total"), s.retries);
  EXPECT_EQ(counter("serve.primary_failures_total"), s.primary_failures);
  EXPECT_EQ(counter("serve.fallback_failures_total"), s.fallback_failures);
  const auto lat = reg->HistogramSnapshot("serve.latency_ms", labels);
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(lat->count(), s.completed);
}

TEST(ServeSoakTest, TenThousandRequestsUnderChaos) {
  // Each caller holds at most one slot, so with as many slots as callers
  // a request always finds one free: nothing may be shed.
  uint64_t shed = 0;
  RunSoak(/*max_inflight=*/kCallers, &shed);
  EXPECT_EQ(shed, 0u);
}

TEST(ServeSoakTest, AdmissionBoundShedsWhenCallersOutnumberSlots) {
  // Half as many slots as callers: the bound must bite, and RunSoak's
  // sampler checks that inflight() never exceeds it.
  uint64_t shed = 0;
  RunSoak(/*max_inflight=*/kCallers / 2, &shed);
  EXPECT_GT(shed, 0u);
}

}  // namespace
}  // namespace zerotune::serve
