// Tests for the resilient serving layer (serve/prediction_service.h) on a
// FakeClock: admission lint gate, admission-bound backpressure, deadline
// budgets, retry/backoff accounting, degraded fallback, breaker
// trip/recovery, the stats invariants, and that a request runs on the
// thread that called Predict().
#include "serve/prediction_service.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "dsp/cluster.h"
#include "dsp/parallel_plan.h"
#include "dsp/query_plan.h"

namespace zerotune::serve {
namespace {

using core::CostPrediction;

dsp::QueryPlan SmallQuery() {
  dsp::QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 50000.0;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  const int f = q.AddFilter(src, dsp::FilterProperties{}).value();
  const int a = q.AddWindowAggregate(f, dsp::AggregateProperties{}).value();
  ZT_CHECK_OK(q.AddSink(a));
  return q;
}

dsp::ParallelQueryPlan ValidPlan() {
  dsp::ParallelQueryPlan plan(SmallQuery(),
                              dsp::Cluster::Homogeneous("m510", 2).value());
  ZT_CHECK_OK(plan.SetUniformParallelism(2));
  ZT_CHECK_OK(plan.PlaceRoundRobin());
  return plan;
}

// A deployment the static analyzer rejects with an error: the keyed
// aggregate (op 2) parallelized without hash partitioning is ZT-P017.
dsp::ParallelQueryPlan LintBadPlan() {
  dsp::ParallelQueryPlan plan = ValidPlan();
  ZT_CHECK_OK(plan.SetPartitioning(2, dsp::PartitioningStrategy::kRebalance));
  return plan;
}

/// Plays back a scripted sequence of outcomes; the last step repeats
/// forever. Latency is injected on the provided clock (FakeClock in these
/// tests, so "slow" means virtual time only).
class ScriptedPredictor : public core::CostPredictor {
 public:
  struct Step {
    bool fail = false;
    double latency_ms = 0.0;
  };

  ScriptedPredictor(std::vector<Step> steps, Clock* clock,
                    CostPrediction value = {12.0, 48000.0})
      : steps_(std::move(steps)), clock_(clock), value_(value) {}

  Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan&) const override {
    Step step;
    {
      std::lock_guard<std::mutex> g(mu_);
      step = steps_.empty()
                 ? Step{}
                 : steps_[std::min(calls_, steps_.size() - 1)];
      ++calls_;
    }
    if (step.latency_ms > 0.0 && clock_ != nullptr) {
      clock_->SleepFor(static_cast<int64_t>(step.latency_ms * 1e6));
    }
    if (step.fail) return Status::Internal("scripted primary failure");
    return value_;
  }

  std::string name() const override { return "scripted"; }

  size_t calls() const {
    std::lock_guard<std::mutex> g(mu_);
    return calls_;
  }

 private:
  std::vector<Step> steps_;
  Clock* clock_;
  CostPrediction value_;
  mutable std::mutex mu_;
  mutable size_t calls_ = 0;
};

ScriptedPredictor AlwaysOk(Clock* clock, CostPrediction value = {12.0,
                                                                 48000.0}) {
  return ScriptedPredictor({{false, 0.0}}, clock, value);
}

ScriptedPredictor AlwaysFail(Clock* clock) {
  return ScriptedPredictor({{true, 0.0}}, clock);
}

void ExpectInvariants(const ServiceStats& s) {
  EXPECT_EQ(s.received, s.admitted + s.shed_queue_full + s.shed_lint);
  EXPECT_EQ(s.admitted, s.completed + s.deadline_expired + s.failed);
  EXPECT_EQ(s.latency_ms.count(), s.completed);
  EXPECT_GE(s.completed, s.degraded);
}

TEST(ServeOptionsTest, ValidatesRanges) {
  EXPECT_TRUE(ServeOptions().Validate().ok());
  ServeOptions o;
  o.max_inflight = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = ServeOptions();
  o.max_attempts = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = ServeOptions();
  o.backoff_max_ms = o.backoff_base_ms - 1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = ServeOptions();
  o.backoff_jitter = -0.1;
  EXPECT_FALSE(o.Validate().ok());
  o = ServeOptions();
  o.default_deadline_ms = -1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = ServeOptions();
  o.breaker.window = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(PredictionServiceTest, ServesHealthyPrimary) {
  FakeClock clock;
  ScriptedPredictor primary = AlwaysOk(&clock, {7.0, 9000.0});
  ScriptedPredictor fallback = AlwaysOk(&clock, {99.0, 1.0});
  PredictionService service(&primary, &fallback, ServeOptions(), &clock);

  const dsp::ParallelQueryPlan plan = ValidPlan();
  const auto r = service.Predict(plan);
  ZT_CHECK_OK(r.status());
  EXPECT_FALSE(r.value().degraded);
  EXPECT_EQ(r.value().attempts, 1u);
  EXPECT_DOUBLE_EQ(r.value().cost.latency_ms, 7.0);
  EXPECT_DOUBLE_EQ(r.value().cost.throughput_tps, 9000.0);
  EXPECT_EQ(fallback.calls(), 0u);

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.received, 1u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.degraded, 0u);
  EXPECT_EQ(s.retries, 0u);
  ExpectInvariants(s);
}

TEST(PredictionServiceTest, InvalidOptionsFailEveryRequest) {
  FakeClock clock;
  ScriptedPredictor primary = AlwaysOk(&clock);
  ServeOptions opts;
  opts.max_attempts = 0;
  PredictionService service(&primary, nullptr, opts, &clock);
  const dsp::ParallelQueryPlan plan = ValidPlan();
  const auto r = service.Predict(plan);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(primary.calls(), 0u);
}

TEST(PredictionServiceTest, LintGateShedsBadPlanWithDiagnosticCode) {
  FakeClock clock;
  ScriptedPredictor primary = AlwaysOk(&clock);
  PredictionService service(&primary, nullptr, ServeOptions(), &clock);
  const dsp::ParallelQueryPlan bad = LintBadPlan();
  const auto r = service.Predict(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("ZT-P017"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("shed at admission"),
            std::string::npos);
  // The primary never saw the invalid plan.
  EXPECT_EQ(primary.calls(), 0u);

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.shed_lint, 1u);
  EXPECT_EQ(s.admitted, 0u);
  ExpectInvariants(s);
}

TEST(PredictionServiceTest, LintGateCanBeDisabled) {
  FakeClock clock;
  ScriptedPredictor primary = AlwaysOk(&clock);
  ServeOptions opts;
  opts.lint_admission = false;
  PredictionService service(&primary, nullptr, opts, &clock);
  const dsp::ParallelQueryPlan bad = LintBadPlan();
  ZT_CHECK_OK(service.Predict(bad).status());
  EXPECT_EQ(primary.calls(), 1u);
}

// A primary that re-enters the service, proving the admission bound
// rejects the nested request deterministically (inflight is held by the
// outer one).
class ReentrantPredictor : public core::CostPredictor {
 public:
  Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan& plan) const override {
    nested_status_ = service->Predict(plan).status();
    return CostPrediction{1.0, 1.0};
  }
  std::string name() const override { return "reentrant"; }

  PredictionService* service = nullptr;
  mutable Status nested_status_ = Status::OK();
};

TEST(PredictionServiceTest, AdmissionBoundShedsWithResourceExhausted) {
  FakeClock clock;
  ReentrantPredictor primary;
  ServeOptions opts;
  opts.max_inflight = 1;
  PredictionService service(&primary, nullptr, opts, &clock);
  primary.service = &service;

  const dsp::ParallelQueryPlan plan = ValidPlan();
  ZT_CHECK_OK(service.Predict(plan).status());
  EXPECT_EQ(primary.nested_status_.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(primary.nested_status_.message().find("request shed"),
            std::string::npos);

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.received, 2u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.shed_queue_full, 1u);
  EXPECT_EQ(s.completed, 1u);
  ExpectInvariants(s);
}

// Regression: a request parked in retry backoff must not occupy an
// admission slot. Before the fix, a single retrying request with
// max_inflight = 1 held the slot through its backoff sleep and every
// concurrent request was shed; now the slot is released for the duration
// of the sleep (inflight() excludes backing_off()). Real clock + real
// threads: FakeClock cannot block one thread while another runs.
TEST(PredictionServiceTest, BackoffSleepReleasesAdmissionSlot) {
  SystemClock clock;
  // First call fails (forcing a backoff sleep before the retry); every
  // call after that succeeds immediately.
  ScriptedPredictor primary({{true, 0.0}, {false, 0.0}}, &clock);
  ServeOptions opts;
  opts.max_inflight = 1;
  opts.max_attempts = 2;
  opts.backoff_base_ms = 300.0;  // long enough for B to run while A sleeps
  opts.backoff_max_ms = 300.0;
  opts.backoff_jitter = 0.0;
  PredictionService service(&primary, nullptr, opts, &clock);
  const dsp::ParallelQueryPlan plan = ValidPlan();

  std::thread a([&] { ZT_CHECK_OK(service.Predict(plan).status()); });

  // Wait until A is parked in its backoff sleep with the slot released.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.backing_off() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(service.backing_off(), 1u) << "A never reached backoff";
  EXPECT_EQ(service.inflight(), 0u);

  // B must be admitted while A sleeps; pre-fix it was shed kQueueFull.
  const auto b = service.Predict(plan);
  ZT_CHECK_OK(b.status());
  a.join();

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.received, 2u);
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.shed_queue_full, 0u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(service.inflight(), 0u);
  EXPECT_EQ(service.backing_off(), 0u);
  ExpectInvariants(s);
}

TEST(PredictionServiceTest, RetriesWithBackoffThenSucceeds) {
  FakeClock clock;
  ScriptedPredictor primary({{true, 0.0}, {true, 0.0}, {false, 0.0}},
                            &clock);
  ServeOptions opts;
  opts.backoff_base_ms = 1.0;
  opts.backoff_jitter = 0.0;  // deterministic: sleeps are exactly 1ms, 2ms
  PredictionService service(&primary, nullptr, opts, &clock);

  const dsp::ParallelQueryPlan plan = ValidPlan();
  const auto r = service.Predict(plan);
  ZT_CHECK_OK(r.status());
  EXPECT_FALSE(r.value().degraded);
  EXPECT_EQ(r.value().attempts, 3u);
  EXPECT_DOUBLE_EQ(r.value().total_ms, 3.0);  // backoff 1ms + 2ms
  EXPECT_EQ(primary.calls(), 3u);

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.primary_failures, 2u);
  EXPECT_EQ(s.completed, 1u);
  ExpectInvariants(s);
}

TEST(PredictionServiceTest, ExhaustedAttemptsDegradeToFallback) {
  FakeClock clock;
  ScriptedPredictor primary = AlwaysFail(&clock);
  ScriptedPredictor fallback = AlwaysOk(&clock, {42.0, 100.0});
  ServeOptions opts;
  opts.max_attempts = 3;
  opts.backoff_jitter = 0.0;
  PredictionService service(&primary, &fallback, opts, &clock);

  const dsp::ParallelQueryPlan plan = ValidPlan();
  const auto r = service.Predict(plan);
  ZT_CHECK_OK(r.status());
  EXPECT_TRUE(r.value().degraded);
  EXPECT_EQ(r.value().attempts, 3u);
  EXPECT_DOUBLE_EQ(r.value().cost.latency_ms, 42.0);
  EXPECT_EQ(primary.calls(), 3u);
  EXPECT_EQ(fallback.calls(), 1u);

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.degraded, 1u);
  EXPECT_EQ(s.primary_failures, 3u);
  EXPECT_EQ(s.retries, 2u);
  ExpectInvariants(s);
}

TEST(PredictionServiceTest, NoFallbackSurfacesPrimaryError) {
  FakeClock clock;
  ScriptedPredictor primary = AlwaysFail(&clock);
  ServeOptions opts;
  opts.max_attempts = 2;
  PredictionService service(&primary, nullptr, opts, &clock);

  const dsp::ParallelQueryPlan plan = ValidPlan();
  const auto r = service.Predict(plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("failed 2 attempt(s)"),
            std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("no fallback configured"),
            std::string::npos);

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.failed, 1u);
  ExpectInvariants(s);
}

TEST(PredictionServiceTest, FailingFallbackCountsAndSurfacesBothErrors) {
  FakeClock clock;
  ScriptedPredictor primary = AlwaysFail(&clock);
  ScriptedPredictor fallback = AlwaysFail(&clock);
  ServeOptions opts;
  opts.max_attempts = 1;
  PredictionService service(&primary, &fallback, opts, &clock);

  const dsp::ParallelQueryPlan plan = ValidPlan();
  const auto r = service.Predict(plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("fallback failed"), std::string::npos);

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.fallback_failures, 1u);
  ExpectInvariants(s);
}

TEST(PredictionServiceTest, SlowPrimaryExhaustsDeadlineBudget) {
  FakeClock clock;
  // Each attempt burns 10ms of virtual time and fails; the 5ms budget is
  // gone after the first, so no retry is attempted.
  ScriptedPredictor primary({{true, 10.0}}, &clock);
  ScriptedPredictor fallback = AlwaysOk(&clock);
  PredictionService service(&primary, &fallback, ServeOptions(), &clock);

  const dsp::ParallelQueryPlan plan = ValidPlan();
  const auto r = service.Predict(plan, /*deadline_ms=*/5.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("1 primary attempt(s)"),
            std::string::npos)
      << r.status().message();
  EXPECT_EQ(primary.calls(), 1u);

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.deadline_expired, 1u);
  EXPECT_EQ(s.retries, 0u);
  ExpectInvariants(s);
}

TEST(PredictionServiceTest, BackoffIsCappedAtTheRemainingBudget) {
  FakeClock clock;
  ScriptedPredictor primary = AlwaysFail(&clock);
  ServeOptions opts;
  opts.backoff_base_ms = 100.0;  // nominal first backoff far beyond budget
  opts.backoff_max_ms = 100.0;
  opts.backoff_jitter = 0.0;
  PredictionService service(&primary, nullptr, opts, &clock);

  const dsp::ParallelQueryPlan plan = ValidPlan();
  const int64_t t0 = clock.NowNanos();
  const auto r = service.Predict(plan, /*deadline_ms=*/50.0);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // The retry sleep was truncated to the 50ms budget, not the nominal
  // 100ms backoff.
  EXPECT_NEAR(clock.MillisSince(t0), 50.0, 1e-6);
}

TEST(PredictionServiceTest, DefaultDeadlineApplies) {
  FakeClock clock;
  ScriptedPredictor primary({{true, 10.0}}, &clock);
  ServeOptions opts;
  opts.default_deadline_ms = 5.0;
  PredictionService service(&primary, nullptr, opts, &clock);
  const dsp::ParallelQueryPlan plan = ValidPlan();
  EXPECT_EQ(service.Predict(plan).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(PredictionServiceTest, BreakerTripsShortCircuitsAndRecovers) {
  FakeClock clock;
  // Four failures trip the breaker; the script then succeeds forever, so
  // the half-open probe after the cooldown recovers it.
  ScriptedPredictor primary(
      {{true, 0.0}, {true, 0.0}, {true, 0.0}, {true, 0.0}, {false, 0.0}},
      &clock);
  ScriptedPredictor fallback = AlwaysOk(&clock, {5.0, 5.0});
  ServeOptions opts;
  opts.max_attempts = 1;
  opts.breaker.window = 8;
  opts.breaker.min_samples = 4;
  opts.breaker.error_rate_to_trip = 0.5;
  opts.breaker.open_duration_ms = 100.0;
  opts.breaker.half_open_probes = 1;
  PredictionService service(&primary, &fallback, opts, &clock);

  const dsp::ParallelQueryPlan plan = ValidPlan();
  // Requests 1-4: primary fails, fallback answers, breaker trips on #4.
  for (int i = 0; i < 4; ++i) {
    const auto r = service.Predict(plan);
    ZT_CHECK_OK(r.status());
    EXPECT_TRUE(r.value().degraded);
    EXPECT_EQ(r.value().attempts, 1u);
  }
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kOpen);

  // Request 5: circuit open, primary skipped entirely (attempts == 0).
  const auto shorted = service.Predict(plan);
  ZT_CHECK_OK(shorted.status());
  EXPECT_TRUE(shorted.value().degraded);
  EXPECT_EQ(shorted.value().attempts, 0u);
  EXPECT_EQ(primary.calls(), 4u);

  // After the cooldown the half-open probe succeeds and closes the
  // breaker; the answer is a healthy primary one.
  clock.AdvanceMillis(101.0);
  const auto recovered = service.Predict(plan);
  ZT_CHECK_OK(recovered.status());
  EXPECT_FALSE(recovered.value().degraded);
  EXPECT_EQ(recovered.value().attempts, 1u);
  EXPECT_EQ(service.breaker_state(), CircuitBreaker::State::kClosed);

  const ServiceStats s = service.Snapshot();
  EXPECT_EQ(s.breaker_trips, 1u);
  EXPECT_EQ(s.breaker_recoveries, 1u);
  EXPECT_EQ(s.breaker_state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(s.completed, 6u);
  EXPECT_EQ(s.degraded, 5u);
  ExpectInvariants(s);
}

TEST(PredictionServiceTest, StatsRenderAsTextAndJson) {
  FakeClock clock;
  ScriptedPredictor primary = AlwaysOk(&clock);
  PredictionService service(&primary, nullptr, ServeOptions(), &clock);
  const dsp::ParallelQueryPlan plan = ValidPlan();
  ZT_CHECK_OK(service.Predict(plan).status());

  const ServiceStats s = service.Snapshot();
  const std::string text = s.ToText();
  EXPECT_NE(text.find("received 1"), std::string::npos) << text;
  EXPECT_NE(text.find("breaker: closed"), std::string::npos) << text;

  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"received\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"breaker_state\": \"closed\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"latency_ms\": {\"count\": 1"), std::string::npos)
      << json;
}

// Records the thread each Predict() runs on.
class ThreadRecordingPredictor : public core::CostPredictor {
 public:
  Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan&) const override {
    thread_id = std::this_thread::get_id();
    return CostPrediction{1.0, 1.0};
  }
  std::string name() const override { return "thread-recording"; }

  mutable std::thread::id thread_id;
};

TEST(PredictionServiceTest, PredictRunsOnCallingThread) {
  FakeClock clock;
  ThreadRecordingPredictor primary;
  PredictionService service(&primary, nullptr, ServeOptions(), &clock);
  const dsp::ParallelQueryPlan plan = ValidPlan();
  std::thread::id caller;
  std::thread t([&] {
    caller = std::this_thread::get_id();
    ZT_CHECK_OK(service.Predict(plan).status());
  });
  t.join();
  EXPECT_NE(caller, std::thread::id());
  EXPECT_EQ(primary.thread_id, caller);
}

TEST(PredictionServiceTest, InflightReturnsToZeroAtQuiescence) {
  FakeClock clock;
  ScriptedPredictor primary = AlwaysOk(&clock);
  PredictionService service(&primary, nullptr, ServeOptions(), &clock);
  const dsp::ParallelQueryPlan plan = ValidPlan();
  for (int i = 0; i < 5; ++i) {
    ZT_CHECK_OK(service.Predict(plan).status());
  }
  EXPECT_EQ(service.inflight(), 0u);
}

}  // namespace
}  // namespace zerotune::serve
