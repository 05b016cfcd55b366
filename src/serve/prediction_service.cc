#include "serve/prediction_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "analysis/plan_analyzer.h"
#include "obs/trace.h"

namespace zerotune::serve {

namespace {

bool DeadlineReached(Clock* clock, int64_t deadline_nanos) {
  return deadline_nanos != kNoDeadlineNanos &&
         clock->NowNanos() >= deadline_nanos;
}

// Process-wide instance numbering so concurrent services (tests spin up
// many) get disjoint serve.* series in the global registry; caller labels
// (e.g. the fleet's {"replica", <id>}) ride along on every series.
obs::Labels NextInstanceLabels(const obs::Labels& extra) {
  static std::atomic<uint64_t> next{0};
  obs::Labels labels = extra;
  labels.emplace_back(
      "instance",
      std::to_string(next.fetch_add(1, std::memory_order_relaxed)));
  return labels;
}

}  // namespace

Status ServeOptions::Validate() const {
  if (max_inflight == 0) {
    return Status::InvalidArgument("serve max_inflight must be >= 1");
  }
  if (max_attempts == 0) {
    return Status::InvalidArgument("serve max_attempts must be >= 1");
  }
  if (!std::isfinite(default_deadline_ms) || default_deadline_ms < 0.0) {
    return Status::InvalidArgument(
        "serve default_deadline_ms must be non-negative and finite");
  }
  if (!std::isfinite(backoff_base_ms) || backoff_base_ms < 0.0) {
    return Status::InvalidArgument(
        "serve backoff_base_ms must be non-negative and finite");
  }
  if (!std::isfinite(backoff_max_ms) || backoff_max_ms < backoff_base_ms) {
    return Status::InvalidArgument(
        "serve backoff_max_ms must be finite and >= backoff_base_ms");
  }
  if (!std::isfinite(backoff_jitter) || backoff_jitter < 0.0) {
    return Status::InvalidArgument(
        "serve backoff_jitter must be non-negative and finite");
  }
  return breaker.Validate();
}

std::string ServiceStats::ToText() const {
  std::ostringstream os;
  os << "model: version " << model_version << "\n"
     << "requests: received " << received << ", admitted " << admitted
     << ", completed " << completed << " (" << degraded << " degraded)\n"
     << "shed: queue-full " << shed_queue_full << ", lint " << shed_lint
     << "; deadline-expired " << deadline_expired << "; failed " << failed
     << "\n"
     << "primary: failures " << primary_failures << ", retries " << retries
     << "; fallback failures " << fallback_failures << "\n"
     << "breaker: " << CircuitBreaker::ToString(breaker_state) << ", trips "
     << breaker_trips << ", recoveries " << breaker_recoveries << "\n"
     << "latency_ms: " << latency_ms.Summary() << "\n";
  return os.str();
}

std::string ServiceStats::ToJson() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"model_version\": " << model_version
     << ", \"received\": " << received << ", \"admitted\": " << admitted
     << ", \"completed\": " << completed << ", \"degraded\": " << degraded
     << ", \"shed_queue_full\": " << shed_queue_full
     << ", \"shed_lint\": " << shed_lint
     << ", \"deadline_expired\": " << deadline_expired
     << ", \"failed\": " << failed << ", \"retries\": " << retries
     << ", \"primary_failures\": " << primary_failures
     << ", \"fallback_failures\": " << fallback_failures
     << ", \"breaker_state\": \"" << CircuitBreaker::ToString(breaker_state)
     << "\", \"breaker_trips\": " << breaker_trips
     << ", \"breaker_recoveries\": " << breaker_recoveries
     << ", \"latency_ms\": {\"count\": " << latency_ms.count();
  if (latency_ms.count() > 0) {
    os << ", \"mean\": " << latency_ms.Mean()
       << ", \"p50\": " << latency_ms.Percentile(50)
       << ", \"p95\": " << latency_ms.Percentile(95)
       << ", \"p99\": " << latency_ms.Percentile(99)
       << ", \"max\": " << latency_ms.max();
  }
  os << "}}";
  return os.str();
}

PredictionService::PredictionService(const core::CostPredictor* primary,
                                     const core::CostPredictor* fallback,
                                     ServeOptions options, Clock* clock)
    : primary_(primary),
      fallback_(fallback),
      options_(options),
      options_status_(options.Validate()),
      clock_(clock != nullptr ? clock : SystemClock::Default()),
      breaker_(options.breaker, clock_),
      metric_labels_(NextInstanceLabels(options.metric_labels)),
      rng_(options.seed) {
  auto* metrics = obs::MetricsRegistry::Global();
  received_ = metrics->GetCounter("serve.received_total", metric_labels_);
  admitted_ = metrics->GetCounter("serve.admitted_total", metric_labels_);
  shed_queue_full_ =
      metrics->GetCounter("serve.shed_queue_full_total", metric_labels_);
  shed_lint_ = metrics->GetCounter("serve.shed_lint_total", metric_labels_);
  completed_ = metrics->GetCounter("serve.completed_total", metric_labels_);
  degraded_ = metrics->GetCounter("serve.degraded_total", metric_labels_);
  deadline_expired_ =
      metrics->GetCounter("serve.deadline_expired_total", metric_labels_);
  failed_ = metrics->GetCounter("serve.failed_total", metric_labels_);
  retries_ = metrics->GetCounter("serve.retries_total", metric_labels_);
  primary_failures_ =
      metrics->GetCounter("serve.primary_failures_total", metric_labels_);
  fallback_failures_ =
      metrics->GetCounter("serve.fallback_failures_total", metric_labels_);
  latency_ms_ = metrics->GetHistogram("serve.latency_ms", metric_labels_);
  metrics->GetGauge("serve.model_version", metric_labels_)
      ->Set(static_cast<double>(options_.model_version));
}

Result<ServedPrediction> PredictionService::Predict(
    const dsp::ParallelQueryPlan& plan) {
  return Predict(plan, options_.default_deadline_ms);
}

Result<ServedPrediction> PredictionService::Predict(
    const dsp::ParallelQueryPlan& plan, double deadline_ms) {
  received_->Increment();
  ZT_RETURN_IF_ERROR(options_status_);

  // Static-analysis gate: a plan the analyzer rejects would only waste
  // inference budget (or crash the featurizer), so it is shed up front
  // with the ZT-Pxxx codes in the status message.
  if (options_.lint_admission) {
    const Status lint = analysis::PlanAnalyzer::Check(plan);
    if (!lint.ok()) {
      shed_lint_->Increment();
      return lint.Annotated("shed at admission");
    }
  }

  // Bounded admission: beyond max_inflight the request is shed — the
  // caller gets explicit backpressure it can react to. Requests parked in
  // backoff sleep are discounted: they hold no execution resources, so
  // counting them against the bound would let a burst of retrying requests
  // starve fresh admissions.
  {
    MutexLock g(admission_mu_);
    if (inflight_ - backing_off_ >= options_.max_inflight) {
      shed_queue_full_->Increment();
      return Status::ResourceExhausted(
          "service at capacity (" + std::to_string(options_.max_inflight) +
          " in flight); request shed");
    }
    ++inflight_;
  }
  admitted_->Increment();

  const int64_t admitted_nanos = clock_->NowNanos();
  const int64_t deadline_nanos =
      deadline_ms > 0.0
          ? admitted_nanos + static_cast<int64_t>(deadline_ms * 1e6)
          : kNoDeadlineNanos;
  Result<ServedPrediction> result =
      Execute(plan, deadline_nanos, admitted_nanos);
  MutexLock g(admission_mu_);
  --inflight_;
  return result;
}

Result<ServedPrediction> PredictionService::Execute(
    const dsp::ParallelQueryPlan& plan, int64_t deadline_nanos,
    int64_t admitted_nanos) {
  obs::Span span("serve/execute");
  Result<ServedPrediction> result =
      ExecuteAttempts(plan, deadline_nanos, admitted_nanos);
  span.AddArg("ok", result.ok() ? "true" : "false");
  FinishRequest(result);
  return result;
}

void PredictionService::FinishRequest(const Result<ServedPrediction>& result) {
  if (result.ok()) {
    // completed before degraded: a snapshot reading degraded first can
    // then never observe degraded > completed.
    completed_->Increment();
    if (result.value().degraded) degraded_->Increment();
    latency_ms_->Record(std::max(result.value().total_ms, 1e-6));
  } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
    deadline_expired_->Increment();
  } else {
    failed_->Increment();
  }
}

void PredictionService::SleepBackoff(size_t attempt, int64_t deadline_nanos) {
  double ms = std::min(
      options_.backoff_max_ms,
      options_.backoff_base_ms *
          std::pow(2.0, static_cast<double>(attempt - 1)));
  {
    MutexLock g(rng_mu_);
    ms *= rng_.Uniform(1.0, 1.0 + options_.backoff_jitter);
  }
  if (deadline_nanos != kNoDeadlineNanos) {
    // Never sleep past the budget; the loop's deadline check fires next.
    const double remaining_ms =
        static_cast<double>(deadline_nanos - clock_->NowNanos()) / 1e6;
    ms = std::min(ms, std::max(remaining_ms, 0.0));
  }
  if (ms > 0.0) {
    // Release the admission slot for the duration of the sleep: a request
    // waiting out its backoff consumes no execution resources, so fresh
    // requests may take its place. On wake the request resumes without
    // re-acquiring a slot, so total residency can transiently exceed
    // max_inflight (bounded by max_inflight * max_attempts); what the
    // bound strictly limits is slots held at admission time.
    {
      MutexLock g(admission_mu_);
      ++backing_off_;
    }
    clock_->SleepFor(static_cast<int64_t>(ms * 1e6));
    MutexLock g(admission_mu_);
    --backing_off_;
  }
}

Result<ServedPrediction> PredictionService::ExecuteAttempts(
    const dsp::ParallelQueryPlan& plan, int64_t deadline_nanos,
    int64_t admitted_nanos) {
  size_t attempts = 0;
  Status last_error = Status::OK();

  while (attempts < options_.max_attempts) {
    if (DeadlineReached(clock_, deadline_nanos)) {
      return Status::DeadlineExceeded(
          "prediction budget exhausted after " + std::to_string(attempts) +
          " primary attempt(s)");
    }
    if (!breaker_.AllowPrimary()) break;  // circuit open: degrade
    ++attempts;
    const int64_t t0 = clock_->NowNanos();
    const Result<core::CostPrediction> r = primary_->Predict(plan);
    const double attempt_ms = clock_->MillisSince(t0);
    if (r.ok()) {
      breaker_.RecordSuccess(attempt_ms);
      ServedPrediction served;
      served.cost = r.value();
      served.attempts = attempts;
      served.total_ms = clock_->MillisSince(admitted_nanos);
      served.model_version = options_.model_version;
      return served;
    }
    breaker_.RecordFailure();
    last_error = r.status();
    primary_failures_->Increment();
    if (attempts < options_.max_attempts &&
        !DeadlineReached(clock_, deadline_nanos)) {
      retries_->Increment();
      SleepBackoff(attempts, deadline_nanos);
    }
  }

  // Degraded mode: circuit open or every attempt failed. The fallback is
  // cheap and local, so it runs even with the deadline near — a degraded
  // answer beats none.
  const std::string primary_desc =
      attempts == 0 ? "circuit open"
                    : "failed " + std::to_string(attempts) + " attempt(s), " +
                          "last: " + last_error.ToString();
  if (fallback_ != nullptr) {
    const Result<core::CostPrediction> fb = fallback_->Predict(plan);
    if (fb.ok()) {
      ServedPrediction served;
      served.cost = fb.value();
      served.degraded = true;
      served.attempts = attempts;
      served.total_ms = clock_->MillisSince(admitted_nanos);
      // The fallback is unversioned; record which primary version could
      // not answer so degraded traffic is attributable to a rollout.
      served.degraded_from_version = options_.model_version;
      return served;
    }
    fallback_failures_->Increment();
    return Status::Unavailable("primary " + primary_desc +
                               "; fallback failed: " +
                               fb.status().ToString());
  }
  return Status::Unavailable("primary " + primary_desc +
                             "; no fallback configured");
}

ServiceStats PredictionService::Snapshot() const {
  ServiceStats snap;
  // Reverse-causal read order. Each request increments received, then
  // admitted (or a shed counter), then exactly one disposition — so
  // reading dispositions first, then admitted, then the admission-side
  // counters guarantees every snapshot satisfies
  //   degraded <= completed,
  //   completed + deadline_expired + failed <= admitted,
  //   admitted + shed_queue_full + shed_lint <= received,
  // with equality at quiescence.
  snap.latency_ms = latency_ms_->Snapshot();
  snap.degraded = degraded_->Value();
  snap.completed = completed_->Value();
  snap.deadline_expired = deadline_expired_->Value();
  snap.failed = failed_->Value();
  snap.retries = retries_->Value();
  snap.primary_failures = primary_failures_->Value();
  snap.fallback_failures = fallback_failures_->Value();
  snap.admitted = admitted_->Value();
  snap.shed_queue_full = shed_queue_full_->Value();
  snap.shed_lint = shed_lint_->Value();
  snap.received = received_->Value();
  snap.model_version = options_.model_version;
  snap.breaker_trips = breaker_.trips();
  snap.breaker_recoveries = breaker_.recoveries();
  snap.breaker_state = const_cast<CircuitBreaker&>(breaker_).state();
  return snap;
}

}  // namespace zerotune::serve
