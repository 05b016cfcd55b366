#ifndef ZEROTUNE_SERVE_PREDICTION_SERVICE_H_
#define ZEROTUNE_SERVE_PREDICTION_SERVICE_H_

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/cost_predictor.h"
#include "obs/metrics.h"
#include "serve/circuit_breaker.h"

namespace zerotune::serve {

/// Serving-layer configuration. Every knob has a production-sane default;
/// Validate() is checked at service construction and every Predict() call
/// fails fast with the construction error if the options were bad.
struct ServeOptions {
  /// Bound on requests executing in the service (not counting requests
  /// parked in retry-backoff sleep — those release their slot for the
  /// duration). Admission beyond this sheds the request with
  /// ResourceExhausted — explicit backpressure to the caller.
  size_t max_inflight = 64;
  /// Deadline budget applied when the caller passes none (0 = none).
  double default_deadline_ms = 0.0;
  /// Primary attempts per request (>= 1); attempts after the first are
  /// retries with exponential backoff.
  size_t max_attempts = 3;
  /// Backoff before retry k (1-based) is
  ///   min(backoff_max_ms, backoff_base_ms * 2^(k-1)) * U(1, 1+jitter)
  /// with U drawn from the service Rng.
  double backoff_base_ms = 1.0;
  double backoff_max_ms = 50.0;
  double backoff_jitter = 0.5;
  /// Run every admitted plan through analysis::PlanAnalyzer and shed
  /// requests whose plan has error-severity findings (the ZT-Pxxx code
  /// lands in the rejection status).
  bool lint_admission = true;
  CircuitBreakerOptions breaker;
  /// Seed of the jitter Rng.
  uint64_t seed = 17;
  /// Extra labels attached to every serve.* series of this instance, on
  /// top of the automatic {"instance", <n>} label. The fleet layer sets
  /// {"replica", <id>} here so per-replica series are addressable.
  obs::Labels metric_labels;
  /// Registry version of the primary model this service serves (0 =
  /// unversioned). Stamped on every answer so operators can tell which
  /// version produced it; exported as the serve.model_version gauge.
  uint64_t model_version = 0;

  Status Validate() const;
};

/// A served prediction plus serving metadata.
struct ServedPrediction {
  core::CostPrediction cost;
  /// True when the answer came from the fallback predictor (primary
  /// failed all attempts or its circuit is open).
  bool degraded = false;
  /// Primary attempts actually made (0 when the breaker short-circuited
  /// straight to the fallback).
  size_t attempts = 0;
  /// Admission-to-completion time on the service clock.
  double total_ms = 0.0;
  /// Registry version of the model that produced this answer (0 =
  /// unversioned, including every fallback answer).
  uint64_t model_version = 0;
  /// When degraded: the version of the primary that failed to answer
  /// (0 when the answer is not degraded or the primary is unversioned).
  uint64_t degraded_from_version = 0;
};

/// Monotonic counter snapshot of the service. Every admitted request ends
/// in exactly one of {completed, deadline_expired, failed}, so
///   admitted == completed + deadline_expired + failed
/// holds at quiescence, and received == admitted + shed_queue_full +
/// shed_lint always. `completed` includes degraded answers.
struct ServiceStats {
  uint64_t received = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_lint = 0;
  uint64_t completed = 0;
  uint64_t degraded = 0;
  uint64_t deadline_expired = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t primary_failures = 0;
  uint64_t fallback_failures = 0;
  uint64_t breaker_trips = 0;
  uint64_t breaker_recoveries = 0;
  /// Version of the primary this service was configured with (the live
  /// incarnation's version when folded across replica incarnations).
  uint64_t model_version = 0;
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
  /// End-to-end latency of completed requests, ms.
  Histogram latency_ms;

  std::string ToText() const;
  std::string ToJson() const;
};

/// Production-grade resilience wrapper around any CostPredictor: the
/// tuning stack keeps getting answers while the primary model is slow,
/// flaky, or down.
///
///   - bounded admission with load shedding (ResourceExhausted),
///   - optional static-analysis gate at admission (InvalidArgument
///     carrying the ZT-Pxxx diagnostics),
///   - per-request deadline budgets (DeadlineExceeded),
///   - retry with exponential backoff + jitter on transient primary
///     failures,
///   - a circuit breaker that degrades to a cheap fallback predictor
///     (answers tagged degraded=true) and recovers via half-open probes.
///
/// Threading: Predict() runs the whole request on the calling thread; any
/// number of caller threads may call it concurrently, and max_inflight
/// bounds how many execute at once. The deadline is enforced at attempt
/// boundaries — an individual predictor call is never preempted
/// mid-inference, so one in-flight attempt may overrun its budget but can
/// never hang the service permanently.
class PredictionService {
 public:
  /// `primary` is required; `fallback` may be null (no degraded mode —
  /// exhausted attempts surface the primary error). Null `clock` uses the
  /// system clock. All pointers are borrowed and must outlive the service.
  PredictionService(const core::CostPredictor* primary,
                    const core::CostPredictor* fallback, ServeOptions options,
                    Clock* clock);

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Serves one prediction under the default deadline.
  Result<ServedPrediction> Predict(const dsp::ParallelQueryPlan& plan);

  /// Serves one prediction with an explicit deadline budget (ms; <= 0
  /// means no deadline). The plan reference must stay valid until the
  /// call returns.
  Result<ServedPrediction> Predict(const dsp::ParallelQueryPlan& plan,
                                   double deadline_ms);

  /// Point-in-time copy of the counters (safe to call concurrently with
  /// traffic; counters are monotonic between snapshots). Counters are read
  /// in reverse-causal order (dispositions before admitted before
  /// received), so the documented disposition inequalities hold in every
  /// snapshot, not just at quiescence.
  ServiceStats Snapshot() const;

  /// Labels of this instance's serve.* series in the global
  /// obs::MetricsRegistry ({"instance", "<n>"}; instances are numbered
  /// process-wide). Lets external observers and tests reconcile Snapshot()
  /// against the registry.
  const obs::Labels& metric_labels() const { return metric_labels_; }

  /// Requests currently *occupying an admission slot* (executing,
  /// excluding requests parked in retry backoff); never exceeds
  /// ServeOptions::max_inflight. A request sleeping between attempts
  /// releases its slot so bursts of retrying requests cannot starve
  /// admission — see backing_off().
  size_t inflight() const {
    MutexLock g(admission_mu_);
    return inflight_ - backing_off_;
  }

  /// Requests currently parked in backoff sleep between retry attempts.
  /// These are inside the service but discounted from the admission bound;
  /// total residency is inflight() + backing_off().
  size_t backing_off() const {
    MutexLock g(admission_mu_);
    return backing_off_;
  }

  CircuitBreaker::State breaker_state() { return breaker_.state(); }

 private:
  /// Runs the retry/breaker/fallback pipeline for one admitted request and
  /// records its disposition in the stats.
  Result<ServedPrediction> Execute(const dsp::ParallelQueryPlan& plan,
                                   int64_t deadline_nanos,
                                   int64_t admitted_nanos);
  Result<ServedPrediction> ExecuteAttempts(
      const dsp::ParallelQueryPlan& plan, int64_t deadline_nanos,
      int64_t admitted_nanos);
  void SleepBackoff(size_t attempt, int64_t deadline_nanos);
  void FinishRequest(const Result<ServedPrediction>& result);

  const core::CostPredictor* primary_;
  const core::CostPredictor* fallback_;
  ServeOptions options_;
  Status options_status_;
  Clock* clock_;
  CircuitBreaker breaker_;

  mutable Mutex admission_mu_;
  // executing + backing off
  size_t inflight_ ZT_GUARDED_BY(admission_mu_) = 0;
  // subset of inflight_ asleep between attempts; admission bounds
  // inflight_ - backing_off_
  size_t backing_off_ ZT_GUARDED_BY(admission_mu_) = 0;

  // serve.* series in the global metrics registry, labeled per instance.
  // Handles are resolved once at construction; hot-path increments are
  // lock-free shard adds, and Snapshot() assembles a ServiceStats from
  // them, so the legacy struct stays the caller-facing view.
  obs::Labels metric_labels_;
  obs::Counter* received_;
  obs::Counter* admitted_;
  obs::Counter* shed_queue_full_;
  obs::Counter* shed_lint_;
  obs::Counter* completed_;
  obs::Counter* degraded_;
  obs::Counter* deadline_expired_;
  obs::Counter* failed_;
  obs::Counter* retries_;
  obs::Counter* primary_failures_;
  obs::Counter* fallback_failures_;
  obs::HistogramMetric* latency_ms_;

  mutable Mutex rng_mu_;
  Rng rng_ ZT_GUARDED_BY(rng_mu_);  // backoff jitter
};

}  // namespace zerotune::serve

#endif  // ZEROTUNE_SERVE_PREDICTION_SERVICE_H_
