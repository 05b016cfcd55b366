#include "serve/fleet/replica.h"

#include <string>
#include <utility>

namespace zerotune::serve::fleet {

Replica::Replica(uint32_t id,
                 std::unique_ptr<const core::CostPredictor> primary,
                 const core::CostPredictor* fallback, ServeOptions options,
                 HealthOptions health_options, Clock* clock)
    : id_(id),
      fallback_(fallback),
      options_(std::move(options)),
      clock_(clock != nullptr ? clock : SystemClock::Default()),
      tracker_(health_options, clock) {
  options_.metric_labels.emplace_back("replica", std::to_string(id_));
  MutexLock g(mu_);
  version_ = options_.model_version;
  primary_ = std::move(primary);
  service_ = MakeService();
}

std::shared_ptr<PredictionService> Replica::MakeService() {
  ++incarnations_;
  ServeOptions opts = options_;
  opts.model_version = version_;
  return std::make_shared<PredictionService>(primary_.get(), fallback_, opts,
                                             clock_);
}

Result<ServedPrediction> Replica::Predict(const dsp::ParallelQueryPlan& plan,
                                          double deadline_ms) {
  std::shared_ptr<PredictionService> service;
  {
    MutexLock g(mu_);
    if (!alive_) {
      crashed_rejections_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("replica " + std::to_string(id_) +
                                 " is down (crashed)");
    }
    service = service_;
  }
  Result<ServedPrediction> result = service->Predict(plan, deadline_ms);
  if (result.ok()) {
    if (result.value().degraded) {
      tracker_.RecordFailure();
    } else {
      tracker_.RecordSuccess(result.value().total_ms);
    }
  } else if (result.status().code() != StatusCode::kResourceExhausted &&
             result.status().code() != StatusCode::kInvalidArgument) {
    tracker_.RecordFailure();
  }
  return result;
}

void Replica::Kill() {
  {
    MutexLock g(mu_);
    if (!alive_) return;
    alive_ = false;
  }
  tracker_.MarkCrashed();
}

void Replica::Restart() {
  {
    MutexLock g(mu_);
    // The old incarnation may still be draining requests that were
    // executing when Kill() landed; retire it instead of destroying it so
    // those requests finish and their counters stay reachable.
    retired_.push_back(std::move(service_));
    service_ = MakeService();
    alive_ = true;
  }
  tracker_.Reset();
}

void Replica::SwapPrimary(
    std::unique_ptr<const core::CostPredictor> primary, uint64_t version) {
  {
    MutexLock g(mu_);
    // Retire, never destroy: requests that grabbed the old incarnation's
    // shared_ptr before the swap are still executing against the old
    // primary through a raw pointer — both must stay alive until the
    // replica itself is destroyed.
    retired_.push_back(std::move(service_));
    retired_primaries_.push_back(std::move(primary_));
    primary_ = std::move(primary);
    version_ = version;
    service_ = MakeService();
    alive_ = true;
  }
  tracker_.Reset();
}

uint64_t Replica::model_version() const {
  MutexLock g(mu_);
  return version_;
}

bool Replica::alive() const {
  MutexLock g(mu_);
  return alive_;
}

uint64_t Replica::incarnations() const {
  MutexLock g(mu_);
  return incarnations_;
}

size_t Replica::inflight() const {
  std::shared_ptr<PredictionService> service;
  {
    MutexLock g(mu_);
    if (!alive_) return 0;
    service = service_;
  }
  return service->inflight();
}

ServiceStats Replica::CumulativeStats() const {
  std::vector<std::shared_ptr<PredictionService>> incarnations;
  {
    MutexLock g(mu_);
    incarnations = retired_;
    incarnations.push_back(service_);
  }
  ServiceStats total;
  bool first = true;
  for (const auto& service : incarnations) {
    const ServiceStats s = service->Snapshot();
    total.received += s.received;
    total.admitted += s.admitted;
    total.shed_queue_full += s.shed_queue_full;
    total.shed_lint += s.shed_lint;
    total.completed += s.completed;
    total.degraded += s.degraded;
    total.deadline_expired += s.deadline_expired;
    total.failed += s.failed;
    total.retries += s.retries;
    total.primary_failures += s.primary_failures;
    total.fallback_failures += s.fallback_failures;
    total.breaker_trips += s.breaker_trips;
    total.breaker_recoveries += s.breaker_recoveries;
    total.breaker_state = s.breaker_state;  // live incarnation read last
    total.model_version = s.model_version;  // ditto
    if (first) {
      total.latency_ms = s.latency_ms;
      first = false;
    } else {
      // Same layout by construction (every incarnation registers
      // serve.latency_ms with the registry's default layout).
      ZT_CHECK_OK(total.latency_ms.Merge(s.latency_ms));
    }
  }
  return total;
}

}  // namespace zerotune::serve::fleet
