#ifndef ZEROTUNE_SERVE_FLEET_REPLICA_H_
#define ZEROTUNE_SERVE_FLEET_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/cost_predictor.h"
#include "serve/fleet/health.h"
#include "serve/prediction_service.h"

namespace zerotune::serve::fleet {

/// One serving replica of the fleet: a PredictionService incarnation plus
/// crash/restart lifecycle and a health tracker.
///
/// The replica owns its primary predictor (typically a per-replica
/// ChaosPredictor around a shared model) for its whole lifetime; what a
/// "crash" destroys is the *service incarnation* — admission counters,
/// breaker state, stats series. Kill() fails subsequent requests fast with
/// Unavailable and marks the tracker down; Restart() retires the old
/// incarnation and brings up a fresh service. Requests already executing
/// inside a killed incarnation drain normally (the crash takes effect at
/// request boundaries), so fleet-level accounting never loses a request.
///
/// Retired incarnations are kept alive until the replica is destroyed:
/// their counters may still be incremented by draining requests, and
/// CumulativeStats() folds every incarnation together (histograms via
/// Histogram::Merge — same layout by construction). Thread-safe.
class Replica {
 public:
  /// `primary` is owned; `fallback` is borrowed (may be null). The
  /// service's serve.* series carry {"replica", <id>} on top of the
  /// per-incarnation instance label. Requests run on the thread that calls
  /// Predict() — in the fleet, its dispatch threads.
  Replica(uint32_t id, std::unique_ptr<const core::CostPredictor> primary,
          const core::CostPredictor* fallback, ServeOptions options,
          HealthOptions health_options, Clock* clock);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Serves one request through the current incarnation, recording the
  /// outcome in the health tracker. A killed replica answers Unavailable
  /// immediately. Health accounting: a clean primary answer is a success;
  /// an error or a *degraded* answer (primary failed, fallback served)
  /// counts as a failure — the replica answered but is not healthy.
  /// Replica-level shedding (ResourceExhausted) is a capacity signal and
  /// a rejected request (InvalidArgument, e.g. the admission lint) a
  /// property of the request; neither is a health signal or recorded.
  Result<ServedPrediction> Predict(const dsp::ParallelQueryPlan& plan,
                                   double deadline_ms);

  /// Simulated crash: subsequent requests fail fast, health goes down.
  /// Idempotent.
  void Kill();
  /// Brings a killed (or live) replica up as a fresh incarnation.
  void Restart();

  /// Versioned hot-swap: replaces the primary predictor with `primary`
  /// (serving as model version `version`) and brings up a fresh service
  /// incarnation, leaving the replica alive. The old primary and the old
  /// incarnation are *retired*, not destroyed: requests that entered the
  /// old incarnation before the swap keep executing against the old
  /// primary and drain normally — a swap is never observable as a failed
  /// or torn request. Health state resets like a restart (the new version
  /// earns its own track record).
  void SwapPrimary(std::unique_ptr<const core::CostPredictor> primary,
                   uint64_t version);

  /// Registry version the *live* incarnation serves (0 = unversioned).
  uint64_t model_version() const;

  bool alive() const;
  ReplicaHealth health() { return tracker_.health(); }
  HealthTracker& tracker() { return tracker_; }
  uint32_t id() const { return id_; }
  /// Service incarnations brought up so far (1 after construction).
  uint64_t incarnations() const;
  /// Requests refused fast because the replica was crashed; these never
  /// reach a service incarnation, so together with the cumulative
  /// service `received` they account for every dispatch to this replica.
  uint64_t crashed_rejections() const {
    return crashed_rejections_.load(std::memory_order_relaxed);
  }
  /// Admission-slot residency of the live incarnation (0 when killed).
  size_t inflight() const;

  /// Sum of ServiceStats over all incarnations, latency histograms
  /// merged. Monotonic between calls.
  ServiceStats CumulativeStats() const;

 private:
  std::shared_ptr<PredictionService> MakeService() ZT_REQUIRES(mu_);

  const uint32_t id_;
  const core::CostPredictor* fallback_;
  ServeOptions options_;
  Clock* clock_;
  HealthTracker tracker_;

  std::atomic<uint64_t> crashed_rejections_{0};

  mutable Mutex mu_;
  bool alive_ ZT_GUARDED_BY(mu_) = true;
  uint64_t incarnations_ ZT_GUARDED_BY(mu_) = 0;
  /// Version served by the live incarnation (stamped into its
  /// ServeOptions at MakeService time).
  uint64_t version_ ZT_GUARDED_BY(mu_) = 0;
  std::unique_ptr<const core::CostPredictor> primary_ ZT_GUARDED_BY(mu_);
  std::shared_ptr<PredictionService> service_ ZT_GUARDED_BY(mu_);
  std::vector<std::shared_ptr<PredictionService>> retired_
      ZT_GUARDED_BY(mu_);
  /// Primaries replaced by SwapPrimary, kept alive because retired
  /// service incarnations hold raw pointers into them while draining.
  std::vector<std::unique_ptr<const core::CostPredictor>> retired_primaries_
      ZT_GUARDED_BY(mu_);
};

}  // namespace zerotune::serve::fleet

#endif  // ZEROTUNE_SERVE_FLEET_REPLICA_H_
