#ifndef ZEROTUNE_SERVE_FLEET_FLEET_H_
#define ZEROTUNE_SERVE_FLEET_FLEET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/cost_predictor.h"
#include "obs/metrics.h"
#include "serve/fleet/hash_ring.h"
#include "serve/fleet/health.h"
#include "serve/fleet/replica.h"
#include "serve/fleet/tenant_quota.h"
#include "serve/prediction_service.h"

namespace zerotune::serve::fleet {

/// Hedged-request policy: when the primary replica has not answered
/// within the fleet's observed latency percentile, the request is
/// duplicated to the next replica on the ring and the earliest OK answer
/// wins (the loser's answer is discarded — "cancelled" cooperatively,
/// since an in-flight model inference is never preempted).
struct HedgeOptions {
  bool enabled = true;
  /// Fleet latency percentile used as the hedge delay.
  double percentile = 95.0;
  /// Delay used until min_samples latencies have been observed.
  double initial_delay_ms = 20.0;
  /// Clamp on the computed delay.
  double min_delay_ms = 0.5;
  double max_delay_ms = 250.0;
  /// Observed answers required before the percentile is trusted.
  size_t min_samples = 64;
  /// The percentile is recomputed every this many answers (a histogram
  /// snapshot per request would dominate the hot path).
  size_t refresh_every = 256;

  Status Validate() const;
};

struct FleetOptions {
  /// Replicas brought up at construction.
  size_t initial_replicas = 2;
  /// Virtual nodes per replica on the consistent-hash ring; load
  /// imbalance shrinks like 1/sqrt(virtual_nodes).
  size_t virtual_nodes = 128;
  /// Configuration of every replica's PredictionService. max_inflight
  /// here is the *per-replica* admission bound; fleet capacity is
  /// max(alive_replicas, 1) * replica.max_inflight.
  ServeOptions replica;
  HealthOptions health;
  HedgeOptions hedge;
  QuotaOptions quota;

  Status Validate() const;
};

/// One request into the fleet. The plan must stay valid until Predict
/// returns (hedged duplicates work on a fleet-owned copy, so background
/// losers never touch the caller's plan).
struct FleetRequest {
  std::string tenant;
  const dsp::ParallelQueryPlan* plan = nullptr;
  /// <= 0 means no deadline.
  double deadline_ms = 0.0;
};

/// A fleet answer plus routing metadata.
struct FleetPrediction {
  ServedPrediction served;
  /// Replica whose answer was used (meaningless when rescued).
  uint32_t replica = 0;
  /// Down/dead replicas skipped at routing time for this request.
  size_t failovers = 0;
  /// A hedge was dispatched for this request.
  bool hedged = false;
  /// The hedge's answer won the race.
  bool hedge_won = false;
  /// No replica could answer; the fleet-level fallback served (degraded).
  bool rescued = false;
  /// Admission-to-answer time on the fleet clock: the winning attempt's
  /// answer time on the request timeline (see PredictionFleet docs).
  double latency_ms = 0.0;
};

struct ReplicaStatsEntry {
  uint32_t id = 0;
  bool alive = false;
  bool routable = false;  // still a ring member (not drained)
  ReplicaHealth health = ReplicaHealth::kHealthy;
  uint64_t incarnations = 0;
  /// Requests refused fast because the replica was crashed (these never
  /// reach a service incarnation, so they are not in `service.received`).
  uint64_t crashed_rejections = 0;
  /// Model version the replica's live incarnation serves (0 =
  /// unversioned); mid-rollout, swapped and unswapped replicas differ.
  uint64_t model_version = 0;
  ServiceStats service;  // cumulative over incarnations
};

/// Monotonic fleet-wide counters. Every received request ends in exactly
/// one of {answered, deadline_expired, failed} after admission, or one
/// shed bucket, so at quiescence:
///   received == admitted + shed_fleet_capacity + shed_tenant_quota
///               + shed_fair_share
///   admitted == answered + deadline_expired + failed
///   hedges_sent == hedges_won + hedges_cancelled
///   dispatches == sum over replicas of
///                 (service.received + crashed_rejections)
struct FleetStats {
  uint64_t received = 0;
  uint64_t admitted = 0;
  uint64_t shed_fleet_capacity = 0;
  uint64_t shed_tenant_quota = 0;
  uint64_t shed_fair_share = 0;
  uint64_t answered = 0;
  uint64_t degraded = 0;
  uint64_t deadline_expired = 0;
  uint64_t failed = 0;
  uint64_t hedges_sent = 0;
  uint64_t hedges_won = 0;
  uint64_t hedges_cancelled = 0;
  uint64_t failovers = 0;
  uint64_t fallback_rescues = 0;
  uint64_t dispatches = 0;
  uint64_t kills = 0;
  uint64_t restarts = 0;
  uint64_t scale_ups = 0;
  uint64_t scale_downs = 0;
  /// Per-replica primary hot-swaps performed (rollout steps, including
  /// swap-backs during a rollback).
  uint64_t primary_swaps = 0;
  /// Committed fleet-wide model version (what new/restarted replicas
  /// serve); individual replicas may differ mid-rollout.
  uint64_t primary_version = 0;
  size_t replicas_total = 0;  // ring members
  size_t replicas_alive = 0;
  size_t tenants_seen = 0;
  size_t active_tenants = 0;
  /// Fleet-level end-to-end latency of answered requests.
  Histogram latency_ms;
  /// Per-replica service latencies merged across replicas and
  /// incarnations (Histogram::Merge; same layout by construction).
  Histogram replica_latency_ms;
  std::vector<ReplicaStatsEntry> replicas;

  /// answered / received in [0, 1] (1 when nothing was received): shed,
  /// expired and failed requests all count against it.
  double Availability() const;
  std::string ToText() const;
  std::string ToJson() const;
};

/// A sharded serving fleet: N PredictionService replicas behind a
/// consistent-hash router keyed by (tenant, plan-hash), with
///
///  - per-replica health tracking (healthy / suspect / down) and
///    automatic failover rerouting around down replicas,
///  - hedged requests after a latency-percentile budget (earliest OK
///    answer wins; requests landing on a *suspect* replica hedge
///    immediately),
///  - per-tenant quotas and fair admission in front of the per-replica
///    load shedding,
///  - crash/restart replica lifecycle for chaos drills (KillReplica /
///    RestartReplica) and scaling hooks (AddReplica / RemoveReplica) the
///    Dhalion-style FleetController drives,
///  - a last-resort fleet-level fallback: when no routable replica can
///    answer, the shared fallback predictor serves a degraded answer
///    directly, so single-replica failures never zero availability.
///
/// Hedging is one policy on one request timeline. The primary starts
/// when it is dispatched; a hedge to the next replica is sent only if the
/// primary has not answered by the hedge delay, and it starts at that
/// delay. An attempt's answer time is its start plus the clock time from
/// its dispatch to its answer, and the OK answer with the earliest answer
/// time wins. With no OK answer, an expired deadline or a lint rejection
/// is returned as is, a primary that failed before the hedge delay gets
/// one synchronous failover, and anything else is rescued.
///
/// Threading: with a ThreadPool, attempts run on pool threads and the
/// caller waits for them in real time. Without a pool, each attempt runs
/// to completion on the caller thread, so a hedge runs after its primary
/// and its answer time is virtual: the time it would have answered had it
/// started at the hedge delay. On a FakeClock that mode replays
/// bit-identically — what the deterministic tests and serve-sim use.
class PredictionFleet {
 public:
  /// Builds the primary predictor each replica serves (typically a
  /// per-replica chaos wrapper around a shared model). Called once per
  /// replica id, including replicas added by scale-up.
  using PrimaryFactory =
      std::function<std::unique_ptr<const core::CostPredictor>(uint32_t)>;

  /// `fallback` may be null (no degraded answers, no rescue). Null pool =
  /// deterministic inline mode; null clock = system clock.
  PredictionFleet(PrimaryFactory factory,
                  const core::CostPredictor* fallback, FleetOptions options,
                  ThreadPool* pool, Clock* clock);
  ~PredictionFleet();

  PredictionFleet(const PredictionFleet&) = delete;
  PredictionFleet& operator=(const PredictionFleet&) = delete;

  Result<FleetPrediction> Predict(const FleetRequest& request);

  /// Point-in-time fleet stats; counters are monotonic between snapshots.
  FleetStats Snapshot() const;

  // --- chaos / controller surface ----------------------------------
  /// Simulated crash of a replica (stays on the ring; routing skips it).
  Status KillReplica(uint32_t id);
  /// Fresh incarnation of a killed (or live) replica.
  Status RestartReplica(uint32_t id);
  /// Scales up: new replica id on the ring. Fails if the factory is null.
  Result<uint32_t> AddReplica();
  /// Scales down: drains `id` off the ring (it finishes in-flight work
  /// and keeps its stats; it is never routed to again).
  Status RemoveReplica(uint32_t id);

  // --- versioned hot-swap surface ----------------------------------
  /// Swaps one replica's primary to `factory(id)` serving `version`,
  /// without taking the replica off the ring: in-flight requests drain
  /// against the old primary, new requests see the new one. The rollout
  /// state machine (serve/adaptation/rollout.h) steps a promoted version
  /// through the fleet with this, one replica at a time.
  Status SwapReplicaPrimary(uint32_t id, const PrimaryFactory& factory,
                            uint64_t version);
  /// Commits `factory`/`version` as the fleet-wide primary: replicas
  /// added by scale-up from now on serve it. Existing replicas are not
  /// touched (use SwapReplicaPrimary per replica first).
  void SetPrimaryFactory(PrimaryFactory factory, uint64_t version);
  /// Committed fleet-wide model version (see SetPrimaryFactory).
  uint64_t primary_version() const;
  /// Version the live incarnation of `id` currently serves.
  Result<uint64_t> ReplicaVersion(uint32_t id) const;
  /// Cumulative ServiceStats of one replica across its incarnations (the
  /// rollout state machine judges a freshly swapped replica on the delta
  /// of this since the swap).
  Result<ServiceStats> ReplicaCumulativeStats(uint32_t id) const;

  /// Ring members (routable replicas), ascending.
  std::vector<uint32_t> ReplicaIds() const;
  /// Ring members currently alive.
  std::vector<uint32_t> AliveReplicaIds() const;
  size_t replica_count() const;
  size_t alive_count() const;
  /// Fleet admission capacity: alive ring members (at least 1, so a
  /// fleet with every replica down still admits one replica's worth of
  /// requests for the fallback to rescue) * per-replica max_inflight.
  size_t capacity() const;
  size_t total_inflight() const { return quotas_.total_inflight(); }
  Result<ReplicaHealth> replica_health(uint32_t id);

  /// Current hedge delay (ms) — percentile-derived once enough samples
  /// exist. Exposed for tests.
  double HedgeDelayMs() const;

  /// Labels of the fleet's serve.fleet.* series ({"fleet", <n>}).
  const obs::Labels& metric_labels() const { return fleet_labels_; }

 private:
  struct RaceState;

  /// Adds a replica; counted as a scale-up when `count_scale_up`.
  Result<uint32_t> AddReplicaInternal(bool count_scale_up);
  /// Routing decision: primary + hedge/failover target for `key`.
  void Route(uint64_t key, Replica** primary, Replica** target,
             size_t* skipped);
  /// Runs attempt `slot` of a race on `replica`: on the pool, or on the
  /// calling thread (which must not hold the race mutex) without one. The
  /// attempt starts `start_ms` after t0 on the request timeline, and its
  /// answer time adds the clock time from this call to its answer.
  void Launch(const std::shared_ptr<RaceState>& state, int slot,
              Replica* replica, double budget_ms, double start_ms);
  /// The hedged race of one request against `primary`, hedging to and
  /// failing over to `target` (may be null).
  Result<FleetPrediction> Execute(Replica* primary, Replica* target,
                                  const dsp::ParallelQueryPlan& plan,
                                  double deadline_ms, int64_t t0);
  /// Last-resort degraded answer from the shared fallback; falls through
  /// to `error` when no fallback is configured or it fails too.
  Result<FleetPrediction> Rescue(const dsp::ParallelQueryPlan& plan,
                                 const Status& error, int64_t t0);
  Result<ServedPrediction> DispatchTo(Replica* replica,
                                      const dsp::ParallelQueryPlan& plan,
                                      double deadline_ms);
  void RecordAnswerLatency(double latency_ms);
  void UpdateReplicaGauges();
  double EffectiveHedgeDelayMs(ReplicaHealth primary_health) const;

  mutable SharedMutex factory_mu_;
  PrimaryFactory factory_ ZT_GUARDED_BY(factory_mu_);
  uint64_t primary_version_ ZT_GUARDED_BY(factory_mu_) = 0;
  const core::CostPredictor* fallback_;
  FleetOptions options_;
  Status options_status_;
  ThreadPool* pool_;
  Clock* clock_;
  TenantQuotas quotas_;

  mutable SharedMutex ring_mu_;
  ConsistentHashRing ring_ ZT_GUARDED_BY(ring_mu_);
  // Includes drained replicas; entries are never erased, so raw Replica
  // pointers handed out under the lock stay valid for the fleet lifetime.
  std::map<uint32_t, std::unique_ptr<Replica>> replicas_
      ZT_GUARDED_BY(ring_mu_);
  uint32_t next_replica_id_ ZT_GUARDED_BY(ring_mu_) = 0;

  // Hedge delay cache, refreshed every hedge.refresh_every answers.
  std::atomic<uint64_t> hedge_delay_bits_;
  std::atomic<uint64_t> answers_since_refresh_{0};

  obs::Labels fleet_labels_;
  obs::Counter* received_;
  obs::Counter* admitted_;
  obs::Counter* shed_fleet_capacity_;
  obs::Counter* shed_tenant_quota_;
  obs::Counter* shed_fair_share_;
  obs::Counter* answered_;
  obs::Counter* degraded_;
  obs::Counter* deadline_expired_;
  obs::Counter* failed_;
  obs::Counter* hedges_sent_;
  obs::Counter* hedges_won_;
  obs::Counter* hedges_cancelled_;
  obs::Counter* failovers_;
  obs::Counter* fallback_rescues_;
  obs::Counter* dispatches_;
  obs::Counter* kills_;
  obs::Counter* restarts_;
  obs::Counter* scale_ups_;
  obs::Counter* scale_downs_;
  obs::Counter* primary_swaps_;
  obs::Gauge* primary_version_gauge_;
  obs::Gauge* replicas_total_gauge_;
  obs::Gauge* replicas_alive_gauge_;
  obs::HistogramMetric* latency_ms_;
};

}  // namespace zerotune::serve::fleet

#endif  // ZEROTUNE_SERVE_FLEET_FLEET_H_
