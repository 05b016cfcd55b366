#include "serve/fleet/fleet.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <sstream>
#include <utility>

namespace zerotune::serve::fleet {

namespace {

// Process-wide fleet numbering so concurrent fleets (tests spin up many)
// get disjoint serve.fleet.* series in the global registry.
obs::Labels NextFleetLabels() {
  static std::atomic<uint64_t> next{0};
  return {{"fleet",
           std::to_string(next.fetch_add(1, std::memory_order_relaxed))}};
}

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }
double BitsDouble(uint64_t b) { return std::bit_cast<double>(b); }

}  // namespace

Status HedgeOptions::Validate() const {
  if (!std::isfinite(percentile) || percentile <= 0.0 ||
      percentile >= 100.0) {
    return Status::InvalidArgument("hedge percentile must be in (0, 100)");
  }
  if (!std::isfinite(initial_delay_ms) || initial_delay_ms < 0.0) {
    return Status::InvalidArgument(
        "hedge initial_delay_ms must be non-negative and finite");
  }
  if (!std::isfinite(min_delay_ms) || min_delay_ms < 0.0 ||
      !std::isfinite(max_delay_ms) || max_delay_ms < min_delay_ms) {
    return Status::InvalidArgument(
        "hedge delay clamp must satisfy 0 <= min <= max and be finite");
  }
  if (refresh_every == 0) {
    return Status::InvalidArgument("hedge refresh_every must be >= 1");
  }
  return Status::OK();
}

Status FleetOptions::Validate() const {
  if (initial_replicas == 0) {
    return Status::InvalidArgument("fleet initial_replicas must be >= 1");
  }
  if (virtual_nodes == 0) {
    return Status::InvalidArgument("fleet virtual_nodes must be >= 1");
  }
  ZT_RETURN_IF_ERROR(replica.Validate());
  ZT_RETURN_IF_ERROR(health.Validate());
  ZT_RETURN_IF_ERROR(hedge.Validate());
  return quota.Validate();
}

double FleetStats::Availability() const {
  return received == 0
             ? 1.0
             : static_cast<double>(answered) / static_cast<double>(received);
}

std::string FleetStats::ToText() const {
  std::ostringstream os;
  os << "fleet: " << replicas_alive << "/" << replicas_total
     << " replicas alive, " << tenants_seen << " tenant(s) seen\n"
     << "requests: received " << received << ", admitted " << admitted
     << ", answered " << answered << " (" << degraded << " degraded, "
     << fallback_rescues << " rescued)\n"
     << "shed: fleet-capacity " << shed_fleet_capacity << ", tenant-quota "
     << shed_tenant_quota << ", fair-share " << shed_fair_share
     << "; deadline-expired " << deadline_expired << "; failed " << failed
     << "\n"
     << "routing: dispatches " << dispatches << ", failovers " << failovers
     << "; hedges sent " << hedges_sent << " (won " << hedges_won
     << ", cancelled " << hedges_cancelled << ")\n"
     << "lifecycle: kills " << kills << ", restarts " << restarts
     << ", scale-ups " << scale_ups << ", scale-downs " << scale_downs
     << "; primary swaps " << primary_swaps << " (version "
     << primary_version << ")\n"
     << "availability: " << Availability() * 100.0 << "%\n"
     << "latency_ms: " << latency_ms.Summary() << "\n";
  for (const ReplicaStatsEntry& r : replicas) {
    os << "  replica " << r.id << ": "
       << (r.routable ? "" : "drained, ")
       << (r.alive ? ToString(r.health) : "dead") << ", version "
       << r.model_version << ", incarnations "
       << r.incarnations << ", received " << r.service.received
       << " (+" << r.crashed_rejections << " crash-rejected), completed "
       << r.service.completed << " (" << r.service.degraded
       << " degraded)\n";
  }
  return os.str();
}

std::string FleetStats::ToJson() const {
  std::ostringstream os;
  os.precision(17);
  const auto hist_json = [&os](const Histogram& h) {
    os << "{\"count\": " << h.count();
    if (h.count() > 0) {
      os << ", \"mean\": " << h.Mean() << ", \"p50\": " << h.Percentile(50)
         << ", \"p95\": " << h.Percentile(95)
         << ", \"p99\": " << h.Percentile(99) << ", \"max\": " << h.max();
    }
    os << "}";
  };
  os << "{\"received\": " << received << ", \"admitted\": " << admitted
     << ", \"shed_fleet_capacity\": " << shed_fleet_capacity
     << ", \"shed_tenant_quota\": " << shed_tenant_quota
     << ", \"shed_fair_share\": " << shed_fair_share
     << ", \"answered\": " << answered << ", \"degraded\": " << degraded
     << ", \"deadline_expired\": " << deadline_expired
     << ", \"failed\": " << failed
     << ", \"hedges_sent\": " << hedges_sent
     << ", \"hedges_won\": " << hedges_won
     << ", \"hedges_cancelled\": " << hedges_cancelled
     << ", \"failovers\": " << failovers
     << ", \"fallback_rescues\": " << fallback_rescues
     << ", \"dispatches\": " << dispatches << ", \"kills\": " << kills
     << ", \"restarts\": " << restarts << ", \"scale_ups\": " << scale_ups
     << ", \"scale_downs\": " << scale_downs
     << ", \"primary_swaps\": " << primary_swaps
     << ", \"primary_version\": " << primary_version
     << ", \"replicas_total\": " << replicas_total
     << ", \"replicas_alive\": " << replicas_alive
     << ", \"tenants_seen\": " << tenants_seen
     << ", \"availability\": " << Availability() << ", \"latency_ms\": ";
  hist_json(latency_ms);
  os << ", \"replica_latency_ms\": ";
  hist_json(replica_latency_ms);
  os << ", \"replicas\": [";
  for (size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaStatsEntry& r = replicas[i];
    if (i > 0) os << ", ";
    os << "{\"id\": " << r.id << ", \"alive\": " << (r.alive ? "true" : "false")
       << ", \"routable\": " << (r.routable ? "true" : "false")
       << ", \"health\": \"" << ToString(r.health)
       << "\", \"incarnations\": " << r.incarnations
       << ", \"crashed_rejections\": " << r.crashed_rejections
       << ", \"model_version\": " << r.model_version
       << ", \"service\": " << r.service.ToJson() << "}";
  }
  os << "]}";
  return os.str();
}

PredictionFleet::PredictionFleet(PrimaryFactory factory,
                                 const core::CostPredictor* fallback,
                                 FleetOptions options, ThreadPool* pool,
                                 Clock* clock)
    : factory_(std::move(factory)),
      fallback_(fallback),
      options_(std::move(options)),
      options_status_(options_.Validate()),
      pool_(pool),
      clock_(clock != nullptr ? clock : SystemClock::Default()),
      quotas_(options_.quota),
      ring_(options_.virtual_nodes),
      hedge_delay_bits_(DoubleBits(options_.hedge.initial_delay_ms)),
      fleet_labels_(NextFleetLabels()) {
  auto* metrics = obs::MetricsRegistry::Global();
  const auto counter = [&](const char* name) {
    return metrics->GetCounter(name, fleet_labels_);
  };
  received_ = counter("serve.fleet.received_total");
  admitted_ = counter("serve.fleet.admitted_total");
  shed_fleet_capacity_ = counter("serve.fleet.shed_fleet_capacity_total");
  shed_tenant_quota_ = counter("serve.fleet.shed_tenant_quota_total");
  shed_fair_share_ = counter("serve.fleet.shed_fair_share_total");
  answered_ = counter("serve.fleet.answered_total");
  degraded_ = counter("serve.fleet.degraded_total");
  deadline_expired_ = counter("serve.fleet.deadline_expired_total");
  failed_ = counter("serve.fleet.failed_total");
  hedges_sent_ = counter("serve.fleet.hedges_sent_total");
  hedges_won_ = counter("serve.fleet.hedges_won_total");
  hedges_cancelled_ = counter("serve.fleet.hedges_cancelled_total");
  failovers_ = counter("serve.fleet.failovers_total");
  fallback_rescues_ = counter("serve.fleet.fallback_rescues_total");
  dispatches_ = counter("serve.fleet.dispatches_total");
  kills_ = counter("serve.fleet.kills_total");
  restarts_ = counter("serve.fleet.restarts_total");
  scale_ups_ = counter("serve.fleet.scale_ups_total");
  scale_downs_ = counter("serve.fleet.scale_downs_total");
  replicas_total_gauge_ =
      metrics->GetGauge("serve.fleet.replicas_total", fleet_labels_);
  replicas_alive_gauge_ =
      metrics->GetGauge("serve.fleet.replicas_alive", fleet_labels_);
  primary_swaps_ = counter("serve.fleet.primary_swaps_total");
  primary_version_gauge_ =
      metrics->GetGauge("serve.fleet.primary_version", fleet_labels_);
  latency_ms_ = metrics->GetHistogram("serve.fleet.latency_ms", fleet_labels_);
  {
    WriterMutexLock flock(factory_mu_);
    primary_version_ = options_.replica.model_version;
    primary_version_gauge_->Set(static_cast<double>(primary_version_));
  }
  if (options_status_.ok()) {
    for (size_t i = 0; i < options_.initial_replicas; ++i) {
      (void)AddReplicaInternal(/*count_scale_up=*/false);
    }
  }
}

PredictionFleet::~PredictionFleet() {
  // Hedge losers and queued dispatches reference fleet members; drain
  // them before anything is torn down.
  if (pool_ != nullptr) pool_->Wait();
}

Result<uint32_t> PredictionFleet::AddReplicaInternal(bool count_scale_up) {
  PrimaryFactory factory;
  uint64_t version = 0;
  {
    ReaderMutexLock flock(factory_mu_);
    if (factory_ == nullptr) {
      return Status::FailedPrecondition("fleet has no replica factory");
    }
    factory = factory_;
    version = primary_version_;
  }
  WriterMutexLock lock(ring_mu_);
  const uint32_t id = next_replica_id_++;
  auto primary = factory(id);
  if (primary == nullptr) {
    return Status::Internal("replica factory returned null for id " +
                            std::to_string(id));
  }
  // New replicas serve the committed fleet version.
  ServeOptions replica_options = options_.replica;
  replica_options.model_version = version;
  replicas_.emplace(
      id, std::make_unique<Replica>(id, std::move(primary), fallback_,
                                    std::move(replica_options),
                                    options_.health, clock_));
  ring_.Add(id);
  if (count_scale_up) scale_ups_->Increment();
  lock.Unlock();
  UpdateReplicaGauges();
  return id;
}

Result<uint32_t> PredictionFleet::AddReplica() {
  return AddReplicaInternal(/*count_scale_up=*/true);
}

Status PredictionFleet::RemoveReplica(uint32_t id) {
  {
    WriterMutexLock lock(ring_mu_);
    if (!ring_.Contains(id)) {
      return Status::NotFound("replica " + std::to_string(id) +
                              " is not on the ring");
    }
    if (ring_.size() <= 1) {
      return Status::FailedPrecondition(
          "cannot drain the last routable replica");
    }
    ring_.Remove(id);
    scale_downs_->Increment();
  }
  UpdateReplicaGauges();
  return Status::OK();
}

Status PredictionFleet::SwapReplicaPrimary(uint32_t id,
                                           const PrimaryFactory& factory,
                                           uint64_t version) {
  if (factory == nullptr) {
    return Status::InvalidArgument("swap requires a primary factory");
  }
  // Build the new primary outside every fleet lock: factories may load
  // model artifacts, and traffic must keep flowing while they do.
  auto primary = factory(id);
  if (primary == nullptr) {
    return Status::Internal("swap factory returned null for replica " +
                            std::to_string(id));
  }
  Replica* replica = nullptr;
  {
    ReaderMutexLock lock(ring_mu_);
    auto it = replicas_.find(id);
    if (it == replicas_.end()) {
      return Status::NotFound("no replica " + std::to_string(id));
    }
    replica = it->second.get();
  }
  replica->SwapPrimary(std::move(primary), version);
  primary_swaps_->Increment();
  UpdateReplicaGauges();
  return Status::OK();
}

void PredictionFleet::SetPrimaryFactory(PrimaryFactory factory,
                                        uint64_t version) {
  WriterMutexLock flock(factory_mu_);
  factory_ = std::move(factory);
  primary_version_ = version;
  primary_version_gauge_->Set(static_cast<double>(version));
}

uint64_t PredictionFleet::primary_version() const {
  ReaderMutexLock flock(factory_mu_);
  return primary_version_;
}

Result<uint64_t> PredictionFleet::ReplicaVersion(uint32_t id) const {
  ReaderMutexLock lock(ring_mu_);
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("no replica " + std::to_string(id));
  }
  return it->second->model_version();
}

Result<ServiceStats> PredictionFleet::ReplicaCumulativeStats(
    uint32_t id) const {
  Replica* replica = nullptr;
  {
    ReaderMutexLock lock(ring_mu_);
    auto it = replicas_.find(id);
    if (it == replicas_.end()) {
      return Status::NotFound("no replica " + std::to_string(id));
    }
    replica = it->second.get();
  }
  // Replicas are never destroyed while the fleet lives; the stats walk
  // happens outside the ring lock.
  return replica->CumulativeStats();
}

Status PredictionFleet::KillReplica(uint32_t id) {
  Replica* replica = nullptr;
  {
    ReaderMutexLock lock(ring_mu_);
    auto it = replicas_.find(id);
    if (it == replicas_.end()) {
      return Status::NotFound("no replica " + std::to_string(id));
    }
    replica = it->second.get();
  }
  if (replica->alive()) {
    replica->Kill();
    kills_->Increment();
  }
  UpdateReplicaGauges();
  return Status::OK();
}

Status PredictionFleet::RestartReplica(uint32_t id) {
  Replica* replica = nullptr;
  {
    ReaderMutexLock lock(ring_mu_);
    auto it = replicas_.find(id);
    if (it == replicas_.end()) {
      return Status::NotFound("no replica " + std::to_string(id));
    }
    replica = it->second.get();
  }
  replica->Restart();
  restarts_->Increment();
  UpdateReplicaGauges();
  return Status::OK();
}

std::vector<uint32_t> PredictionFleet::ReplicaIds() const {
  ReaderMutexLock lock(ring_mu_);
  return ring_.Members();
}

std::vector<uint32_t> PredictionFleet::AliveReplicaIds() const {
  ReaderMutexLock lock(ring_mu_);
  std::vector<uint32_t> alive;
  for (const uint32_t id : ring_.Members()) {
    if (replicas_.at(id)->alive()) alive.push_back(id);
  }
  return alive;
}

size_t PredictionFleet::replica_count() const {
  ReaderMutexLock lock(ring_mu_);
  return ring_.size();
}

size_t PredictionFleet::alive_count() const {
  return AliveReplicaIds().size();
}

size_t PredictionFleet::capacity() const {
  return std::max<size_t>(alive_count(), 1) * options_.replica.max_inflight;
}

Result<ReplicaHealth> PredictionFleet::replica_health(uint32_t id) {
  ReaderMutexLock lock(ring_mu_);
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    return Status::NotFound("no replica " + std::to_string(id));
  }
  return it->second->health();
}

void PredictionFleet::UpdateReplicaGauges() {
  ReaderMutexLock lock(ring_mu_);
  size_t alive = 0;
  for (const uint32_t id : ring_.Members()) {
    if (replicas_.at(id)->alive()) ++alive;
  }
  replicas_total_gauge_->Set(static_cast<double>(ring_.size()));
  replicas_alive_gauge_->Set(static_cast<double>(alive));
}

double PredictionFleet::HedgeDelayMs() const {
  return BitsDouble(hedge_delay_bits_.load(std::memory_order_relaxed));
}

double PredictionFleet::EffectiveHedgeDelayMs(
    ReplicaHealth primary_health) const {
  // A suspect primary gets hedged immediately: it still serves (it may
  // well answer), but the fleet does not bet the latency budget on it.
  return primary_health == ReplicaHealth::kSuspect ? 0.0 : HedgeDelayMs();
}

void PredictionFleet::RecordAnswerLatency(double latency_ms) {
  latency_ms_->Record(std::max(latency_ms, 1e-6));
  const uint64_t n =
      answers_since_refresh_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % options_.hedge.refresh_every != 0) return;
  const Histogram snapshot = latency_ms_->Snapshot();
  if (snapshot.count() < options_.hedge.min_samples) return;
  const double delay =
      std::clamp(snapshot.Percentile(options_.hedge.percentile),
                 options_.hedge.min_delay_ms, options_.hedge.max_delay_ms);
  hedge_delay_bits_.store(DoubleBits(delay), std::memory_order_relaxed);
}

void PredictionFleet::Route(uint64_t key, Replica** primary,
                            Replica** target, size_t* skipped) {
  *primary = nullptr;
  *target = nullptr;
  *skipped = 0;
  ReaderMutexLock lock(ring_mu_);
  const std::vector<uint32_t> prefs =
      ring_.PreferenceList(key, ring_.size());
  Replica* suspect_target = nullptr;
  for (const uint32_t id : prefs) {
    Replica* r = replicas_.at(id).get();
    const bool routable = r->alive() && r->health() != ReplicaHealth::kDown;
    if (!routable) {
      // Down replicas are skipped — automatic failover rerouting. Only
      // skips *before* the primary count as failovers for this request.
      if (*primary == nullptr) ++*skipped;
      continue;
    }
    if (*primary == nullptr) {
      *primary = r;
    } else if (r->health() == ReplicaHealth::kHealthy) {
      *target = r;  // first healthy successor: preferred hedge target
      break;
    } else if (suspect_target == nullptr) {
      suspect_target = r;
    }
  }
  if (*target == nullptr) *target = suspect_target;
}

Result<ServedPrediction> PredictionFleet::DispatchTo(
    Replica* replica, const dsp::ParallelQueryPlan& plan,
    double deadline_ms) {
  dispatches_->Increment();
  return replica->Predict(plan, deadline_ms);
}

Result<FleetPrediction> PredictionFleet::Rescue(
    const dsp::ParallelQueryPlan& plan, const Status& error, int64_t t0) {
  if (fallback_ != nullptr) {
    const Result<core::CostPrediction> fb = fallback_->Predict(plan);
    if (fb.ok()) {
      fallback_rescues_->Increment();
      FleetPrediction fp;
      fp.served.cost = fb.value();
      fp.served.degraded = true;
      fp.rescued = true;
      fp.latency_ms = clock_->MillisSince(t0);
      fp.served.total_ms = fp.latency_ms;
      return fp;
    }
  }
  return error;
}

struct PredictionFleet::RaceState {
  Mutex mu;
  std::condition_variable cv;
  // Hedge losers outlive Predict() on a pool; they work on this
  // fleet-owned copy, never the caller's plan.
  dsp::ParallelQueryPlan plan;
  Result<ServedPrediction> results[2] ZT_GUARDED_BY(mu) = {
      Result<ServedPrediction>(Status::Internal("pending")),
      Result<ServedPrediction>(Status::Internal("pending"))};
  // Answer time of each attempt, in ms after the request's t0.
  double answer_ms[2] ZT_GUARDED_BY(mu) = {0.0, 0.0};
  // Progress flags are atomic so wait predicates can poll them without
  // holding `mu`; they are only written under `mu` before the notify, so
  // cv waiters never miss a transition.
  std::atomic<bool> primary_done{false};
  std::atomic<int> finished{0};
  std::atomic<int> winner{-1};  // OK attempt with the earliest answer time

  explicit RaceState(const dsp::ParallelQueryPlan& p) : plan(p) {}
};

void PredictionFleet::Launch(const std::shared_ptr<RaceState>& state,
                             int slot, Replica* replica, double budget_ms,
                             double start_ms) {
  const int64_t dispatched = clock_->NowNanos();
  auto run = [this, state, slot, replica, budget_ms, start_ms, dispatched] {
    Result<ServedPrediction> r = DispatchTo(replica, state->plan, budget_ms);
    const double answer_ms = start_ms + clock_->MillisSince(dispatched);
    MutexLock g(state->mu);
    const int w = state->winner.load();
    if (r.ok() && (w < 0 || answer_ms < state->answer_ms[w])) {
      state->winner.store(slot);
    }
    state->results[slot] = std::move(r);
    state->answer_ms[slot] = answer_ms;
    if (slot == 0) state->primary_done.store(true);
    state->finished.fetch_add(1);
    state->cv.notify_all();
  };
  if (pool_ != nullptr) {
    pool_->Submit(std::move(run));
  } else {
    run();
  }
}

Result<FleetPrediction> PredictionFleet::Execute(
    Replica* primary, Replica* target, const dsp::ParallelQueryPlan& plan,
    double deadline_ms, int64_t t0) {
  const double hedge_delay = EffectiveHedgeDelayMs(primary->health());
  // Deadline budget left to an attempt that starts `start_ms` after t0.
  const auto budget_from = [deadline_ms](double start_ms) {
    return deadline_ms > 0.0 ? std::max(deadline_ms - start_ms, 0.01) : 0.0;
  };
  auto state = std::make_shared<RaceState>(plan);
  Launch(state, 0, primary, deadline_ms, clock_->MillisSince(t0));

  FleetPrediction fp;
  fp.replica = primary->id();
  MutexLock lock(state->mu);
  int launched = 1;
  if (options_.hedge.enabled && target != nullptr) {
    // On a pool this waits in real time for the primary or the hedge
    // delay; inline the primary has already answered.
    state->cv.wait_for(lock.unique_lock(),
                       std::chrono::duration<double, std::milli>(hedge_delay),
                       [&] { return state->primary_done.load(); });
    if (!state->primary_done.load() || state->answer_ms[0] > hedge_delay) {
      hedges_sent_->Increment();
      fp.hedged = true;
      lock.Unlock();  // an inline attempt takes `mu` on this thread
      Launch(state, 1, target, budget_from(hedge_delay), hedge_delay);
      lock.Lock();
      launched = 2;
    }
  }
  // Wait for an OK answer or for every launched attempt; on a pool the
  // caller takes the first OK answer to arrive. Liveness: each attempt
  // is deadline-bounded inside the replica (or answers promptly via its
  // fallback), so the predicate always fires.
  state->cv.wait(lock.unique_lock(), [&] {
    return state->winner.load() >= 0 || state->finished.load() == launched;
  });

  const int w = state->winner.load();
  if (fp.hedged) {
    // A losing attempt is never preempted; its answer is discarded.
    if (w == 1) {
      hedges_won_->Increment();
      fp.hedge_won = true;
      fp.replica = target->id();
    } else {
      hedges_cancelled_->Increment();
    }
  }
  if (w >= 0) {
    fp.served = state->results[w].value();
    fp.latency_ms = state->answer_ms[w];
    return fp;
  }

  // No OK answer. An expired budget leaves no time for a failover or a
  // rescue, and a plan the admission lint rejects is rejected by every
  // replica.
  const Status primary_error = state->results[0].status();
  lock.Unlock();
  if (primary_error.code() == StatusCode::kDeadlineExceeded ||
      primary_error.code() == StatusCode::kInvalidArgument) {
    return primary_error;
  }
  if (!fp.hedged && target != nullptr) {
    // The primary failed before any hedge went out: synchronous failover
    // to the next replica on the ring.
    failovers_->Increment();
    Result<ServedPrediction> r1 =
        DispatchTo(target, state->plan, budget_from(clock_->MillisSince(t0)));
    if (r1.ok()) {
      fp.served = std::move(r1).value();
      fp.replica = target->id();
      fp.latency_ms = clock_->MillisSince(t0);
      return fp;
    }
  }
  return Rescue(state->plan, primary_error, t0);
}

Result<FleetPrediction> PredictionFleet::Predict(const FleetRequest& request) {
  // Malformed calls (no plan, bad options) are rejected before they are
  // counted: every *received* request must land in exactly one shed or
  // disposition bucket for the reconciliation invariants to hold.
  ZT_RETURN_IF_ERROR(options_status_);
  if (request.plan == nullptr) {
    return Status::InvalidArgument("fleet request carries no plan");
  }
  received_->Increment();
  const std::string tenant =
      request.tenant.empty() ? "anonymous" : request.tenant;

  // Tenant-fair admission in front of everything else; per-replica
  // admission bounds provide the second, replica-local shedding layer.
  const QuotaDecision decision = quotas_.Admit(tenant, capacity());
  if (decision != QuotaDecision::kAdmit) {
    quotas_.CountOutcome(tenant, /*answered=*/false);
    switch (decision) {
      case QuotaDecision::kFleetFull:
        shed_fleet_capacity_->Increment();
        return Status::ResourceExhausted("fleet at capacity (" +
                                         std::to_string(capacity()) +
                                         " in flight); request shed");
      case QuotaDecision::kTenantQuota:
        shed_tenant_quota_->Increment();
        return Status::ResourceExhausted(
            "tenant quota exceeded for '" + tenant + "'; request shed");
      default:
        shed_fair_share_->Increment();
        return Status::ResourceExhausted(
            "fleet loaded beyond fair-share watermark and tenant '" +
            tenant + "' is at its fair share; request shed");
    }
  }
  admitted_->Increment();
  struct QuotaGuard {
    TenantQuotas* quotas;
    const std::string& tenant;
    ~QuotaGuard() { quotas->Release(tenant); }
  } guard{&quotas_, tenant};

  const int64_t t0 = clock_->NowNanos();
  const uint64_t key = RequestKey(tenant, PlanKeyHash(*request.plan));
  Replica* primary = nullptr;
  Replica* target = nullptr;
  size_t skipped = 0;
  Route(key, &primary, &target, &skipped);
  if (skipped > 0) failovers_->Increment(skipped);

  Result<FleetPrediction> result{Status::Internal("pending")};
  if (primary == nullptr) {
    // Total outage: every ring member is down. The fleet-level fallback
    // is the difference between "no replica" and "no answer".
    result = Rescue(*request.plan,
                    Status::Unavailable("no routable replica (all down)"),
                    t0);
  } else {
    result = Execute(primary, target, *request.plan, request.deadline_ms, t0);
  }

  if (result.ok()) {
    FleetPrediction& fp = result.value();
    fp.failovers = skipped;
    answered_->Increment();
    if (fp.served.degraded) degraded_->Increment();
    RecordAnswerLatency(fp.latency_ms);
    quotas_.CountOutcome(tenant, /*answered=*/true);
  } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
    deadline_expired_->Increment();
    quotas_.CountOutcome(tenant, /*answered=*/false);
  } else {
    failed_->Increment();
    quotas_.CountOutcome(tenant, /*answered=*/false);
  }
  return result;
}

FleetStats PredictionFleet::Snapshot() const {
  FleetStats snap;
  // Reverse-causal read order, same discipline as ServiceStats: read
  // dispositions before admitted before received so every concurrent
  // snapshot satisfies the documented inequalities, with equality at
  // quiescence.
  snap.latency_ms = latency_ms_->Snapshot();
  snap.degraded = degraded_->Value();
  snap.answered = answered_->Value();
  snap.deadline_expired = deadline_expired_->Value();
  snap.failed = failed_->Value();
  snap.hedges_won = hedges_won_->Value();
  snap.hedges_cancelled = hedges_cancelled_->Value();
  snap.hedges_sent = hedges_sent_->Value();
  snap.failovers = failovers_->Value();
  snap.fallback_rescues = fallback_rescues_->Value();
  snap.dispatches = dispatches_->Value();
  snap.admitted = admitted_->Value();
  snap.shed_fleet_capacity = shed_fleet_capacity_->Value();
  snap.shed_tenant_quota = shed_tenant_quota_->Value();
  snap.shed_fair_share = shed_fair_share_->Value();
  snap.received = received_->Value();
  snap.kills = kills_->Value();
  snap.restarts = restarts_->Value();
  snap.scale_ups = scale_ups_->Value();
  snap.scale_downs = scale_downs_->Value();
  snap.primary_swaps = primary_swaps_->Value();
  snap.primary_version = primary_version();
  snap.tenants_seen = quotas_.tenants_seen();
  snap.active_tenants = quotas_.active_tenants();

  ReaderMutexLock lock(ring_mu_);
  snap.replicas_total = ring_.size();
  bool first_hist = true;
  for (const auto& [id, replica] : replicas_) {
    ReplicaStatsEntry entry;
    entry.id = id;
    entry.alive = replica->alive();
    entry.routable = ring_.Contains(id);
    entry.health = replica->health();
    entry.incarnations = replica->incarnations();
    entry.crashed_rejections = replica->crashed_rejections();
    entry.model_version = replica->model_version();
    entry.service = replica->CumulativeStats();
    if (entry.alive && entry.routable) ++snap.replicas_alive;
    if (first_hist) {
      snap.replica_latency_ms = entry.service.latency_ms;
      first_hist = false;
    } else {
      ZT_CHECK_OK(snap.replica_latency_ms.Merge(entry.service.latency_ms));
    }
    snap.replicas.push_back(std::move(entry));
  }
  return snap;
}

}  // namespace zerotune::serve::fleet
