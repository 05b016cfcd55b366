// Tests for the online adaptation loop (serve/adaptation/): per-family
// drift detection with hysteresis, shadow scoring of candidate vs live
// models, the replica-by-replica versioned rollout state machine on a
// FakeClock, the AdaptationWorker end-to-end cycle against a real
// registry (fine-tune -> shadow -> promote / reject / rollback), and the
// hot-swap vs in-flight-prediction race the sanitizer jobs exercise.
#include "serve/adaptation/worker.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/clock.h"
#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "core/registry/model_registry.h"
#include "core/trainer.h"
#include "dsp/cluster.h"
#include "dsp/parallel_plan.h"
#include "dsp/query_plan.h"
#include "serve/adaptation/drift_detector.h"
#include "serve/adaptation/rollout.h"
#include "serve/adaptation/shadow_scorer.h"
#include "sim/ground_truth.h"

namespace zerotune::serve::adaptation {
namespace {

using core::CostPrediction;
using core::registry::ModelRegistry;
using core::registry::VersionState;

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

/// Fixed-answer predictor for shadow-scorer and rollout tests.
class FixedPredictor : public core::CostPredictor {
 public:
  explicit FixedPredictor(double latency_ms, bool fail = false)
      : latency_ms_(latency_ms), fail_(fail) {}

  Result<CostPrediction> Predict(
      const dsp::ParallelQueryPlan&) const override {
    if (fail_) return Status::Internal("fixed predictor failure");
    return CostPrediction{latency_ms_, 48000.0};
  }
  std::string name() const override { return "fixed"; }

 private:
  double latency_ms_;
  bool fail_;
};

// ------------------------------------------------------------- detector

DriftOptions SmallDrift() {
  DriftOptions o;
  o.window = 8;
  o.min_samples = 4;
  o.trip_qerror = 2.0;
  o.clear_qerror = 1.2;
  return o;
}

TEST(DriftDetectorTest, TripsOnSustainedQErrorAndClearsWithHysteresis) {
  DriftDetector d(SmallDrift());
  // Four q=3 observations: median 3 >= trip 2 -> drifting.
  for (int i = 0; i < 4; ++i) d.Observe("fam", 1.0, 3.0);
  EXPECT_TRUE(d.IsDrifting("fam"));
  EXPECT_TRUE(d.AnyDrifting());
  EXPECT_GE(d.RollingQError("fam"), 3.0 - 1e-9);

  // Push the rolling median into the hysteresis band (1.2, 2.0): the
  // family must STAY drifting — hovering near the threshold cannot flap.
  for (int i = 0; i < 8; ++i) d.Observe("fam", 1.0, 1.5);
  EXPECT_TRUE(d.IsDrifting("fam"));

  // Perfect predictions push the median below clear_qerror -> clears.
  for (int i = 0; i < 8; ++i) d.Observe("fam", 1.0, 1.0);
  EXPECT_FALSE(d.IsDrifting("fam"));
  EXPECT_FALSE(d.AnyDrifting());
}

TEST(DriftDetectorTest, NeedsMinSamplesBeforeTripping) {
  DriftDetector d(SmallDrift());
  for (int i = 0; i < 3; ++i) d.Observe("fam", 1.0, 100.0);
  EXPECT_FALSE(d.IsDrifting("fam"));  // 3 < min_samples
  d.Observe("fam", 1.0, 100.0);
  EXPECT_TRUE(d.IsDrifting("fam"));
}

TEST(DriftDetectorTest, FamiliesTrackedIndependently) {
  DriftDetector d(SmallDrift());
  for (int i = 0; i < 6; ++i) {
    d.Observe("bad", 1.0, 4.0);
    d.Observe("good", 1.0, 1.0);
  }
  EXPECT_TRUE(d.IsDrifting("bad"));
  EXPECT_FALSE(d.IsDrifting("good"));
  const auto drifting = d.DriftingFamilies();
  ASSERT_EQ(drifting.size(), 1u);
  EXPECT_EQ(drifting[0], "bad");
  EXPECT_EQ(d.observations(), 12u);
}

TEST(DriftDetectorTest, ResetForgetsWindowsAndStates) {
  DriftDetector d(SmallDrift());
  for (int i = 0; i < 6; ++i) d.Observe("fam", 1.0, 4.0);
  ASSERT_TRUE(d.AnyDrifting());
  d.Reset();
  EXPECT_FALSE(d.AnyDrifting());
  EXPECT_FALSE(d.IsDrifting("fam"));
  EXPECT_EQ(d.RollingQError("fam"), 0.0);
  // After reset the family needs min_samples again.
  for (int i = 0; i < 3; ++i) d.Observe("fam", 1.0, 4.0);
  EXPECT_FALSE(d.IsDrifting("fam"));
}

// -------------------------------------------------------------- scorer

ShadowOptions SmallShadow() {
  ShadowOptions o;
  o.min_samples = 4;
  o.max_samples = 8;
  o.promote_margin = 0.95;
  o.reject_margin = 1.10;
  return o;
}

TEST(ShadowScorerTest, PromotesMeasurablyBetterCandidate) {
  const auto plan = ValidPlan();
  FixedPredictor live(10.0);      // q = 2 against actual 5
  FixedPredictor candidate(5.0);  // q = 1
  ShadowScorer scorer(&live, &candidate, SmallShadow());
  ShadowVerdict v = ShadowVerdict::kUndecided;
  for (int i = 0; i < 4; ++i) v = scorer.Observe(plan, 5.0);
  EXPECT_EQ(v, ShadowVerdict::kPromote);
  const auto score = scorer.score();
  EXPECT_EQ(score.samples, 4u);
  EXPECT_NEAR(score.live_qerror, 2.0, 1e-9);
  EXPECT_NEAR(score.candidate_qerror, 1.0, 1e-9);
  // The verdict latches: further mirrored traffic is ignored.
  EXPECT_EQ(scorer.Observe(plan, 5.0), ShadowVerdict::kPromote);
  EXPECT_EQ(scorer.score().samples, 4u);
}

TEST(ShadowScorerTest, RejectsClearlyWorseCandidate) {
  const auto plan = ValidPlan();
  FixedPredictor live(10.0);        // q = 1 against actual 10
  FixedPredictor candidate(50.0);   // q = 5
  ShadowScorer scorer(&live, &candidate, SmallShadow());
  ShadowVerdict v = ShadowVerdict::kUndecided;
  for (int i = 0; i < 4; ++i) v = scorer.Observe(plan, 10.0);
  EXPECT_EQ(v, ShadowVerdict::kReject);
}

TEST(ShadowScorerTest, UndecidedRaceRejectsAtMaxSamples) {
  // Identical models: neither margin is ever crossed. At max_samples the
  // race resolves conservatively — a candidate that cannot demonstrate
  // improvement does not ship.
  const auto plan = ValidPlan();
  FixedPredictor live(10.0), candidate(10.0);
  ShadowScorer scorer(&live, &candidate, SmallShadow());
  ShadowVerdict v = ShadowVerdict::kUndecided;
  for (int i = 0; i < 7; ++i) {
    v = scorer.Observe(plan, 10.0);
    EXPECT_EQ(v, ShadowVerdict::kUndecided);
  }
  v = scorer.Observe(plan, 10.0);  // sample 8 == max_samples
  EXPECT_EQ(v, ShadowVerdict::kReject);
}

TEST(ShadowScorerTest, CandidatePredictionFailureLatchesReject) {
  const auto plan = ValidPlan();
  FixedPredictor live(10.0);
  FixedPredictor candidate(10.0, /*fail=*/true);
  ShadowScorer scorer(&live, &candidate, SmallShadow());
  EXPECT_EQ(scorer.Observe(plan, 10.0), ShadowVerdict::kReject);
  EXPECT_EQ(scorer.score().candidate_failures, 1u);
}

TEST(ShadowScorerTest, LiveFailureSkipsSampleWithoutVerdict) {
  const auto plan = ValidPlan();
  FixedPredictor live(10.0, /*fail=*/true);
  FixedPredictor candidate(10.0);
  ShadowScorer scorer(&live, &candidate, SmallShadow());
  EXPECT_EQ(scorer.Observe(plan, 10.0), ShadowVerdict::kUndecided);
  const auto score = scorer.score();
  EXPECT_EQ(score.samples, 0u);  // skipped, not scored
  EXPECT_EQ(score.live_failures, 1u);
}

// ------------------------------------------------------------- rollout

RolloutOptions FastRollout() {
  RolloutOptions o;
  o.pause_ms = 1.0;
  o.min_answers = 0;  // judge immediately after the pause
  o.max_wait_ms = 50.0;
  o.max_failure_rate = 0.2;
  return o;
}

fleet::FleetOptions SmallFleet(size_t replicas) {
  fleet::FleetOptions o;
  o.initial_replicas = replicas;
  o.replica.max_inflight = 16;
  o.replica.max_attempts = 1;  // failures surface on the first attempt
  o.replica.model_version = 1;
  return o;
}

TEST(VersionRolloutTest, CommitsHealthyRolloutReplicaByReplica) {
  FakeClock clock;
  FixedPredictor fallback(9.0);
  fleet::PredictionFleet fleet(
      [](uint32_t) { return std::make_unique<FixedPredictor>(10.0); },
      &fallback, SmallFleet(3), nullptr, &clock);
  VersionRollout rollout(&fleet, FastRollout(), &clock);

  auto v2_factory = [](uint32_t) {
    return std::make_unique<FixedPredictor>(5.0);
  };
  auto v1_factory = [](uint32_t) {
    return std::make_unique<FixedPredictor>(10.0);
  };
  ASSERT_TRUE(rollout.Begin(v2_factory, 2, v1_factory, 1).ok());
  // A second Begin while one is running must fail.
  EXPECT_FALSE(rollout.Begin(v2_factory, 2, v1_factory, 1).ok());

  const auto ids = fleet.ReplicaIds();
  ASSERT_EQ(ids.size(), 3u);
  ASSERT_EQ(rollout.Tick(), VersionRollout::Phase::kPausing);
  // Mid-rollout the fleet is intentionally mixed-version.
  EXPECT_EQ(fleet.ReplicaVersion(ids[0]).value(), 2u);
  EXPECT_EQ(fleet.ReplicaVersion(ids[1]).value(), 1u);

  const auto plan = ValidPlan();
  VersionRollout::Phase phase = rollout.phase();
  for (int i = 0; i < 50 && phase != VersionRollout::Phase::kDone; ++i) {
    // Traffic keeps flowing while the rollout steps.
    fleet::FleetRequest req;
    req.tenant = "t" + std::to_string(i);
    req.plan = &plan;
    ASSERT_TRUE(fleet.Predict(req).ok());
    clock.AdvanceMillis(1.0);
    phase = rollout.Tick();
  }
  ASSERT_EQ(phase, VersionRollout::Phase::kDone);
  for (uint32_t id : ids) {
    EXPECT_EQ(fleet.ReplicaVersion(id).value(), 2u);
  }
  // The committed fleet-wide factory serves scale-ups at the new version.
  EXPECT_EQ(fleet.primary_version(), 2u);
  EXPECT_EQ(rollout.swapped(), 3u);
  EXPECT_GT(rollout.last_duration_ms(), 0.0);

  const auto stats = fleet.Snapshot();
  EXPECT_EQ(stats.primary_swaps, 3u);
  EXPECT_EQ(stats.primary_version, 2u);
  // Nobody was dropped during the rolling swap.
  EXPECT_EQ(stats.received, stats.admitted);
  EXPECT_DOUBLE_EQ(stats.Availability(), 1.0);
}

TEST(VersionRolloutTest, RollsBackEveryReplicaOnRegression) {
  FakeClock clock;
  FixedPredictor fallback(9.0);
  fleet::PredictionFleet fleet(
      [](uint32_t) { return std::make_unique<FixedPredictor>(10.0); },
      &fallback, SmallFleet(3), nullptr, &clock);
  RolloutOptions opts = FastRollout();
  opts.min_answers = 1;  // judge on real traffic
  VersionRollout rollout(&fleet, opts, &clock);

  // The promoted version cannot predict at all: every request that lands
  // on a swapped replica degrades to the fallback.
  auto bad_factory = [](uint32_t) {
    return std::make_unique<FixedPredictor>(0.0, /*fail=*/true);
  };
  auto good_factory = [](uint32_t) {
    return std::make_unique<FixedPredictor>(10.0);
  };
  ASSERT_TRUE(rollout.Begin(bad_factory, 2, good_factory, 1).ok());

  const auto plan = ValidPlan();
  VersionRollout::Phase phase = rollout.phase();
  uint64_t sent = 0;
  for (int round = 0; round < 100 &&
                      phase != VersionRollout::Phase::kRolledBack &&
                      phase != VersionRollout::Phase::kDone;
       ++round) {
    for (int j = 0; j < 8; ++j) {
      fleet::FleetRequest req;
      req.tenant = "t" + std::to_string(round) + "_" + std::to_string(j);
      req.plan = &plan;
      ASSERT_TRUE(fleet.Predict(req).ok());
      ++sent;
    }
    clock.AdvanceMillis(1.0);
    phase = rollout.Tick();
  }
  ASSERT_EQ(phase, VersionRollout::Phase::kRolledBack);
  // Every touched replica is back on the previous version: the fleet
  // never stays mixed-version after a failed rollout.
  for (uint32_t id : fleet.ReplicaIds()) {
    EXPECT_EQ(fleet.ReplicaVersion(id).value(), 1u);
  }
  // The fleet-wide factory was never committed to the new version (it
  // still reports the construction-time version).
  EXPECT_EQ(fleet.primary_version(), 1u);

  // Availability held through the failed rollout: the fallback answered
  // for the broken primary, so every admitted request got an answer.
  const auto stats = fleet.Snapshot();
  EXPECT_EQ(stats.received, sent);
  EXPECT_EQ(stats.admitted, stats.answered);
  EXPECT_DOUBLE_EQ(stats.Availability(), 1.0);
  EXPECT_GT(stats.degraded, 0u);
}

// ------------------------------------------------------------- worker

class AdaptationWorkerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One trained live model shared by every worker test (training is the
    // slow part; each test publishes its own copy into a fresh registry).
    core::OptiSampleEnumerator enumerator;
    core::DatasetBuilderOptions dopts;
    dopts.count = 80;
    dopts.seed = 11;
    auto corpus = core::BuildDataset(enumerator, dopts);
    ZT_CHECK_OK(corpus.status());
    core::ModelConfig cfg;
    cfg.hidden_dim = 16;
    cfg.seed = 3;
    auto model = std::make_unique<core::ZeroTuneModel>(cfg);
    core::TrainOptions topts;
    topts.epochs = 8;
    topts.patience = 0;
    ZT_CHECK_OK(core::Trainer(model.get(), topts)
                    .Train(corpus.value(), workload::Dataset())
                    .status());
    // ctest runs each case in its own process, concurrently under -j:
    // a per-process name keeps one suite's teardown from deleting the
    // file another process is about to load.
    model_path_ = new std::string(::testing::TempDir() +
                                  "/zt_adaptation_live_model_" +
                                  std::to_string(::getpid()) + ".txt");
    ZT_CHECK_OK(model->Save(*model_path_));
  }
  static void TearDownTestSuite() {
    std::remove(model_path_->c_str());
    delete model_path_;
    model_path_ = nullptr;
  }

  /// Fresh registry with the shared trained model published + live as v1.
  static std::unique_ptr<ModelRegistry> OpenRegistryWithLive(
      const std::string& name) {
    const std::string root = ::testing::TempDir() + "/zt_adapt_reg_" + name;
    std::filesystem::remove_all(root);
    auto reg = ModelRegistry::Open(root);
    ZT_CHECK_OK(reg.status());
    auto model = core::ZeroTuneModel::LoadFromFile(*model_path_);
    ZT_CHECK_OK(model.status());
    core::registry::VersionInfo info;
    info.source = "initial";
    auto id = reg.value()->Publish(model.value().get(), info);
    ZT_CHECK_OK(id.status());
    ZT_CHECK_OK(reg.value()->Promote(id.value(), 0.0));
    return std::move(reg).value();
  }

  static AdaptationOptions WorkerOptions() {
    AdaptationOptions o;
    o.drift.window = 16;
    o.drift.min_samples = 4;
    o.drift.trip_qerror = 2.0;
    o.drift.clear_qerror = 1.2;
    o.shadow.min_samples = 4;
    o.shadow.max_samples = 32;
    o.shadow.promote_margin = 0.999;  // any demonstrable improvement
    o.shadow.reject_margin = 10.0;    // never early-reject in these drills
    o.rollout.pause_ms = 1.0;
    o.rollout.min_answers = 1;
    o.rollout.max_wait_ms = 50.0;
    o.min_pairs = 8;
    o.max_pairs = 64;
    o.finetune_epochs = 12;
    o.finetune_learning_rate = 3e-3;
    o.seed = 7;
    return o;
  }

  static std::string* model_path_;
};

std::string* AdaptationWorkerTest::model_path_ = nullptr;

TEST_F(AdaptationWorkerTest, DriftTriggersFineTuneAndShadowPromotes) {
  auto registry = OpenRegistryWithLive("promote");
  FakeClock clock;
  AdaptationWorker worker(registry.get(), nullptr, WorkerOptions(), &clock);

  const auto plan = ValidPlan();
  auto live = registry->LoadVersion(1);
  ASSERT_TRUE(live.ok());
  auto live_pred = live.value()->Predict(plan);
  ASSERT_TRUE(live_pred.ok());
  const double lat = std::max(live_pred.value().latency_ms, 0.1);
  const double tpt = std::max(live_pred.value().throughput_tps, 1.0);

  // The environment slowed down 3x: the live model's q-error on this
  // family is a sustained 3 — exactly what the detector must catch.
  const double actual_lat = 3.0 * lat;
  const double actual_tpt = std::max(tpt / 3.0, 1.0);
  for (int i = 0; i < 12; ++i) {
    worker.Observe(ObservedExecution{plan, lat, actual_lat, actual_tpt,
                                     "fam"});
  }
  ASSERT_TRUE(worker.drift().IsDrifting("fam"));

  // Tick fine-tunes on the buffered pairs and arms the shadow race.
  auto state = worker.Tick();
  ASSERT_TRUE(state.ok()) << state.status().message();
  ASSERT_EQ(state.value(), AdaptationWorker::State::kShadowing);
  ASSERT_EQ(worker.snapshot().finetunes, 1u);
  ASSERT_EQ(worker.snapshot().candidate_version, 2u);
  // The candidate exists in the registry but is not yet live.
  EXPECT_EQ(registry->live_version(), 1u);

  // Mirrored traffic under the drifted regime: the fine-tuned candidate
  // must predict it measurably better than the live model does.
  for (int i = 0; i < 8; ++i) {
    worker.Observe(ObservedExecution{plan, lat, actual_lat, actual_tpt,
                                     "fam"});
  }
  state = worker.Tick();
  ASSERT_TRUE(state.ok()) << state.status().message();
  EXPECT_EQ(state.value(), AdaptationWorker::State::kMonitoring);

  const auto stats = worker.snapshot();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.rejections, 0u);
  EXPECT_EQ(stats.live_version, 2u);
  EXPECT_EQ(registry->live_version(), 2u);
  EXPECT_EQ(stats.buffered_pairs, 0u);  // fresh evidence from here on
  // Promotion reset the drift windows: the new model starts clean.
  EXPECT_FALSE(worker.drift().AnyDrifting());
  const auto versions = registry->Versions();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].state, VersionState::kRetired);
  EXPECT_EQ(versions[1].state, VersionState::kLive);
  EXPECT_EQ(versions[1].parent, 1u);
  EXPECT_EQ(versions[1].source, "finetune");
  // The shadow race's candidate q-error was recorded at promotion and
  // beat the live model's sustained 3.
  EXPECT_GT(versions[1].median_qerror, 0.0);
  EXPECT_LT(versions[1].median_qerror, 3.0);
}

TEST_F(AdaptationWorkerTest, ShadowRejectKeepsLiveVersionAndClearsPairs) {
  auto registry = OpenRegistryWithLive("reject");
  FakeClock clock;
  AdaptationOptions opts = WorkerOptions();
  // The candidate must now BEAT an already-perfect live model to ship.
  opts.shadow.promote_margin = 0.01;
  opts.shadow.reject_margin = 1.0;
  AdaptationWorker worker(registry.get(), nullptr, opts, &clock);

  const auto plan = ValidPlan();
  auto live = registry->LoadVersion(1);
  ASSERT_TRUE(live.ok());
  auto live_pred = live.value()->Predict(plan);
  ASSERT_TRUE(live_pred.ok());
  const double lat = std::max(live_pred.value().latency_ms, 0.1);
  const double tpt = std::max(live_pred.value().throughput_tps, 1.0);

  // Drift trips on 3x-off observations, producing a candidate tuned for
  // the 3x regime...
  for (int i = 0; i < 12; ++i) {
    worker.Observe(ObservedExecution{plan, lat, 3.0 * lat,
                                     std::max(tpt / 3.0, 1.0), "fam"});
  }
  auto state = worker.Tick();
  ASSERT_TRUE(state.ok()) << state.status().message();
  ASSERT_EQ(state.value(), AdaptationWorker::State::kShadowing);

  // ...but during the shadow race the environment is back to exactly what
  // the live model predicts (live q-error = 1): the candidate cannot win
  // and must be rejected.
  for (int i = 0; i < 32; ++i) {
    worker.Observe(ObservedExecution{plan, lat, lat, tpt, "fam"});
  }
  state = worker.Tick();
  ASSERT_TRUE(state.ok()) << state.status().message();
  EXPECT_EQ(state.value(), AdaptationWorker::State::kMonitoring);

  const auto stats = worker.snapshot();
  EXPECT_EQ(stats.rejections, 1u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.live_version, 1u);
  EXPECT_EQ(registry->live_version(), 1u);
  EXPECT_EQ(stats.buffered_pairs, 0u);
  const auto versions = registry->Versions();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[1].state, VersionState::kRejected);
}

TEST_F(AdaptationWorkerTest, RolledBackPromotionRestoresParentEverywhere) {
  auto registry = OpenRegistryWithLive("rollback");
  FakeClock clock;
  auto live = registry->LoadVersion(1);
  ASSERT_TRUE(live.ok());

  FixedPredictor fallback(9.0);
  fleet::FleetOptions fopts = SmallFleet(2);
  auto live_model = live.value();
  fleet::PredictionFleet fleet(
      [live_model](uint32_t) {
        return std::make_unique<SharedModelPredictor>(live_model);
      },
      &fallback, fopts, nullptr, &clock);

  AdaptationWorker worker(registry.get(), &fleet, WorkerOptions(), &clock);
  // The candidate version's replicas cannot answer at all — the rollout
  // must detect the regression and the worker must roll the registry
  // back to the parent.
  worker.set_factory_builder(
      [](std::shared_ptr<const core::ZeroTuneModel> model,
         uint64_t version) -> fleet::PredictionFleet::PrimaryFactory {
        if (version >= 2) {
          return [](uint32_t) {
            return std::make_unique<FixedPredictor>(0.0, /*fail=*/true);
          };
        }
        return [model](uint32_t) {
          return std::make_unique<SharedModelPredictor>(model);
        };
      });

  const auto plan = ValidPlan();
  auto live_pred = live.value()->Predict(plan);
  ASSERT_TRUE(live_pred.ok());
  const double lat = std::max(live_pred.value().latency_ms, 0.1);
  const double tpt = std::max(live_pred.value().throughput_tps, 1.0);
  const double actual_lat = 3.0 * lat;
  const double actual_tpt = std::max(tpt / 3.0, 1.0);

  // Monitoring -> fine-tune -> shadowing.
  for (int i = 0; i < 12; ++i) {
    worker.Observe(ObservedExecution{plan, lat, actual_lat, actual_tpt,
                                     "fam"});
  }
  auto state = worker.Tick();
  ASSERT_TRUE(state.ok()) << state.status().message();
  ASSERT_EQ(state.value(), AdaptationWorker::State::kShadowing);
  // Shadowing -> promote -> rolling out.
  for (int i = 0; i < 8; ++i) {
    worker.Observe(ObservedExecution{plan, lat, actual_lat, actual_tpt,
                                     "fam"});
  }
  state = worker.Tick();
  ASSERT_TRUE(state.ok()) << state.status().message();
  ASSERT_EQ(state.value(), AdaptationWorker::State::kRollingOut);
  ASSERT_EQ(registry->live_version(), 2u);

  // Drive fleet traffic through the rollout: requests landing on the
  // swapped replica degrade to the fallback, the rollout judges the
  // regression, swaps back, and the worker rolls the registry back.
  uint64_t sent = 0;
  for (int round = 0;
       round < 200 && worker.state() == AdaptationWorker::State::kRollingOut;
       ++round) {
    for (int j = 0; j < 8; ++j) {
      fleet::FleetRequest req;
      req.tenant = "t" + std::to_string(round) + "_" + std::to_string(j);
      req.plan = &plan;
      ASSERT_TRUE(fleet.Predict(req).ok());
      ++sent;
    }
    clock.AdvanceMillis(1.0);
    state = worker.Tick();
    ASSERT_TRUE(state.ok()) << state.status().message();
  }
  ASSERT_EQ(worker.state(), AdaptationWorker::State::kMonitoring);

  const auto stats = worker.snapshot();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.live_version, 1u);
  EXPECT_EQ(registry->live_version(), 1u);
  const auto versions = registry->Versions();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].state, VersionState::kLive);
  EXPECT_EQ(versions[1].state, VersionState::kRejected);
  // Every replica is back on the parent version.
  for (uint32_t id : fleet.ReplicaIds()) {
    EXPECT_EQ(fleet.ReplicaVersion(id).value(), 1u);
  }

  // Ledger reconciliation + availability through the whole failed
  // promotion: nothing was dropped, everything admitted was answered.
  const auto fstats = fleet.Snapshot();
  EXPECT_EQ(fstats.received, sent);
  EXPECT_EQ(fstats.received, fstats.admitted);
  EXPECT_EQ(fstats.admitted,
            fstats.answered + fstats.deadline_expired + fstats.failed);
  EXPECT_GE(fstats.Availability(), 0.999);
}

// ----------------------------------------------------- hot-swap races

TEST(HotSwapRaceTest, ConcurrentSwapsVsInFlightPredictions) {
  // Real threads hammer Predict while the main thread hot-swaps replica
  // primaries between two live model versions and commits fleet-wide
  // factories — the exact interleaving the rollout produces, compressed.
  // TSan (the CI sanitizer job runs this test) proves the swap path never
  // races an in-flight prediction; the invariant checks prove no request
  // is lost either way.
  core::ModelConfig cfg;
  cfg.hidden_dim = 16;
  cfg.seed = 5;
  auto model_a = std::make_shared<const core::ZeroTuneModel>(cfg);
  cfg.seed = 6;
  auto model_b = std::make_shared<const core::ZeroTuneModel>(cfg);

  FixedPredictor fallback(9.0);
  fleet::FleetOptions fopts;
  fopts.initial_replicas = 2;
  fopts.replica.max_inflight = 64;
  fleet::PredictionFleet fleet(
      [model_a](uint32_t) {
        return std::make_unique<SharedModelPredictor>(model_a);
      },
      &fallback, fopts, nullptr, SystemClock::Default());

  const auto plan = ValidPlan();
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 150;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fleet, &plan, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        fleet::FleetRequest req;
        req.tenant = "t" + std::to_string(t) + "_" + std::to_string(i);
        req.plan = &plan;
        const auto answer = fleet.Predict(req);
        ASSERT_TRUE(answer.ok()) << answer.status().message();
      }
    });
  }

  const auto ids = fleet.ReplicaIds();
  for (int swap = 0; swap < 50; ++swap) {
    const bool to_b = (swap % 2) == 0;
    const auto model = to_b ? model_b : model_a;
    const uint64_t version = to_b ? 2 : 1;
    fleet::PredictionFleet::PrimaryFactory factory =
        [model](uint32_t) {
          return std::make_unique<SharedModelPredictor>(model);
        };
    for (uint32_t id : ids) {
      ASSERT_TRUE(fleet.SwapReplicaPrimary(id, factory, version).ok());
    }
    fleet.SetPrimaryFactory(factory, version);
  }
  for (std::thread& t : threads) t.join();

  const auto stats = fleet.Snapshot();
  EXPECT_EQ(stats.received,
            static_cast<uint64_t>(kThreads) * kRequestsPerThread);
  EXPECT_EQ(stats.admitted,
            stats.answered + stats.deadline_expired + stats.failed);
  EXPECT_EQ(stats.primary_swaps, 100u);  // 50 rounds x 2 replicas
  EXPECT_EQ(fleet.primary_version(), 1u);  // last committed round
}

}  // namespace
}  // namespace zerotune::serve::adaptation
