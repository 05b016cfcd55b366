#include "core/trainer.h"

#include <cmath>
#include <gtest/gtest.h>

#include "core/dataset_builder.h"
#include "core/enumeration.h"

namespace zerotune::core {
namespace {

workload::Dataset SmallCorpus(size_t n, uint64_t seed = 11) {
  OptiSampleEnumerator enumerator;
  DatasetBuilderOptions opts;
  opts.count = n;
  opts.seed = seed;
  return BuildDataset(enumerator, opts).value();
}

class TrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new workload::Dataset(SmallCorpus(160));
    Rng rng(5);
    train_ = new workload::Dataset();
    val_ = new workload::Dataset();
    test_ = new workload::Dataset();
    ASSERT_TRUE(corpus_->Split(0.8, 0.1, &rng, train_, val_, test_).ok());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete train_;
    delete val_;
    delete test_;
  }

  static workload::Dataset* corpus_;
  static workload::Dataset* train_;
  static workload::Dataset* val_;
  static workload::Dataset* test_;
};

workload::Dataset* TrainerTest::corpus_ = nullptr;
workload::Dataset* TrainerTest::train_ = nullptr;
workload::Dataset* TrainerTest::val_ = nullptr;
workload::Dataset* TrainerTest::test_ = nullptr;

TEST_F(TrainerTest, LossDecreasesOverTraining) {
  ModelConfig cfg;
  cfg.hidden_dim = 24;
  ZeroTuneModel model(cfg);
  TrainOptions opts;
  opts.epochs = 12;
  opts.patience = 0;
  const auto report = Trainer(&model, opts).Train(*train_, *val_);
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report.value().epoch_train_losses.size(), 2u);
  EXPECT_LT(report.value().epoch_train_losses.back(),
            report.value().epoch_train_losses.front());
}

TEST_F(TrainerTest, TrainedModelBeatsUntrainedOnQError) {
  ModelConfig cfg;
  cfg.hidden_dim = 24;
  cfg.seed = 2;
  ZeroTuneModel untrained(cfg);
  // Untrained model needs target stats to produce sane magnitudes.
  ZeroTuneModel trained(cfg);
  TrainOptions opts;
  opts.epochs = 25;
  Trainer trainer(&trained, opts);
  ASSERT_TRUE(trainer.Train(*train_, *val_).ok());
  untrained.set_target_stats(trained.target_stats());

  const auto eval_trained = Trainer::Evaluate(trained, *test_);
  const auto eval_untrained = Trainer::Evaluate(untrained, *test_);
  EXPECT_LT(eval_trained.latency.median, eval_untrained.latency.median);
  EXPECT_GE(eval_trained.latency.median, 1.0);
}

TEST_F(TrainerTest, ParallelTrainingMatchesSequentialLoss) {
  // Every mini-batch splits into the same chunks whatever the pool, and
  // the chunks' gradients merge in chunk order, so the trained weights are
  // == with no pool and with any thread count: a model does not depend on
  // the machine it was trained on.
  const auto train = [&](ThreadPool* pool) {
    ModelConfig cfg;
    cfg.hidden_dim = 16;
    ZeroTuneModel model(cfg);
    TrainOptions opts;
    opts.epochs = 6;
    opts.pool = pool;
    const auto report = Trainer(&model, opts).Train(*train_, *val_);
    EXPECT_TRUE(report.ok());
    if (report.ok()) {
      EXPECT_LT(report.value().epoch_train_losses.back(),
                report.value().epoch_train_losses.front());
    }
    return model.params().Snapshot();
  };
  const std::vector<nn::Matrix> sequential = train(nullptr);
  for (size_t threads : {1, 2, 3, 4, 8}) {
    ThreadPool pool(threads);
    const std::vector<nn::Matrix> pooled = train(&pool);
    ASSERT_EQ(pooled.size(), sequential.size());
    for (size_t p = 0; p < pooled.size(); ++p) {
      ASSERT_TRUE(pooled[p].SameShape(sequential[p]));
      for (size_t k = 0; k < pooled[p].size(); ++k) {
        ASSERT_EQ(pooled[p].data()[k], sequential[p].data()[k])
            << threads << " threads, parameter " << p << ", entry " << k;
      }
    }
  }
}

TEST_F(TrainerTest, EarlyStoppingStopsBeforeEpochBudget) {
  ModelConfig cfg;
  cfg.hidden_dim = 8;
  ZeroTuneModel model(cfg);
  TrainOptions opts;
  opts.epochs = 200;
  opts.patience = 3;
  opts.learning_rate = 5e-2;  // aggressive: overfits and plateaus fast
  const auto report = Trainer(&model, opts).Train(*train_, *val_);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report.value().epochs_run, 200u);
}

TEST_F(TrainerTest, EvaluateProducesFiniteSummaries) {
  ModelConfig cfg;
  cfg.hidden_dim = 16;
  ZeroTuneModel model(cfg);
  TrainOptions opts;
  opts.epochs = 5;
  ASSERT_TRUE(Trainer(&model, opts).Train(*train_, *val_).ok());
  const auto eval = Trainer::Evaluate(model, *test_);
  EXPECT_EQ(eval.latency.count, test_->size());
  EXPECT_GE(eval.latency.median, 1.0);
  EXPECT_GE(eval.throughput.p95, eval.throughput.median);
}

TEST_F(TrainerTest, QErrorsPerSample) {
  ModelConfig cfg;
  cfg.hidden_dim = 16;
  ZeroTuneModel model(cfg);
  TrainOptions opts;
  opts.epochs = 3;
  ASSERT_TRUE(Trainer(&model, opts).Train(*train_, *val_).ok());
  std::vector<double> lat, tpt;
  Trainer::QErrors(model, *test_, &lat, &tpt);
  EXPECT_EQ(lat.size(), test_->size());
  for (double q : lat) EXPECT_GE(q, 1.0);
}

TEST_F(TrainerTest, FineTuningKeepsTargetStats) {
  ModelConfig cfg;
  cfg.hidden_dim = 16;
  ZeroTuneModel model(cfg);
  TrainOptions opts;
  opts.epochs = 4;
  ASSERT_TRUE(Trainer(&model, opts).Train(*train_, *val_).ok());
  const TargetStats before = model.target_stats();

  TrainOptions ft;
  ft.epochs = 2;
  ft.fit_target_stats = false;
  ASSERT_TRUE(Trainer(&model, ft).Train(*train_, *val_).ok());
  EXPECT_DOUBLE_EQ(model.target_stats().latency_mean, before.latency_mean);
}

TEST_F(TrainerTest, InjectedFakeClockMakesTimingDeterministic) {
  // All trainer timing (TrainReport::train_seconds, the
  // trainer.epoch_seconds histogram) flows through TrainOptions::clock.
  // On a FakeClock that nobody advances, elapsed time is exactly zero —
  // any wall-clock leakage would make it positive and flaky.
  ZeroTuneModel model;
  TrainOptions opts;
  opts.epochs = 2;
  opts.patience = 0;
  FakeClock clock;
  opts.clock = &clock;
  const auto report = Trainer(&model, opts).Train(*train_, *val_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().train_seconds, 0.0);

  // Advancing the clock between runs is the only way time passes.
  clock.Advance(3'000'000'000);
  EXPECT_EQ(clock.NowNanos(), 3'000'000'000);
}

TEST(TrainerStandaloneTest, InvalidOptionsFailLoudlyAtTrain) {
  ZeroTuneModel model;
  TrainOptions bad;
  bad.learning_rate = 0.0;  // must be finite and positive
  ASSERT_FALSE(bad.Validate().ok());
  workload::Dataset empty;
  const auto r = Trainer(&model, bad).Train(empty, empty);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("learning_rate"), std::string::npos);
}

TEST(TrainerStandaloneTest, OptionsValidateChecksEveryKnob) {
  TrainOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.epochs = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = TrainOptions();
  opts.batch_size = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = TrainOptions();
  opts.weight_decay = -1.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = TrainOptions();
  opts.grad_clip_norm = -1.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = TrainOptions();
  opts.grad_clip_norm = 0.0;  // 0 disables clipping — allowed
  EXPECT_TRUE(opts.Validate().ok());
  opts = TrainOptions();
  opts.lr_backoff = 0.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = TrainOptions();
  opts.lr_backoff = 1.5;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(TrainerStandaloneTest, EmptyTrainingSetRejected) {
  ZeroTuneModel model;
  TrainOptions opts;
  workload::Dataset empty;
  EXPECT_FALSE(Trainer(&model, opts).Train(empty, empty).ok());
}

TEST_F(TrainerTest, SurvivesInjectedDivergence) {
  // An absurd learning rate drives parameters (and then the loss) to
  // overflow within a batch or two. The trainer must detect the
  // non-finite loss, roll back to the best snapshot, back off the
  // learning rate, and finish with finite parameters instead of
  // propagating NaNs into the saved model.
  ModelConfig cfg;
  cfg.hidden_dim = 16;
  ZeroTuneModel model(cfg);
  TrainOptions opts;
  opts.epochs = 3;
  opts.patience = 0;
  opts.learning_rate = 1e100;
  opts.max_recovery_attempts = 2;
  const auto report = Trainer(&model, opts).Train(*train_, *val_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GE(report.value().nonfinite_batches, 1u);
  EXPECT_GE(report.value().recovery_attempts, 1u);
  EXPECT_LE(report.value().recovery_attempts, 2u);
  EXPECT_LT(report.value().final_learning_rate, opts.learning_rate);

  // The surviving model still produces finite predictions.
  const auto pred = model.Predict(train_->sample(0).plan);
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(std::isfinite(pred.value().latency_ms));
  EXPECT_TRUE(std::isfinite(pred.value().throughput_tps));
}

TEST_F(TrainerTest, HealthyTrainingReportsNoRecoveries) {
  ModelConfig cfg;
  cfg.hidden_dim = 16;
  ZeroTuneModel model(cfg);
  TrainOptions opts;
  opts.epochs = 2;
  const auto report = Trainer(&model, opts).Train(*train_, *val_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().nonfinite_batches, 0u);
  EXPECT_EQ(report.value().recovery_attempts, 0u);
  EXPECT_DOUBLE_EQ(report.value().final_learning_rate, opts.learning_rate);
}

TEST(TrainerStandaloneTest, RejectsNonFiniteLabels) {
  workload::Dataset corpus = SmallCorpus(8);
  workload::Dataset poisoned;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto& s = corpus.sample(i);
    poisoned.Add(workload::LabeledQuery(
        s.plan, i == 3 ? std::nan("") : s.latency_ms, s.throughput_tps,
        s.structure));
  }
  ZeroTuneModel model;
  TrainOptions opts;
  opts.epochs = 1;
  const auto report = Trainer(&model, opts).Train(poisoned, poisoned);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("sample 3"), std::string::npos);
}

TEST(TrainerStandaloneTest, RejectsNonFiniteValidationLabels) {
  // A NaN validation label would make every validation loss NaN, so early
  // stopping would never see an improvement and Train would restore the
  // untrained initial weights.
  const workload::Dataset corpus = SmallCorpus(60, 31);
  workload::Dataset train, val;
  for (size_t i = 0; i < corpus.size(); ++i) {
    workload::LabeledQuery q = corpus.sample(i);
    if (i < 40) {
      train.Add(std::move(q));
      continue;
    }
    if (i == 42) q.latency_ms = std::nan("");
    val.Add(std::move(q));
  }
  ZeroTuneModel model;
  TrainOptions opts;
  opts.epochs = 10;
  opts.patience = 0;
  const auto report = Trainer(&model, opts).Train(train, val);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find(
                "validation sample 2 has a non-finite label"),
            std::string::npos)
      << report.status().ToString();
}

// `zerotune collect --count 200 --seed 5` then `zerotune train --epochs 3
// --hidden 48 --lr 1e6`: every epoch diverges (three rollbacks). The run
// used to keep the least-bad diverged epoch (best val loss 2.4e209,
// held-out latency median q-error 7.4e11); the initial weights score
// better than every epoch, so they are kept.
TEST(TrainerStandaloneTest, KeepsInitialWeightsWhenNoEpochBeatsThem) {
  const workload::Dataset corpus = SmallCorpus(200, 5);
  Rng rng(1);
  workload::Dataset train, val, test;
  ASSERT_TRUE(corpus.Split(0.8, 0.1, &rng, &train, &val, &test).ok());
  ModelConfig cfg;
  cfg.hidden_dim = 48;
  cfg.seed = 1;
  ZeroTuneModel model(cfg);
  const std::vector<nn::Matrix> initial = model.params().Snapshot();
  TrainOptions opts;
  opts.epochs = 3;
  opts.learning_rate = 1e6;
  const auto report = Trainer(&model, opts).Train(train, val);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().recovery_attempts, 3u);
  EXPECT_LT(report.value().best_val_loss, 10.0);

  const std::vector<nn::Matrix> kept = model.params().Snapshot();
  ASSERT_EQ(kept.size(), initial.size());
  for (size_t p = 0; p < kept.size(); ++p) {
    for (size_t k = 0; k < kept[p].size(); ++k) {
      ASSERT_EQ(kept[p].data()[k], initial[p].data()[k])
          << "parameter " << p << ", entry " << k;
    }
  }
  EXPECT_LT(Trainer::Evaluate(model, test).latency.median, 100.0);
}

}  // namespace
}  // namespace zerotune::core
