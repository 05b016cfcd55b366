#ifndef ZEROTUNE_CORE_TRAINER_H_
#define ZEROTUNE_CORE_TRAINER_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "core/model.h"
#include "workload/dataset.h"

namespace zerotune::core {

/// Supervised-training configuration for the ZeroTune model.
struct TrainOptions {
  size_t epochs = 80;
  size_t batch_size = 16;
  double learning_rate = 1e-3;
  double weight_decay = 1e-5;
  double grad_clip_norm = 5.0;
  /// Early stopping: abort after this many epochs without val improvement
  /// (0 disables). The best-val parameters are restored on finish.
  size_t patience = 15;
  /// Shuffling / batching seed.
  uint64_t seed = 99;
  /// When true (fresh training), target normalization statistics are
  /// (re)fit on the training set. Fine-tuning (few-shot, Exp. 1/Fig. 6)
  /// keeps the original statistics.
  bool fit_target_stats = true;
  /// Optional pool the chunks of each mini-batch run on. The trained
  /// weights are == with no pool and with any thread count.
  zerotune::ThreadPool* pool = nullptr;
  /// Clock behind TrainReport::train_seconds and the trainer.epoch_seconds
  /// histogram. Null = system clock; tests inject a FakeClock to make the
  /// timing metrics deterministic.
  zerotune::Clock* clock = nullptr;
  bool verbose = false;
  /// Divergence recovery: when a batch produces a non-finite loss or
  /// gradient, the trainer rolls back to the best parameters seen so far,
  /// multiplies the learning rate by `lr_backoff`, and retries — at most
  /// this many times before training stops (best parameters kept).
  size_t max_recovery_attempts = 3;
  double lr_backoff = 0.5;
  /// Crash safety: when non-empty, a checkpoint (model weights, optimizer
  /// moments, epoch cursor, RNG/shuffle state, early-stopping bookkeeping)
  /// is written atomically to this path every `checkpoint_every_epochs`
  /// epochs. Format: docs/serving.md ("zerotune-trainer-ckpt-v1").
  std::string checkpoint_path;
  size_t checkpoint_every_epochs = 1;
  /// Resume from `checkpoint_path` if the file exists (missing file starts
  /// fresh, so a crash-restart loop just always passes resume=true). A
  /// resumed run replays the remaining epochs bit-identically to the
  /// uninterrupted run with the same options.
  bool resume = false;

  /// Rejects zero epoch/batch counts, non-positive or non-finite learning
  /// rates, negative decay/clipping, and backoff factors outside (0, 1].
  /// Checked at Trainer construction; Train() fails with this status
  /// instead of silently clamping.
  Status Validate() const;
};

/// Outcome of a training run.
struct TrainReport {
  size_t epochs_run = 0;
  double final_train_loss = 0.0;
  double best_val_loss = 0.0;
  double train_seconds = 0.0;
  std::vector<double> epoch_train_losses;
  /// Batches whose loss or gradient came out non-finite (update skipped).
  size_t nonfinite_batches = 0;
  /// Rollback-and-retry cycles performed (see
  /// TrainOptions::max_recovery_attempts).
  size_t recovery_attempts = 0;
  /// Learning rate in effect when training finished (smaller than
  /// TrainOptions::learning_rate iff recoveries backed it off).
  double final_learning_rate = 0.0;
  /// Number of completed epochs restored from a checkpoint (0 = fresh run).
  size_t resumed_from_epoch = 0;
  /// Checkpoints written during this run.
  size_t checkpoints_written = 0;
};

/// Per-metric q-error evaluation of a model on a dataset.
struct ModelEvaluation {
  QErrorSummary latency;
  QErrorSummary throughput;
};

/// Trains and evaluates ZeroTune models on the fp64 training pass
/// (core/train_batch.h). Graphs are encoded once and cached; each
/// optimization step splits a mini-batch into a fixed number of chunks,
/// runs each chunk's forward and backward as one TrainBatch (in parallel
/// across pool workers), and hands the chunk gradients to nn::Adam::Step,
/// which merges them in chunk order, clips the global norm and applies
/// Adam per parameter on the same pool.
class Trainer {
 public:
  Trainer(ZeroTuneModel* model, TrainOptions options);

  /// Runs supervised training with early stopping on `val` (val may be
  /// empty, disabling early stopping) and restores the weights with the
  /// best validation loss. With a non-empty `val`, the initial weights are
  /// scored before epoch 1 and kept if no epoch beats them. Fails with
  /// InvalidArgument when a training or validation label is NaN or
  /// infinite.
  Result<TrainReport> Train(const workload::Dataset& train,
                            const workload::Dataset& val);

  /// Median/p95/... q-errors of the model's latency and throughput
  /// predictions on a dataset.
  static ModelEvaluation Evaluate(const ZeroTuneModel& model,
                                  const workload::Dataset& test);

  /// Per-sample latency / throughput q-errors (for scatter plots and
  /// category breakdowns).
  static void QErrors(const ZeroTuneModel& model,
                      const workload::Dataset& test,
                      std::vector<double>* latency_qerrors,
                      std::vector<double>* throughput_qerrors);

 private:
  double EpochLoss(const std::vector<PlanGraph>& graphs,
                   const std::vector<nn::Matrix>& targets) const;

  ZeroTuneModel* model_;
  TrainOptions options_;
  Status options_status_;
};

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_TRAINER_H_
