#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>

#include "common/clock.h"

#include "common/file_util.h"
#include "common/logging.h"
#include "core/train_batch.h"
#include "nn/mlp_pass.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zerotune::core {

namespace {

using workload::Dataset;

TargetStats FitTargetStats(const Dataset& train) {
  std::vector<double> lat, tpt;
  lat.reserve(train.size());
  tpt.reserve(train.size());
  for (const auto& q : train.samples()) {
    lat.push_back(std::log1p(std::max(q.latency_ms, 0.0)));
    tpt.push_back(std::log1p(std::max(q.throughput_tps, 0.0)));
  }
  TargetStats s;
  s.latency_mean = Mean(lat);
  s.latency_std = std::max(StdDev(lat), 1e-3);
  s.throughput_mean = Mean(tpt);
  s.throughput_std = std::max(StdDev(tpt), 1e-3);
  return s;
}

// Every mini-batch splits into this many chunks, one TrainBatch each,
// whatever the pool: the chunking decides the gradient's summation order,
// so it must not follow the machine's thread count. The pool only decides
// which thread runs which chunk. Four keeps a 4-core pool busy; a pool
// with more threads leaves the rest idle during a mini-batch, the price
// of weights that do not depend on the machine.
constexpr size_t kChunksPerBatch = 4;

constexpr char kCheckpointMagic[] = "zerotune-trainer-ckpt-v1";

/// Everything besides the live model/optimizer/rng that a resumed run must
/// restore to replay the remaining epochs bit-identically.
struct CheckpointState {
  size_t epochs_done = 0;
  double learning_rate = 0.0;
  double best_val = std::numeric_limits<double>::infinity();
  size_t since_best = 0;
  size_t nonfinite_batches = 0;
  size_t recovery_attempts = 0;
  TargetStats stats;
  std::vector<double> losses;
  std::vector<size_t> order;
  std::vector<nn::Matrix> best_params;
};

Status ExpectTag(std::istream& is, const char* want) {
  std::string tag;
  if (!(is >> tag) || tag != want) {
    return Status::IOError("trainer checkpoint: expected '" +
                           std::string(want) + "', got '" + tag + "'");
  }
  return Status::OK();
}

Status WriteMatrixList(std::ostream& os, const std::vector<nn::Matrix>& mats) {
  os << mats.size() << "\n";
  for (const auto& m : mats) {
    os << m.rows() << " " << m.cols();
    for (size_t k = 0; k < m.size(); ++k) os << " " << m.data()[k];
    os << "\n";
  }
  if (!os.good()) return Status::IOError("failed writing parameter snapshot");
  return Status::OK();
}

Status ReadMatrixList(std::istream& is, const nn::ParameterStore& like,
                      std::vector<nn::Matrix>* out) {
  size_t count = 0;
  if (!(is >> count) || count != like.parameters().size()) {
    return Status::IOError(
        "trainer checkpoint: parameter snapshot count mismatch");
  }
  out->clear();
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t rows = 0, cols = 0;
    if (!(is >> rows >> cols) ||
        rows != like.parameters()[i]->value.rows() ||
        cols != like.parameters()[i]->value.cols()) {
      return Status::IOError(
          "trainer checkpoint: parameter snapshot shape mismatch at " +
          std::to_string(i));
    }
    nn::Matrix m(rows, cols);
    for (size_t k = 0; k < m.size(); ++k) {
      if (!(is >> m.data()[k])) {
        return Status::IOError(
            "trainer checkpoint: truncated parameter snapshot at " +
            std::to_string(i));
      }
    }
    out->push_back(std::move(m));
  }
  return Status::OK();
}

/// Restores a checkpoint written by Trainer::Train. Mutates `model`,
/// `adam`, and `rng` in place; on error the run must be treated as failed
/// (a partially-restored optimizer is not usable).
Status LoadTrainerCheckpoint(std::istream& is, size_t expect_train_size,
                             ZeroTuneModel* model, nn::Adam* adam,
                             zerotune::Rng* rng, CheckpointState* out) {
  std::string magic;
  if (!(is >> magic) || magic != kCheckpointMagic) {
    return Status::IOError("trainer checkpoint: bad magic (want '" +
                           std::string(kCheckpointMagic) + "')");
  }
  ZT_RETURN_IF_ERROR(ExpectTag(is, "epochs_done"));
  if (!(is >> out->epochs_done)) {
    return Status::IOError("trainer checkpoint: missing epoch cursor");
  }
  ZT_RETURN_IF_ERROR(ExpectTag(is, "train_size"));
  size_t train_size = 0;
  if (!(is >> train_size) || train_size != expect_train_size) {
    return Status::IOError(
        "trainer checkpoint: train_size " + std::to_string(train_size) +
        " does not match the dataset (" + std::to_string(expect_train_size) +
        "); refusing to resume against different data");
  }
  ZT_RETURN_IF_ERROR(ExpectTag(is, "lr"));
  if (!(is >> out->learning_rate)) {
    return Status::IOError("trainer checkpoint: missing learning rate");
  }
  // best_val may be +infinity (no validation yet); "inf" does not
  // round-trip through operator>>, so a finite flag precedes the value.
  ZT_RETURN_IF_ERROR(ExpectTag(is, "best_val"));
  int finite = 0;
  double best_val_value = 0.0;
  if (!(is >> finite >> best_val_value)) {
    return Status::IOError("trainer checkpoint: missing best_val");
  }
  out->best_val = finite != 0 ? best_val_value
                              : std::numeric_limits<double>::infinity();
  ZT_RETURN_IF_ERROR(ExpectTag(is, "since_best"));
  if (!(is >> out->since_best)) {
    return Status::IOError("trainer checkpoint: missing since_best");
  }
  ZT_RETURN_IF_ERROR(ExpectTag(is, "nonfinite"));
  if (!(is >> out->nonfinite_batches)) {
    return Status::IOError("trainer checkpoint: missing nonfinite count");
  }
  ZT_RETURN_IF_ERROR(ExpectTag(is, "recovery"));
  if (!(is >> out->recovery_attempts)) {
    return Status::IOError("trainer checkpoint: missing recovery count");
  }
  ZT_RETURN_IF_ERROR(ExpectTag(is, "target_stats"));
  if (!(is >> out->stats.latency_mean >> out->stats.latency_std >>
        out->stats.throughput_mean >> out->stats.throughput_std)) {
    return Status::IOError("trainer checkpoint: missing target stats");
  }
  ZT_RETURN_IF_ERROR(ExpectTag(is, "losses"));
  size_t loss_count = 0;
  if (!(is >> loss_count) || loss_count > out->epochs_done) {
    return Status::IOError("trainer checkpoint: bad loss history");
  }
  out->losses.resize(loss_count);
  for (double& l : out->losses) {
    if (!(is >> l)) {
      return Status::IOError("trainer checkpoint: truncated loss history");
    }
  }
  ZT_RETURN_IF_ERROR(ExpectTag(is, "order"));
  size_t order_count = 0;
  if (!(is >> order_count) || order_count != expect_train_size) {
    return Status::IOError("trainer checkpoint: bad shuffle order length");
  }
  out->order.resize(order_count);
  for (size_t& idx : out->order) {
    if (!(is >> idx) || idx >= expect_train_size) {
      return Status::IOError("trainer checkpoint: bad shuffle order entry");
    }
  }
  ZT_RETURN_IF_ERROR(ExpectTag(is, "rng"));
  if (!(is >> rng->engine())) {
    return Status::IOError("trainer checkpoint: bad RNG state");
  }
  ZT_RETURN_IF_ERROR(ExpectTag(is, "adam"));
  ZT_RETURN_IF_ERROR(adam->LoadState(is));
  ZT_RETURN_IF_ERROR(ExpectTag(is, "params"));
  ZT_RETURN_IF_ERROR(model->mutable_params()->LoadFromStream(is));
  ZT_RETURN_IF_ERROR(ExpectTag(is, "best_params"));
  ZT_RETURN_IF_ERROR(ReadMatrixList(is, model->params(), &out->best_params));
  return Status::OK();
}

}  // namespace

Status TrainOptions::Validate() const {
  if (epochs == 0) {
    return Status::InvalidArgument("epochs must be >= 1");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (!std::isfinite(learning_rate) || learning_rate <= 0.0) {
    return Status::InvalidArgument(
        "learning_rate must be positive and finite, got " +
        std::to_string(learning_rate));
  }
  if (!std::isfinite(weight_decay) || weight_decay < 0.0) {
    return Status::InvalidArgument(
        "weight_decay must be non-negative and finite, got " +
        std::to_string(weight_decay));
  }
  if (!std::isfinite(grad_clip_norm) || grad_clip_norm < 0.0) {
    return Status::InvalidArgument(
        "grad_clip_norm must be non-negative and finite (0 disables "
        "clipping), got " + std::to_string(grad_clip_norm));
  }
  if (!std::isfinite(lr_backoff) || lr_backoff <= 0.0 || lr_backoff > 1.0) {
    return Status::InvalidArgument(
        "lr_backoff must lie in (0, 1], got " + std::to_string(lr_backoff));
  }
  if (checkpoint_every_epochs == 0) {
    return Status::InvalidArgument("checkpoint_every_epochs must be >= 1");
  }
  if (resume && checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "resume=true requires a checkpoint_path to resume from");
  }
  return Status::OK();
}

Trainer::Trainer(ZeroTuneModel* model, TrainOptions options)
    : model_(model), options_(options), options_status_(options.Validate()) {}

double Trainer::EpochLoss(const std::vector<PlanGraph>& graphs,
                          const std::vector<nn::Matrix>& targets) const {
  if (graphs.empty()) return 0.0;
  std::vector<double> losses(graphs.size(), 0.0);
  const size_t chunks = (graphs.size() + kEvalChunk - 1) / kEvalChunk;
  ParallelFor(options_.pool, chunks, [&](size_t c) {
    const size_t lo = c * kEvalChunk;
    const size_t hi = std::min(graphs.size(), lo + kEvalChunk);
    std::vector<const PlanGraph*> chunk;
    for (size_t k = lo; k < hi; ++k) chunk.push_back(&graphs[k]);
    const TrainBatch pass(*model_, chunk);
    for (size_t k = lo; k < hi; ++k) {
      losses[k] = nn::MseRow(pass.outputs(), k - lo, targets[k], nullptr);
    }
  });
  return Mean(losses);
}

Result<TrainReport> Trainer::Train(const Dataset& train, const Dataset& val) {
  ZT_RETURN_IF_ERROR(options_status_);
  ZT_RETURN_IF_ERROR(workload::CheckTrainingSet(train));
  ZT_RETURN_IF_ERROR(workload::CheckLabels(val, "validation"));
  Clock* clock =
      options_.clock != nullptr ? options_.clock : SystemClock::Default();
  const int64_t t_start = clock->NowNanos();
  obs::Span train_span("trainer/train");
  train_span.AddArg("train_size", std::to_string(train.size()));
  auto* metrics = obs::MetricsRegistry::Global();
  obs::Counter* epochs_total = metrics->GetCounter("trainer.epochs_total");
  obs::Counter* nonfinite_total =
      metrics->GetCounter("trainer.nonfinite_batches_total");
  obs::Counter* checkpoints_total =
      metrics->GetCounter("trainer.checkpoints_total");
  obs::Gauge* train_loss_gauge = metrics->GetGauge("trainer.train_loss");
  obs::Gauge* val_loss_gauge = metrics->GetGauge("trainer.val_loss");
  obs::Gauge* grad_norm_gauge = metrics->GetGauge("trainer.grad_norm");
  obs::HistogramMetric* epoch_seconds =
      metrics->GetHistogram("trainer.epoch_seconds", {}, 1e-4, 1e5);

  nn::Adam::Options adam_opts;
  adam_opts.learning_rate = options_.learning_rate;
  adam_opts.weight_decay = options_.weight_decay;
  nn::Adam adam(model_->mutable_params(), adam_opts);

  zerotune::Rng rng(options_.seed);
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  TrainReport report;
  double best_val = std::numeric_limits<double>::infinity();
  std::vector<nn::Matrix> best_params;
  size_t since_best = 0;
  size_t start_epoch = 0;
  bool resumed = false;

  if (options_.resume && std::filesystem::exists(options_.checkpoint_path)) {
    std::ifstream is(options_.checkpoint_path);
    if (!is) {
      return Status::IOError("cannot open checkpoint " +
                             options_.checkpoint_path);
    }
    CheckpointState ckpt;
    ZT_RETURN_IF_ERROR(LoadTrainerCheckpoint(is, train.size(), model_, &adam,
                                             &rng, &ckpt)
                           .Annotated("resuming from " +
                                      options_.checkpoint_path));
    model_->set_target_stats(ckpt.stats);
    adam.options().learning_rate = ckpt.learning_rate;
    best_val = ckpt.best_val;
    best_params = std::move(ckpt.best_params);
    since_best = ckpt.since_best;
    order = std::move(ckpt.order);
    start_epoch = ckpt.epochs_done;
    report.resumed_from_epoch = ckpt.epochs_done;
    report.epochs_run = ckpt.epochs_done;
    report.epoch_train_losses = std::move(ckpt.losses);
    report.nonfinite_batches = ckpt.nonfinite_batches;
    report.recovery_attempts = ckpt.recovery_attempts;
    resumed = true;
    if (options_.verbose) {
      Log::Info("resumed from ", options_.checkpoint_path, " at epoch ",
                start_epoch, "/", options_.epochs);
    }
  } else if (options_.fit_target_stats) {
    model_->set_target_stats(FitTargetStats(train));
  }

  // Encode graphs and targets once.
  const FeatureConfig& fc = model_->config().features;
  std::vector<PlanGraph> graphs;
  std::vector<nn::Matrix> targets;
  graphs.reserve(train.size());
  targets.reserve(train.size());
  for (const auto& q : train.samples()) {
    graphs.push_back(BuildPlanGraph(q.plan, fc));
    targets.push_back(model_->EncodeTarget(q.latency_ms, q.throughput_tps));
  }
  std::vector<PlanGraph> val_graphs;
  std::vector<nn::Matrix> val_targets;
  for (const auto& q : val.samples()) {
    val_graphs.push_back(BuildPlanGraph(q.plan, fc));
    val_targets.push_back(model_->EncodeTarget(q.latency_ms, q.throughput_tps));
  }

  if (!resumed) {
    best_params = model_->params().Snapshot();
    // With a validation set the start competes too, so a run in which no
    // epoch beats the initial weights (every epoch diverged, say) keeps
    // them. Without one there is nothing to score the start on.
    if (!val_graphs.empty()) {
      const double start_val = EpochLoss(val_graphs, val_targets);
      if (std::isfinite(start_val)) best_val = start_val;
    }
  }

  // Checkpoint = everything the epoch loop mutates, written atomically so
  // a crash mid-write leaves the previous checkpoint intact. `epochs_done`
  // epochs are complete; a resumed run re-enters the loop there with
  // identical shuffle, optimizer, and early-stopping state, so it replays
  // the remaining epochs bit-identically.
  auto write_checkpoint = [&](size_t epochs_done) -> Status {
    return AtomicWriteStream(
        options_.checkpoint_path, [&](std::ostream& os) -> Status {
          os.precision(17);
          os << kCheckpointMagic << "\n";
          os << "epochs_done " << epochs_done << "\n";
          os << "train_size " << train.size() << "\n";
          os << "lr " << adam.options().learning_rate << "\n";
          const bool finite = std::isfinite(best_val);
          os << "best_val " << (finite ? 1 : 0) << " "
             << (finite ? best_val : 0.0) << "\n";
          os << "since_best " << since_best << "\n";
          os << "nonfinite " << report.nonfinite_batches << "\n";
          os << "recovery " << report.recovery_attempts << "\n";
          const TargetStats& ts = model_->target_stats();
          os << "target_stats " << ts.latency_mean << " " << ts.latency_std
             << " " << ts.throughput_mean << " " << ts.throughput_std << "\n";
          os << "losses " << report.epoch_train_losses.size();
          for (const double l : report.epoch_train_losses) os << " " << l;
          os << "\norder " << order.size();
          for (const size_t idx : order) os << " " << idx;
          os << "\nrng " << rng.engine() << "\n";
          os << "adam\n";
          ZT_RETURN_IF_ERROR(adam.SaveState(os));
          os << "params\n";
          ZT_RETURN_IF_ERROR(model_->params().SaveToStream(os));
          os << "best_params ";
          return WriteMatrixList(os, best_params);
        });
  };

  // The chunks' backward passes read the weights transposed: one copy for
  // the run, each weight refreshed as Adam writes it.
  nn::TransposedWeights weights_t(model_->params());

  // Divergence recovery: roll the model back to the best parameters seen,
  // back the learning rate off, and reset Adam's moments. Returns false
  // once the attempt budget is exhausted.
  auto recover = [&]() -> Result<bool> {
    if (report.recovery_attempts >= options_.max_recovery_attempts) {
      // Budget exhausted: give up (the caller stops training; the final
      // Restore below still rolls back to the best snapshot).
      return false;
    }
    ZT_RETURN_IF_ERROR(model_->mutable_params()->Restore(best_params));
    weights_t = nn::TransposedWeights(model_->params());
    adam.options().learning_rate *= options_.lr_backoff;
    adam.Reset();
    ++report.recovery_attempts;
    if (options_.verbose) {
      Log::Info("non-finite loss/gradient: rolled back, lr now ",
                adam.options().learning_rate, " (attempt ",
                report.recovery_attempts, "/",
                options_.max_recovery_attempts, ")");
    }
    return true;
  };

  // The restored checkpoint may already satisfy early stopping (the
  // uninterrupted run stopped at exactly that epoch); running further
  // would diverge from it.
  bool stop_training = options_.patience > 0 && !val_graphs.empty() &&
                       since_best >= options_.patience;
  for (size_t epoch = start_epoch; epoch < options_.epochs && !stop_training;
       ++epoch) {
    obs::Span epoch_span("trainer/epoch");
    epoch_span.AddArg("epoch", std::to_string(epoch + 1));
    const int64_t t_epoch = clock->NowNanos();
    rng.Shuffle(&order);
    double epoch_loss_sum = 0.0;
    size_t epoch_count = 0;

    for (size_t start = 0; start < order.size();
         start += options_.batch_size) {
      const size_t end =
          std::min(order.size(), start + options_.batch_size);
      const size_t batch = end - start;

      // Data-parallel gradient accumulation: each chunk runs one
      // TrainBatch into its own GradStore; Adam::Step merges them in
      // chunk order after all finish, so the result is bit-identical
      // whatever the pool and its scheduling.
      double batch_loss = 0.0;
      const size_t chunks = std::min(batch, kChunksPerBatch);
      const size_t chunk_size = (batch + chunks - 1) / chunks;
      std::vector<nn::GradStore> locals(chunks);
      std::vector<double> local_losses(chunks, 0.0);
      ParallelFor(options_.pool, chunks, [&](size_t c) {
        const size_t lo = start + c * chunk_size;
        const size_t hi = std::min(end, lo + chunk_size);
        if (lo >= hi) return;
        std::vector<const PlanGraph*> chunk;
        for (size_t k = lo; k < hi; ++k) chunk.push_back(&graphs[order[k]]);
        TrainBatch pass(*model_, chunk);
        nn::Matrix d_outputs(hi - lo, 2);
        for (size_t k = lo; k < hi; ++k) {
          local_losses[c] += nn::MseRow(pass.outputs(), k - lo,
                                        targets[order[k]], &d_outputs);
        }
        pass.Backward(d_outputs, weights_t, &locals[c]);
      });
      for (size_t c = 0; c < chunks; ++c) batch_loss += local_losses[c];

      // A non-finite loss skips the step before it runs; Adam::Step
      // itself skips a batch whose merged gradient is non-finite.
      bool applied = false;
      if (std::isfinite(batch_loss)) {
        const nn::Adam::StepResult step =
            adam.Step(std::move(locals), 1.0 / static_cast<double>(batch),
                      options_.grad_clip_norm, options_.pool, &weights_t);
        grad_norm_gauge->Set(step.grad_norm);
        applied = step.applied;
      }
      if (!applied) {
        ++report.nonfinite_batches;
        nonfinite_total->Increment();
        ZT_ASSIGN_OR_RETURN(const bool recovered, recover());
        if (!recovered) {
          stop_training = true;
          break;
        }
        continue;  // skip the poisoned update, keep the epoch going
      }
      epoch_loss_sum += batch_loss;
      epoch_count += batch;
    }
    if (stop_training) break;

    const double train_loss =
        epoch_loss_sum / static_cast<double>(std::max<size_t>(1, epoch_count));
    report.epoch_train_losses.push_back(train_loss);
    report.epochs_run = epoch + 1;
    epochs_total->Increment();
    train_loss_gauge->Set(train_loss);

    double val_loss = train_loss;
    if (!val_graphs.empty()) {
      val_loss = EpochLoss(val_graphs, val_targets);
    }
    val_loss_gauge->Set(val_loss);
    epoch_seconds->Record(static_cast<double>(clock->NowNanos() - t_epoch) *
                          1e-9);
    epoch_span.AddArg("train_loss", std::to_string(train_loss));
    if (options_.verbose) {
      Log::Info("epoch ", epoch + 1, "/", options_.epochs, " train_loss=",
                train_loss, " val_loss=", val_loss);
    }
    if (val_loss < best_val - 1e-6) {
      best_val = val_loss;
      best_params = model_->params().Snapshot();
      since_best = 0;
    } else {
      ++since_best;
    }
    const bool early_stop = options_.patience > 0 && !val_graphs.empty() &&
                            since_best >= options_.patience;
    if (!options_.checkpoint_path.empty() &&
        (epoch + 1) % options_.checkpoint_every_epochs == 0) {
      // A failed checkpoint write fails the run: silently training on with
      // crash safety gone would defeat the point. The previous checkpoint
      // (if any) is still intact, so the run remains resumable.
      obs::Span ckpt_span("trainer/checkpoint_write");
      ZT_RETURN_IF_ERROR(
          write_checkpoint(epoch + 1)
              .Annotated("writing trainer checkpoint to " +
                         options_.checkpoint_path));
      ++report.checkpoints_written;
      checkpoints_total->Increment();
    }
    if (early_stop) break;
  }

  ZT_RETURN_IF_ERROR(
      model_->mutable_params()->Restore(std::move(best_params)));
  report.final_learning_rate = adam.options().learning_rate;
  report.best_val_loss = best_val;
  report.final_train_loss = report.epoch_train_losses.empty()
                                ? 0.0
                                : report.epoch_train_losses.back();
  report.train_seconds =
      static_cast<double>(clock->NowNanos() - t_start) * 1e-9;
  return report;
}

void Trainer::QErrors(const ZeroTuneModel& model, const Dataset& test,
                      std::vector<double>* latency_qerrors,
                      std::vector<double>* throughput_qerrors) {
  latency_qerrors->clear();
  throughput_qerrors->clear();
  const std::vector<workload::LabeledQuery>& samples = test.samples();
  // The fp64 training pass, kEvalChunk plans at a time: batching the whole
  // test set would hold every featurized graph at once.
  std::vector<PlanGraph> graphs;
  std::vector<const PlanGraph*> chunk;
  for (size_t lo = 0; lo < samples.size(); lo += kEvalChunk) {
    const size_t hi = std::min(samples.size(), lo + kEvalChunk);
    graphs.clear();
    for (size_t k = lo; k < hi; ++k) {
      graphs.push_back(
          BuildPlanGraph(samples[k].plan, model.config().features));
    }
    chunk.clear();
    for (const PlanGraph& g : graphs) chunk.push_back(&g);
    const TrainBatch pass(model, chunk);
    for (size_t k = lo; k < hi; ++k) {
      const CostPrediction p = model.DecodeOutput(
          nn::Matrix::RowVector(pass.outputs().data() + (k - lo) * 2, 2));
      latency_qerrors->push_back(QError(samples[k].latency_ms, p.latency_ms));
      throughput_qerrors->push_back(
          QError(samples[k].throughput_tps, p.throughput_tps));
    }
  }
}

ModelEvaluation Trainer::Evaluate(const ZeroTuneModel& model,
                                  const Dataset& test) {
  std::vector<double> lat, tpt;
  QErrors(model, test, &lat, &tpt);
  ModelEvaluation e;
  e.latency = SummarizeQErrors(lat);
  e.throughput = SummarizeQErrors(tpt);
  return e;
}

}  // namespace zerotune::core
