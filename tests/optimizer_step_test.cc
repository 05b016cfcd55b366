// Trainer::Train's optimizer step, nn::Adam::Step, against a serial
// step kept here as the oracle: the chunk gradients merged, scaled and
// clipped by plain loops (support/serial_step.h), finiteness checked
// after the clip, then Adam's update as a scalar loop. Adam::Step merges
// and scales per parameter on the trainer's pool, sums the norm serially
// in the merged store's order, and applies the clip and Adam on the pool
// through kernels::AdamStepF64; trained weights must equal (==) the
// oracle's with no pool and with four threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "core/train_batch.h"
#include "core/trainer.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/optimizer.h"
#include "support/serial_step.h"

namespace zerotune::core {
namespace {

using nn::GradStore;
using nn::Matrix;

/// Adam's update as a scalar loop over its own moments, the update the
/// kernel must reproduce.
class ReferenceAdam {
 public:
  ReferenceAdam(nn::ParameterStore* store, double learning_rate,
                double weight_decay)
      : store_(store), lr_(learning_rate), decay_(weight_decay) {
    for (const nn::NodePtr& p : store->parameters()) {
      m_.emplace_back(p->value.rows(), p->value.cols());
      v_.emplace_back(p->value.rows(), p->value.cols());
    }
  }

  void Reset() {
    for (Matrix& m : m_) m = Matrix(m.rows(), m.cols());
    for (Matrix& v : v_) v = Matrix(v.rows(), v.cols());
    step_count_ = 0;
  }
  void BackOff(double factor) { lr_ *= factor; }

  void Step(const std::map<int, Matrix>& grads) {
    const double beta1 = 0.9, beta2 = 0.999, epsilon = 1e-8;
    ++step_count_;
    const double bc1 = 1.0 - std::pow(beta1, step_count_);
    const double bc2 = 1.0 - std::pow(beta2, step_count_);
    const auto& params = store_->parameters();
    for (size_t i = 0; i < params.size(); ++i) {
      const auto it = grads.find(params[i]->param_id);
      if (it == grads.end()) continue;
      const Matrix* g = &it->second;
      Matrix& value = params[i]->value;
      Matrix& m = m_[i];
      Matrix& v = v_[i];
      for (size_t k = 0; k < value.size(); ++k) {
        const double gk = g->data()[k];
        m.data()[k] = beta1 * m.data()[k] + (1.0 - beta1) * gk;
        v.data()[k] = beta2 * v.data()[k] + (1.0 - beta2) * gk * gk;
        const double mhat = m.data()[k] / bc1;
        const double vhat = v.data()[k] / bc2;
        double update = mhat / (std::sqrt(vhat) + epsilon);
        if (decay_ > 0.0) update += decay_ * value.data()[k];
        value.data()[k] -= lr_ * update;
      }
    }
  }

 private:
  nn::ParameterStore* store_;
  double lr_;
  double decay_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  long step_count_ = 0;
};

struct ReferenceRun {
  std::vector<Matrix> weights;
  size_t steps = 0;
  size_t clipped = 0;  // steps whose pre-clip norm exceeded the bound
  size_t recoveries = 0;
  size_t steps_after_recovery = 0;
};

/// Trainer::Train with no validation set and the model's target stats,
/// mini-batch by mini-batch as the trainer splits and orders them, with
/// the oracle step. A non-finite batch rolls back as the trainer does:
/// best weights restored, learning rate backed off, moments reset.
ReferenceRun ReferenceTrain(ZeroTuneModel* model,
                            const workload::Dataset& train,
                            const TrainOptions& opts) {
  std::vector<PlanGraph> graphs;
  std::vector<Matrix> targets;
  for (const auto& q : train.samples()) {
    graphs.push_back(BuildPlanGraph(q.plan, model->config().features));
    targets.push_back(model->EncodeTarget(q.latency_ms, q.throughput_tps));
  }
  ReferenceAdam adam(model->mutable_params(), opts.learning_rate,
                     opts.weight_decay);
  Rng rng(opts.seed);
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  ReferenceRun run;
  double best = std::numeric_limits<double>::infinity();
  std::vector<Matrix> best_weights = model->params().Snapshot();
  for (size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&order);
    double loss_sum = 0.0;
    size_t count = 0;
    for (size_t start = 0; start < order.size(); start += opts.batch_size) {
      const size_t end = std::min(order.size(), start + opts.batch_size);
      const size_t batch = end - start;
      const size_t chunks = std::min<size_t>(batch, 4);
      const size_t chunk_size = (batch + chunks - 1) / chunks;
      const nn::TransposedWeights weights_t(model->params());
      std::vector<GradStore> locals(chunks);
      std::vector<double> chunk_losses(chunks, 0.0);
      for (size_t c = 0; c < chunks; ++c) {
        const size_t lo = start + c * chunk_size;
        const size_t hi = std::min(end, lo + chunk_size);
        if (lo >= hi) continue;
        std::vector<const PlanGraph*> chunk;
        for (size_t k = lo; k < hi; ++k) chunk.push_back(&graphs[order[k]]);
        TrainBatch pass(*model, chunk);
        Matrix d_outputs(hi - lo, 2);
        for (size_t k = lo; k < hi; ++k) {
          // nn::MseRow over the row's two outputs, and its gradient.
          const double n = 2.0;
          double loss = 0.0;
          for (size_t j = 0; j < 2; ++j) {
            const double d =
                pass.outputs()(k - lo, j) - targets[order[k]].data()[j];
            loss += d * d;
            d_outputs(k - lo, j) = 2.0 / n * d;
          }
          chunk_losses[c] += loss / n;
        }
        pass.Backward(d_outputs, weights_t, &locals[c]);
      }
      double batch_loss = 0.0;
      for (size_t c = 0; c < chunks; ++c) batch_loss += chunk_losses[c];
      const nn::oracle::SerialGradient step = nn::oracle::SerialGradients(
          locals, 1.0 / static_cast<double>(batch), opts.grad_clip_norm);
      if (opts.grad_clip_norm > 0.0 && step.norm > opts.grad_clip_norm) {
        ++run.clipped;
      }
      if (!std::isfinite(batch_loss) || !step.all_finite) {
        if (run.recoveries == opts.max_recovery_attempts) {
          ADD_FAILURE() << "recovery budget exhausted";
          break;
        }
        EXPECT_TRUE(model->mutable_params()->Restore(best_weights).ok());
        adam.BackOff(opts.lr_backoff);
        adam.Reset();
        ++run.recoveries;
        continue;
      }
      adam.Step(step.grads);
      ++run.steps;
      if (run.recoveries > 0) ++run.steps_after_recovery;
      loss_sum += batch_loss;
      count += batch;
    }
    const double train_loss =
        loss_sum / static_cast<double>(std::max<size_t>(1, count));
    if (train_loss < best - 1e-6) {
      best = train_loss;
      best_weights = model->params().Snapshot();
    }
  }
  EXPECT_TRUE(model->mutable_params()->Restore(std::move(best_weights)).ok());
  run.weights = model->params().Snapshot();
  return run;
}

/// The statistics Train fits on a training set, so both runs start from
/// the same normalization without refitting.
TargetStats StatsOf(const workload::Dataset& train) {
  std::vector<double> lat, tpt;
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

/// 90 plans: mini-batches of 16 end in one of 10, whose chunks are
/// 3, 3, 3 and 1 plans.
const workload::Dataset& Corpus() {
  static const workload::Dataset corpus = [] {
    OptiSampleEnumerator enumerator;
    DatasetBuilderOptions opts;
    opts.count = 90;
    opts.seed = 23;
    return BuildDataset(enumerator, opts).value();
  }();
  return corpus;
}

void ExpectSameWeights(const std::vector<Matrix>& got,
                       const std::vector<Matrix>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t p = 0; p < got.size(); ++p) {
    ASSERT_TRUE(got[p].SameShape(want[p]));
    for (size_t k = 0; k < got[p].size(); ++k) {
      ASSERT_EQ(got[p].data()[k], want[p].data()[k])
          << "parameter " << p << ", entry " << k;
    }
  }
}

/// Trains fresh models with the oracle and with Trainer::Train, with no
/// pool and on four threads, and requires every weight to be ==. Returns
/// the oracle's run.
ReferenceRun ExpectTrainerMatchesOracle(const TrainOptions& base) {
  const workload::Dataset& train = Corpus();
  ModelConfig cfg;
  cfg.hidden_dim = 24;
  cfg.seed = 4;
  ZeroTuneModel oracle_model(cfg);
  oracle_model.set_target_stats(StatsOf(train));
  const ReferenceRun want = ReferenceTrain(&oracle_model, train, base);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    SCOPED_TRACE(pool == nullptr ? "no pool" : "4-thread pool");
    ZeroTuneModel model(cfg);
    model.set_target_stats(StatsOf(train));
    TrainOptions opts = base;
    opts.pool = pool;
    const auto report =
        Trainer(&model, opts).Train(train, workload::Dataset());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) continue;
    EXPECT_EQ(report.value().recovery_attempts, want.recoveries);
    ExpectSameWeights(model.params().Snapshot(), want.weights);
  }
  return want;
}

TrainOptions OracleOptions() {
  TrainOptions opts;
  opts.epochs = 3;
  opts.patience = 0;
  opts.fit_target_stats = false;
  return opts;
}

TEST(OptimizerStepTest, TrainedWeightsEqualSerialStepWhenClipping) {
  const ReferenceRun run = ExpectTrainerMatchesOracle(OracleOptions());
  EXPECT_EQ(run.steps, 18u);
  // The norm's summation order reaches the weights only through the clip
  // factor, so this case needs clipping to fire.
  EXPECT_GT(run.clipped, run.steps / 2);
}

TEST(OptimizerStepTest, TrainedWeightsEqualSerialStepAfterRollbacks) {
  // A learning rate this large overflows the forward pass within a few
  // steps; each rollback restores weights the backward pass then reads
  // transposed, so training on after it checks that copy is current.
  TrainOptions opts = OracleOptions();
  opts.learning_rate = 1e6;
  opts.max_recovery_attempts = 100;
  const ReferenceRun run = ExpectTrainerMatchesOracle(opts);
  EXPECT_GT(run.recoveries, 0u);
  EXPECT_GT(run.steps_after_recovery, 0u);
}

/// FNV-1a over the bits of every parameter value, in creation order.
uint64_t WeightDigest(const nn::ParameterStore& params) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const nn::NodePtr& p : params.parameters()) {
    for (size_t k = 0; k < p->value.size(); ++k) {
      uint64_t bits = 0;
      std::memcpy(&bits, p->value.data() + k, sizeof bits);
      for (int b = 0; b < 8; ++b) {
        h = (h ^ ((bits >> (8 * b)) & 0xffU)) * 0x100000001b3ULL;
      }
    }
  }
  return h;
}

TEST(OptimizerStepTest, TrainedWeightsMatchGoldenDigest) {
  // The weights TrainedWeightsEqualSerialStepWhenClipping trains, pinned
  // independently of the oracle: a change to the step's arithmetic or to
  // the order it sums the norm in moves this digest, whatever the oracle
  // does. The run needs no pool, a 4-thread pool and the scalar kernels
  // to agree. The corpus and target statistics come from this libm, so
  // another C library may train other weights.
  constexpr uint64_t kGolden = 0xe13ca397a215d6efULL;
  const workload::Dataset& train = Corpus();
  ModelConfig cfg;
  cfg.hidden_dim = 24;
  cfg.seed = 4;
  ThreadPool four(4);
  struct Run {
    const char* name;
    ThreadPool* pool;
    bool scalar;
  };
  for (const Run& run : {Run{"no pool", nullptr, false},
                         Run{"4-thread pool", &four, false},
                         Run{"scalar kernels", nullptr, true}}) {
    SCOPED_TRACE(run.name);
    nn::kernels::ForceScalar(run.scalar);
    ZeroTuneModel model(cfg);
    model.set_target_stats(StatsOf(train));
    TrainOptions opts = OracleOptions();
    opts.pool = run.pool;
    const auto report =
        Trainer(&model, opts).Train(train, workload::Dataset());
    nn::kernels::ForceScalar(false);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(WeightDigest(model.params()), kGolden)
        << std::hex << "0x" << WeightDigest(model.params());
  }
}

TEST(OptimizerStepTest, TrainedWeightsEqualSerialStepWithoutClipping) {
  TrainOptions opts = OracleOptions();
  opts.grad_clip_norm = 0.0;
  const ReferenceRun run = ExpectTrainerMatchesOracle(opts);
  EXPECT_EQ(run.steps, 18u);
  EXPECT_EQ(run.clipped, 0u);
}

/// The shape RaggedParts gives parameter `id`.
Matrix RaggedShape(size_t id) { return Matrix(1 + id % 3, 1 + (id * 7) % 11); }

/// Gradient stores whose entries differ in shape, sign and magnitude,
/// with some parameters missing from some parts (as a chunk whose plans
/// never reach a block has no gradient for it).
std::vector<GradStore> RaggedParts(size_t parts, size_t params,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<GradStore> out(parts);
  for (size_t p = 0; p < parts; ++p) {
    for (size_t id = 0; id < params; ++id) {
      if ((id + p) % 5 == 0) continue;
      Matrix g = RaggedShape(id);
      const double magnitude = std::pow(10.0, rng.Uniform(-6.0, 6.0));
      for (size_t i = 0; i < g.size(); ++i) {
        g.data()[i] = magnitude * rng.Gaussian(0.0, 1.0);
      }
      out[p].Accumulate(static_cast<int>(id), std::move(g));
    }
  }
  return out;
}

/// Two stores of `params` parameters shaped as RaggedParts' entries,
/// with equal initial values.
void RaggedStores(size_t params, nn::ParameterStore* a,
                  nn::ParameterStore* b) {
  Rng rng_a(41), rng_b(41);
  for (size_t id = 0; id < params; ++id) {
    const Matrix shape = RaggedShape(id);
    a->CreateParameter(shape.rows(), shape.cols(), &rng_a);
    b->CreateParameter(shape.rows(), shape.cols(), &rng_b);
  }
}

TEST(OptimizerStepTest, MergeAndScaleEqualsMergeThenScale) {
  // Adam::Step's merge-and-scale stage and norm against the serial ones.
  // The magnitudes span twelve decades, so a norm summed in another order
  // would round differently; the clip fires, so the norm reaches every
  // weight through the clip factor.
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    SCOPED_TRACE(pool == nullptr ? "no pool" : "4-thread pool");
    const std::vector<GradStore> parts = RaggedParts(4, 40, 31);
    const nn::oracle::SerialGradient want =
        nn::oracle::SerialGradients(parts, 1.0 / 16.0, 1.0);
    ASSERT_TRUE(want.all_finite);
    ASSERT_GT(want.norm, 1.0);
    nn::ParameterStore got_store, want_store;
    RaggedStores(40, &got_store, &want_store);
    nn::Adam adam(&got_store);
    const nn::Adam::StepResult got = adam.Step(parts, 1.0 / 16.0, 1.0, pool);
    EXPECT_TRUE(got.applied);
    EXPECT_EQ(got.grad_norm, want.norm);
    ReferenceAdam reference(&want_store, nn::Adam::Options().learning_rate,
                            0.0);
    reference.Step(want.grads);
    ExpectSameWeights(got_store.Snapshot(), want_store.Snapshot());
  }
}

TEST(OptimizerStepTest, MergeAndScaleReportsWhatAllFiniteWouldAfterClip) {
  // A NaN or an infinity makes the batch non-finite before and after the
  // clip, and Adam::Step then writes no weight, moment or step count;
  // finite entries whose squared norm overflows stay finite (the clip
  // factor is then 0, which zeroes them) and the step applies.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf, 1e200}) {
    SCOPED_TRACE(std::to_string(bad));
    std::vector<GradStore> parts = RaggedParts(3, 8, 37);
    GradStore extra;
    Matrix g = RaggedShape(2);
    g(0, 1) = bad;
    extra.Accumulate(2, std::move(g));
    parts.push_back(std::move(extra));
    const nn::oracle::SerialGradient want =
        nn::oracle::SerialGradients(parts, 0.25, 5.0);
    nn::ParameterStore got_store, want_store;
    RaggedStores(8, &got_store, &want_store);
    nn::Adam adam(&got_store);
    std::stringstream state_before, state_after;
    ASSERT_TRUE(adam.SaveState(state_before).ok());
    const nn::Adam::StepResult got = adam.Step(parts, 0.25, 5.0);
    ASSERT_TRUE(adam.SaveState(state_after).ok());
    EXPECT_EQ(got.applied, want.all_finite);
    EXPECT_EQ(got.applied, bad == 1e200);
    if (!std::isnan(want.norm)) {
      EXPECT_EQ(got.grad_norm, want.norm);
    }
    if (want.all_finite) {
      ReferenceAdam(&want_store, nn::Adam::Options().learning_rate, 0.0)
          .Step(want.grads);
    } else {
      EXPECT_EQ(state_after.str(), state_before.str());
    }
    ExpectSameWeights(got_store.Snapshot(), want_store.Snapshot());
  }
}

}  // namespace
}  // namespace zerotune::core
