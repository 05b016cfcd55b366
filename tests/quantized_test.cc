// fp32 inference parity: QuantizedMlp against the fp64 pass (nn::MlpPass)
// of the Mlp it was converted from, and the batched GNN engine (which
// runs on QuantizedMlp snapshots) against the fp64 training pass
// (TrainBatch) on a real trained model. The bounds encode the accuracy
// contract documented in nn/quantized.h: fp32 stays within rounding-level
// error, far below the model's own prediction error, which is what makes
// fp32 usable for serving and candidate ranking.
#include "nn/quantized.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "core/plan_graph.h"
#include "core/train_batch.h"
#include "core/trainer.h"
#include "nn/layers.h"
#include "support/mlp_rows.h"

namespace zerotune::core {
namespace {

using nn::FloatBuffer;
using nn::Matrix;

double RelError(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1.0});
}

// --- QuantizedMlp vs its source Mlp ----------------------------------

class QuantizedMlpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(123);
    nn::Mlp::Options opts;
    opts.activate_output = true;
    mlp_ = std::make_unique<nn::Mlp>(
        &store_, std::vector<size_t>{13, 48, 48}, &rng, opts);
    Rng data_rng(7);
    input_ = Matrix(9, 13);
    for (size_t i = 0; i < input_.size(); ++i) {
      input_.data()[i] = data_rng.Gaussian(0.0, 1.0);
    }
  }

  // Forwards `rows` rows of `x` (fp64, narrowed to fp32) through `q`.
  static FloatBuffer Run(const nn::QuantizedMlp& q, const double* x,
                         size_t rows) {
    FloatBuffer in(rows * q.in_features());
    for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(x[i]);
    FloatBuffer out;
    q.ForwardRows(in.data(), rows, &out);
    return out;
  }

  nn::ParameterStore store_;
  std::unique_ptr<nn::Mlp> mlp_;
  Matrix input_;
};

TEST_F(QuantizedMlpTest, Fp32TracksFp64WithinRoundingError) {
  const nn::QuantizedMlp q = nn::QuantizedMlp::FromMlp(*mlp_);
  EXPECT_EQ(q.in_features(), mlp_->in_features());
  EXPECT_EQ(q.out_features(), mlp_->out_features());
  const Matrix ref = nn::ForwardRows(*mlp_, input_);
  const FloatBuffer got = Run(q, input_.data(), input_.rows());
  ASSERT_EQ(got.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_LE(RelError(got[i], ref.data()[i]), 1e-5) << "i=" << i;
  }
}

TEST_F(QuantizedMlpTest, RowsAreIndependent) {
  // Scoring one row alone must equal that row inside a batch — the
  // invariant the batch engine's dedup and chunking rely on.
  const nn::QuantizedMlp q = nn::QuantizedMlp::FromMlp(*mlp_);
  const FloatBuffer batch = Run(q, input_.data(), input_.rows());
  const size_t out = q.out_features();
  for (size_t r = 0; r < input_.rows(); ++r) {
    const FloatBuffer single =
        Run(q, input_.data() + r * input_.cols(), 1);
    for (size_t c = 0; c < out; ++c) {
      EXPECT_EQ(single[c], batch[r * out + c]) << "r=" << r << " c=" << c;
    }
  }
}

TEST_F(QuantizedMlpTest, ConversionSnapshotsParameters) {
  const nn::QuantizedMlp q = nn::QuantizedMlp::FromMlp(*mlp_);
  const FloatBuffer before = Run(q, input_.data(), input_.rows());
  // Perturb the source parameters; the snapshot must not move.
  for (const nn::NodePtr& p : store_.parameters()) p->value.Scale(1.5);
  const FloatBuffer after = Run(q, input_.data(), input_.rows());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
}

// --- end-to-end: batched fp32 GNN vs the fp64 pass on a trained model

class QuantizedPredictTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    OptiSampleEnumerator enumerator;
    DatasetBuilderOptions opts;
    opts.count = 60;
    opts.seed = 11;
    const workload::Dataset corpus = BuildDataset(enumerator, opts).value();

    model_ = new ZeroTuneModel(ModelConfig{});
    TrainOptions topts;
    topts.epochs = 6;
    topts.batch_size = 16;
    topts.seed = 3;
    Trainer trainer(model_, topts);
    const auto report = trainer.Train(corpus, corpus);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    plans_ = new std::vector<dsp::ParallelQueryPlan>();
    for (const workload::LabeledQuery& s : corpus.samples()) {
      plans_->push_back(s.plan);
      if (plans_->size() >= 24) break;
    }
  }
  static void TearDownTestSuite() {
    delete model_;
    delete plans_;
    model_ = nullptr;
    plans_ = nullptr;
  }

  static ZeroTuneModel* model_;
  static std::vector<dsp::ParallelQueryPlan>* plans_;
};

ZeroTuneModel* QuantizedPredictTest::model_ = nullptr;
std::vector<dsp::ParallelQueryPlan>* QuantizedPredictTest::plans_ = nullptr;

TEST_F(QuantizedPredictTest, Fp32PredictionsTrackFp64) {
  std::vector<const dsp::ParallelQueryPlan*> ptrs;
  for (const auto& plan : *plans_) ptrs.push_back(&plan);
  const auto got = model_->PredictBatch(ptrs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (size_t i = 0; i < plans_->size(); ++i) {
    const PlanGraph graph =
        BuildPlanGraph((*plans_)[i], model_->config().features);
    const CostPrediction ref =
        model_->DecodeOutput(ForwardGraph(*model_, graph));
    const CostPrediction& p = got.value()[i];
    ASSERT_TRUE(std::isfinite(p.latency_ms));
    ASSERT_TRUE(std::isfinite(p.throughput_tps));
    // fp32 rounding through the whole GNN plus the exp() decode: well
    // under 0.1% on trained weights.
    EXPECT_LE(RelError(p.latency_ms, ref.latency_ms), 1e-3) << "plan #" << i;
    EXPECT_LE(RelError(p.throughput_tps, ref.throughput_tps), 1e-3)
        << "plan #" << i;
  }
}

}  // namespace
}  // namespace zerotune::core
