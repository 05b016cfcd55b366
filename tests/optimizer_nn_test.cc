// Tests for the nn optimizer (Adam): convergence on small problems, and
// how one Step merges, scales and clips a mini-batch's gradients.
#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/mlp_pass.h"
#include "support/mlp_rows.h"

namespace zerotune::nn {
namespace {

/// Trains y = 2x1 - 3x2 + 1 from samples, 16 rows of one fp64 pass per
/// step; returns final MSE.
double FitLinear(Adam* opt, const ParameterStore& store, const Mlp& layer,
                 int steps) {
  zerotune::Rng rng(10);
  TransposedWeights weights_t(store);
  double last_loss = 0.0;
  for (int s = 0; s < steps; ++s) {
    Matrix x(16, 2);
    for (size_t b = 0; b < 16; ++b) {
      x(b, 0) = rng.Uniform(-1, 1);
      x(b, 1) = rng.Uniform(-1, 1);
    }
    MlpPass pass;
    ForwardRows(layer, x, &pass);
    Matrix d_outputs(16, 1);
    double loss_sum = 0.0;
    for (size_t b = 0; b < 16; ++b) {
      const Matrix target(1, 1, 2.0 * x(b, 0) - 3.0 * x(b, 1) + 1.0);
      loss_sum += MseRow(pass.output(), b, target, &d_outputs);
    }
    std::vector<GradStore> grads(1);
    BackwardRows(d_outputs, weights_t, &pass, &grads[0]);
    opt->Step(std::move(grads), 1.0 / 16.0, /*clip_norm=*/0.0, nullptr,
              &weights_t);
    last_loss = loss_sum / 16.0;
  }
  return last_loss;
}

TEST(AdamTest, FitsLinearFunction) {
  zerotune::Rng rng(1);
  ParameterStore store;
  Mlp layer(&store, {2, 1}, &rng);  // one Linear, no activation
  Adam::Options opts;
  opts.learning_rate = 0.05;
  Adam adam(&store, opts);
  const double loss = FitLinear(&adam, store, layer, 300);
  EXPECT_LT(loss, 1e-3);
}

TEST(AdamTest, SkipsParametersWithoutGradients) {
  zerotune::Rng rng(2);
  ParameterStore store;
  const NodePtr w = store.CreateParameter(1, 1, &rng);
  const NodePtr untouched = store.CreateParameter(1, 1, &rng);
  const double before = untouched->value(0, 0);
  Adam adam(&store);
  GradStore grads;
  grads.Accumulate(w->param_id, Matrix(1, 1, 1.0));
  adam.Step({grads}, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(untouched->value(0, 0), before);
  EXPECT_NE(w->value(0, 0), 0.0);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  zerotune::Rng rng(3);
  ParameterStore store;
  const NodePtr w = store.CreateParameter(1, 1, &rng);
  w->value(0, 0) = 10.0;
  Adam::Options opts;
  opts.learning_rate = 0.01;
  opts.weight_decay = 1.0;
  Adam adam(&store, opts);
  GradStore grads;
  grads.Accumulate(w->param_id, Matrix(1, 1, 0.0));
  // Zero gradient: only decay acts (m/v stay 0 so the Adam term is 0).
  adam.Step({grads}, 1.0, 0.0);
  EXPECT_LT(w->value(0, 0), 10.0);
}

TEST(AdamTest, ResetClearsMoments) {
  zerotune::Rng rng(4);
  ParameterStore store;
  const NodePtr w = store.CreateParameter(1, 1, &rng);
  Adam adam(&store);
  GradStore grads;
  grads.Accumulate(w->param_id, Matrix(1, 1, 5.0));
  adam.Step({grads}, 1.0, 0.0);
  const double after_one = w->value(0, 0);
  adam.Reset();
  adam.Step({grads}, 1.0, 0.0);
  // After reset, the first-step bias correction applies again: the update
  // magnitude matches a fresh optimizer's first step.
  const double delta = after_one - w->value(0, 0);
  EXPECT_NEAR(std::abs(delta), 1e-3, 1e-4);  // default lr = 1e-3
}

/// Two 1×2 parameters with the same initial values, one per store, so
/// two optimizers can be compared weight for weight.
struct TwinStores {
  ParameterStore a, b;
  TwinStores() {
    zerotune::Rng rng_a(5), rng_b(5);
    for (int i = 0; i < 2; ++i) {
      a.CreateParameter(1, 2, &rng_a);
      b.CreateParameter(1, 2, &rng_b);
    }
  }
  void ExpectSameWeights() const {
    for (size_t p = 0; p < 2; ++p) {
      for (size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(a.parameters()[p]->value.data()[k],
                  b.parameters()[p]->value.data()[k])
            << "parameter " << p << ", entry " << k;
      }
    }
  }
};

Matrix Row(double x, double y) { return Matrix::RowVector({x, y}); }

TEST(AdamTest, StepMergesPartsThenScales) {
  // Parts {0: g} and {0: g, 1: g} at scale 0.5 step as one store holding
  // the sum times 0.5: {0: (g + g)·0.5, 1: g·0.5}.
  TwinStores twins;
  GradStore a, b, merged;
  a.Accumulate(0, Row(1.0, -2.0));
  b.Accumulate(0, Row(1.0, -2.0));
  b.Accumulate(1, Row(1.0, -2.0));
  merged.Accumulate(0, Row(1.0, -2.0));
  merged.Accumulate(1, Row(0.5, -1.0));
  Adam parts_adam(&twins.a);
  Adam merged_adam(&twins.b);
  const Adam::StepResult got = parts_adam.Step({a, b}, 0.5, 0.0);
  const Adam::StepResult want = merged_adam.Step({merged}, 1.0, 0.0);
  EXPECT_TRUE(got.applied);
  EXPECT_EQ(got.grad_norm, 2.5);  // sqrt(1 + 4 + 0.25 + 1)
  EXPECT_EQ(got.grad_norm, want.grad_norm);
  twins.ExpectSameWeights();
}

TEST(AdamTest, StepClipsToGlobalNorm) {
  // A gradient of norm 5 clipped to 1 steps as the gradient times 1/5.
  TwinStores twins;
  GradStore raw, clipped;
  raw.Accumulate(0, Row(3.0, 4.0));
  clipped.Accumulate(0, Row(3.0 * 0.2, 4.0 * 0.2));
  Adam raw_adam(&twins.a);
  Adam clipped_adam(&twins.b);
  const Adam::StepResult got = raw_adam.Step({raw}, 1.0, 1.0);
  EXPECT_TRUE(got.applied);
  EXPECT_EQ(got.grad_norm, 5.0);
  clipped_adam.Step({clipped}, 1.0, 0.0);
  twins.ExpectSameWeights();
}

TEST(AdamTest, StepClipBelowThresholdIsNoop) {
  TwinStores twins;
  GradStore grads;
  grads.Accumulate(1, Row(0.5, 0.0));
  Adam clip_adam(&twins.a);
  Adam plain_adam(&twins.b);
  EXPECT_EQ(clip_adam.Step({grads}, 1.0, 10.0).grad_norm, 0.5);
  plain_adam.Step({grads}, 1.0, 0.0);
  twins.ExpectSameWeights();
}

}  // namespace
}  // namespace zerotune::nn
