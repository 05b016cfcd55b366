// Tests for the nn optimizer (Adam): convergence on small problems.
#include "nn/optimizer.h"

#include <gtest/gtest.h>

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
    GradStore grads;
    BackwardRows(d_outputs, weights_t, &pass, &grads);
    grads.Scale(1.0 / 16.0);
    opt->Step(grads, 1.0, nullptr,
              [&](int param_id) { weights_t.Refresh(param_id); });
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
  adam.Step(grads);
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
  adam.Step(grads);
  EXPECT_LT(w->value(0, 0), 10.0);
}

TEST(AdamTest, ResetClearsMoments) {
  zerotune::Rng rng(4);
  ParameterStore store;
  const NodePtr w = store.CreateParameter(1, 1, &rng);
  Adam adam(&store);
  GradStore grads;
  grads.Accumulate(w->param_id, Matrix(1, 1, 5.0));
  adam.Step(grads);
  const double after_one = w->value(0, 0);
  adam.Reset();
  adam.Step(grads);
  // After reset, the first-step bias correction applies again: the update
  // magnitude matches a fresh optimizer's first step.
  const double delta = after_one - w->value(0, 0);
  EXPECT_NEAR(std::abs(delta), 1e-3, 1e-4);  // default lr = 1e-3
}

}  // namespace
}  // namespace zerotune::nn
