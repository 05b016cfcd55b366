// Parameterized property tests for the neural-network library: gradient
// correctness of the fp64 pass with and without the output activation,
// and optimizer convergence across learning rates.
#include <algorithm>
#include <cmath>
#include <functional>
#include <gtest/gtest.h>
#include <thread>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/mlp_pass.h"
#include "nn/optimizer.h"
#include "support/mlp_rows.h"

namespace zerotune::nn {
namespace {

double NumericGrad(const std::function<double()>& loss_fn, const NodePtr& p,
                   size_t idx, double eps = 1e-6) {
  const double orig = p->value.data()[idx];
  p->value.data()[idx] = orig + eps;
  const double up = loss_fn();
  p->value.data()[idx] = orig - eps;
  const double down = loss_fn();
  p->value.data()[idx] = orig;
  return (up - down) / (2.0 * eps);
}

/// MseRow's loss and parameter gradients of one row through `mlp` on the
/// fp64 pass.
double LossAndGradients(const Mlp& mlp, const ParameterStore& store,
                        const Matrix& x, const Matrix& target,
                        GradStore* grads) {
  MlpPass pass;
  ForwardRows(mlp, x, &pass);
  Matrix d_output(1, target.cols());
  const double loss = MseRow(pass.output(), 0, target, &d_output);
  BackwardRows(d_output, TransposedWeights(store), &pass, grads);
  return loss;
}

// What the MLP's output layer applies; hidden layers always apply
// LeakyReLU. The values match the instance ids this sweep has always
// printed ("4-byte object <00-...>" and "<02-...>").
enum class OutputAct { kNone = 0, kLeakyRelu = 2 };

class ActivationGradProperty : public ::testing::TestWithParam<OutputAct> {};

// The hand-written backward of nn::MlpPass against central differences
// of its own forward.
TEST_P(ActivationGradProperty, MlpGradientsMatchNumeric) {
  zerotune::Rng rng(21);
  ParameterStore store;
  Mlp::Options opts;
  opts.activate_output = GetParam() == OutputAct::kLeakyRelu;
  Mlp mlp(&store, {3, 5, 2}, &rng, opts);
  const Matrix x = Matrix::RowVector({0.3, -0.8, 1.1});
  Matrix target(1, 2);
  target(0, 0) = 0.25;
  target(0, 1) = -0.5;

  GradStore grads;
  LossAndGradients(mlp, store, x, target, &grads);
  auto loss_value = [&] {
    return MseRow(ForwardRows(mlp, x), 0, target, nullptr);
  };

  for (const NodePtr& p : store.parameters()) {
    const Matrix* g = grads.Find(p->param_id);
    ASSERT_NE(g, nullptr);
    for (size_t i = 0; i < p->value.size(); ++i) {
      // LeakyReLU's kink can disagree exactly at 0; tolerate slightly
      // looser bounds there.
      EXPECT_NEAR(g->data()[i], NumericGrad(loss_value, p, i), 2e-4)
          << "param " << p->param_id << "[" << i << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllActivations, ActivationGradProperty,
    ::testing::Values(OutputAct::kNone, OutputAct::kLeakyRelu),
    [](const ::testing::TestParamInfo<OutputAct>& info) {
      return info.param == OutputAct::kNone ? "None" : "LeakyRelu";
    });

class AdamLrProperty : public ::testing::TestWithParam<double> {};

TEST_P(AdamLrProperty, ConvergesOnQuadratic) {
  // Minimize ||w - w*||² for a random target; Adam must converge for
  // every sane learning rate.
  zerotune::Rng rng(33);
  ParameterStore store;
  const NodePtr w = store.CreateParameter(1, 4, &rng);
  Matrix target(1, 4);
  for (size_t i = 0; i < 4; ++i) target.data()[i] = rng.Uniform(-2, 2);

  Adam::Options opts;
  opts.learning_rate = GetParam();
  Adam adam(&store, opts);
  double loss = 0.0;
  // Adam's per-step movement is bounded by ~lr, so give small rates
  // enough steps to cross the ±2 initialization gap.
  const int steps = std::max(3000, static_cast<int>(6.0 / GetParam()));
  for (int step = 0; step < steps; ++step) {
    std::vector<GradStore> grads(1);
    Matrix grad(1, 4);
    loss = MseRow(w->value, 0, target, &grad);
    grads[0].Accumulate(w->param_id, std::move(grad));
    adam.Step(std::move(grads), 1.0, 0.0);
  }
  EXPECT_LT(loss, 1e-3) << "lr=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(LearningRates, AdamLrProperty,
                         ::testing::Values(3e-4, 1e-3, 1e-2, 5e-2),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "lr_" + std::to_string(static_cast<int>(
                                              info.param * 1e4));
                         });

class MlpShapeProperty
    : public ::testing::TestWithParam<std::vector<size_t>> {};

TEST_P(MlpShapeProperty, ForwardShapesAndFiniteness) {
  zerotune::Rng rng(5);
  ParameterStore store;
  Mlp mlp(&store, GetParam(), &rng);
  const size_t in = GetParam().front();
  const size_t out = GetParam().back();
  for (size_t batch : {1u, 3u}) {
    Matrix x(batch, in);
    for (size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
    const Matrix y = ForwardRows(mlp, x);
    EXPECT_EQ(y.rows(), batch);
    EXPECT_EQ(y.cols(), out);
    for (size_t i = 0; i < y.size(); ++i) {
      EXPECT_TRUE(std::isfinite(y.data()[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpShapeProperty,
    ::testing::Values(std::vector<size_t>{1, 1}, std::vector<size_t>{4, 8, 2},
                      std::vector<size_t>{16, 32, 32, 4},
                      std::vector<size_t>{64, 8, 64}),
    [](const ::testing::TestParamInfo<std::vector<size_t>>& info) {
      std::string name = "L";
      for (size_t s : info.param) {
        name += "_";
        name += std::to_string(s);
      }
      return name;
    });

// Passes over one Mlp and one set of transposed weights from several
// threads at once must not race: each pass writes only its own buffers
// and gradients land in thread-local stores.
TEST(MlpPassThreadSafety, ConcurrentBackwardOnSharedWeights) {
  zerotune::Rng rng(7);
  ParameterStore store;
  Mlp mlp(&store, {4, 8, 1}, &rng);
  const TransposedWeights weights_t(store);
  Matrix x(3, 4);
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  const Matrix target(1, 1, 0.5);
  const auto run = [&](GradStore* grads) {
    MlpPass pass;
    ForwardRows(mlp, x, &pass);
    Matrix d_outputs(x.rows(), 1);
    for (size_t r = 0; r < x.rows(); ++r) {
      MseRow(pass.output(), r, target, &d_outputs);
    }
    BackwardRows(d_outputs, weights_t, &pass, grads);
  };

  GradStore reference;
  run(&reference);

  constexpr int kThreads = 4;
  std::vector<GradStore> stores(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        GradStore local;
        run(&local);
        if (i == 0) stores[static_cast<size_t>(t)] = std::move(local);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (const GradStore& s : stores) {
    for (const NodePtr& p : store.parameters()) {
      const Matrix* a = reference.Find(p->param_id);
      const Matrix* b = s.Find(p->param_id);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ(a->data()[i], b->data()[i]);
      }
    }
  }
}

}  // namespace
}  // namespace zerotune::nn
