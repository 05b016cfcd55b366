#include "nn/layers.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace zerotune::nn {
namespace {

TEST(LinearTest, OutputShape) {
  zerotune::Rng rng(1);
  ParameterStore store;
  Linear layer(&store, 4, 3, &rng);
  const NodePtr out = layer.Forward(Constant(Matrix(2, 4, 1.0)));
  EXPECT_EQ(out->value.rows(), 2u);
  EXPECT_EQ(out->value.cols(), 3u);
}

TEST(LinearTest, BiasStartsAtZero) {
  zerotune::Rng rng(1);
  ParameterStore store;
  Linear layer(&store, 2, 2, &rng);
  // With zero input, output equals bias (zero-initialized).
  const NodePtr out = layer.Forward(Constant(Matrix(1, 2, 0.0)));
  EXPECT_DOUBLE_EQ(out->value(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out->value(0, 1), 0.0);
}

TEST(LinearTest, AllocatesTwoParameters) {
  zerotune::Rng rng(1);
  ParameterStore store;
  Linear layer(&store, 5, 7, &rng);
  EXPECT_EQ(store.parameters().size(), 2u);
  EXPECT_EQ(store.num_parameters(), 5u * 7u + 7u);
  (void)layer;
}

TEST(MlpTest, LayerSizesRespected) {
  zerotune::Rng rng(2);
  ParameterStore store;
  Mlp mlp(&store, {6, 8, 3}, &rng);
  EXPECT_EQ(mlp.in_features(), 6u);
  EXPECT_EQ(mlp.out_features(), 3u);
  const NodePtr out = mlp.Forward(Constant(Matrix(1, 6, 0.5)));
  EXPECT_EQ(out->value.cols(), 3u);
}

// The output LeakyReLU passes positive pre-activations through and
// scales negative ones by the slope; the pre-activations come from an
// identically seeded MLP without the output activation.
TEST(MlpTest, ReluOutputActivationClampsNegatives) {
  zerotune::Rng rng(3), same_rng(3);
  ParameterStore store, raw_store;
  Mlp::Options opts;
  opts.activate_output = true;
  Mlp mlp(&store, {2, 4, 4}, &rng, opts);
  Mlp raw(&raw_store, {2, 4, 4}, &same_rng);
  const NodePtr x = Constant(Matrix::RowVector({1.0, -1.0}));
  const Matrix out = mlp.Forward(x)->value;
  const Matrix pre = raw.Forward(x)->value;
  bool saw_negative = false;
  for (size_t i = 0; i < out.size(); ++i) {
    const double p = pre.data()[i];
    saw_negative = saw_negative || p < 0.0;
    EXPECT_EQ(out.data()[i], p > 0.0 ? p : 0.01 * p) << "output " << i;
  }
  EXPECT_TRUE(saw_negative);
}

TEST(MlpTest, RegressionHeadCanGoNegative) {
  zerotune::Rng rng(4);
  ParameterStore store;
  Mlp mlp(&store, {2, 8, 1}, &rng);  // no output activation
  bool saw_negative = false;
  for (int i = 0; i < 50 && !saw_negative; ++i) {
    zerotune::Rng xr(static_cast<uint64_t>(i + 1));
    const NodePtr out = mlp.Forward(Constant(
        Matrix::RowVector({xr.Gaussian(0, 3), xr.Gaussian(0, 3)})));
    saw_negative = out->value(0, 0) < 0.0;
  }
  EXPECT_TRUE(saw_negative);
}

TEST(MlpTest, DeterministicGivenSeed) {
  auto build = [] {
    zerotune::Rng rng(77);
    auto store = std::make_unique<ParameterStore>();
    Mlp mlp(store.get(), {3, 5, 2}, &rng);
    return mlp.Forward(Constant(Matrix::RowVector({1, 2, 3})))->value;
  };
  const Matrix a = build();
  const Matrix b = build();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
  }
}

}  // namespace
}  // namespace zerotune::nn
