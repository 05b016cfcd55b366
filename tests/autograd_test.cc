// The autograd oracle (tests/support/autograd_oracle.h) against central
// finite differences, and the ParameterStore every model keeps its
// weights in.
#include "nn/autograd.h"

#include <cmath>
#include <functional>
#include <gtest/gtest.h>
#include <sstream>

#include "common/rng.h"
#include "nn/optimizer.h"
#include "support/autograd_oracle.h"

namespace zerotune::nn {
namespace {

using oracle::AddRowBroadcast;
using oracle::Backward;
using oracle::ConcatCols;
using oracle::Constant;
using oracle::LeakyRelu;
using oracle::MatMul;
using oracle::MeanAll;
using oracle::MseLoss;
using oracle::Parameter;

/// Central-difference numeric gradient of `loss_fn` w.r.t. one parameter
/// entry (the graph is rebuilt on every evaluation).
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

/// Checks every entry of every parameter against numeric gradients.
void CheckGradients(const ParameterStore& store,
                    const std::function<oracle::NodePtr()>& build_loss,
                    double tol = 1e-5) {
  GradStore grads;
  Backward(build_loss(), &grads);
  auto loss_value = [&] { return build_loss()->value()(0, 0); };
  for (const NodePtr& p : store.parameters()) {
    const Matrix* g = grads.Find(p->param_id);
    for (size_t i = 0; i < p->value.size(); ++i) {
      const double analytic = g != nullptr ? g->data()[i] : 0.0;
      const double numeric = NumericGrad(loss_value, p, i);
      EXPECT_NEAR(analytic, numeric, tol)
          << "param " << p->param_id << " entry " << i;
    }
  }
}

class AutogradGradCheckTest : public ::testing::Test {
 protected:
  zerotune::Rng rng_{1234};
  ParameterStore store_;
};

TEST_F(AutogradGradCheckTest, MatMulAndBias) {
  NodePtr w = store_.CreateParameter(3, 2, &rng_);
  NodePtr b = store_.CreateParameter(1, 2, &rng_);
  const Matrix x = Matrix::RowVector({0.5, -1.0, 2.0});
  Matrix target(1, 2);
  target(0, 0) = 0.3;
  target(0, 1) = -0.7;
  CheckGradients(store_, [&] {
    return MseLoss(
        AddRowBroadcast(MatMul(Constant(x), Parameter(w)), Parameter(b)),
        target);
  });
}

TEST_F(AutogradGradCheckTest, LeakyReluChain) {
  NodePtr w1 = store_.CreateParameter(2, 4, &rng_);
  NodePtr w2 = store_.CreateParameter(4, 1, &rng_);
  const Matrix x = Matrix::RowVector({1.0, -0.5});
  const Matrix target(1, 1, 0.25);
  CheckGradients(store_, [&] {
    return MseLoss(
        MatMul(LeakyRelu(MatMul(Constant(x), Parameter(w1))), Parameter(w2)),
        target);
  });
}

TEST_F(AutogradGradCheckTest, SharedParameterAcrossBranches) {
  // The same weight used twice (diamond): gradients must accumulate.
  NodePtr w = store_.CreateParameter(2, 2, &rng_);
  const Matrix x1 = Matrix::RowVector({1.0, 2.0});
  const Matrix x2 = Matrix::RowVector({-1.0, 0.5});
  const Matrix target(1, 2, 0.0);
  CheckGradients(store_, [&] {
    const oracle::NodePtr shared = Parameter(w);
    oracle::NodePtr a = MatMul(Constant(x1), shared);
    oracle::NodePtr b = MatMul(Constant(x2), shared);
    return MseLoss(oracle::Add(a, b), target);
  });
}

TEST_F(AutogradGradCheckTest, ConcatAndMean) {
  NodePtr w1 = store_.CreateParameter(2, 3, &rng_);
  NodePtr w2 = store_.CreateParameter(2, 3, &rng_);
  NodePtr w3 = store_.CreateParameter(6, 1, &rng_);
  const Matrix x = Matrix::RowVector({0.4, -0.9});
  const Matrix target(1, 1, 1.0);
  CheckGradients(store_, [&] {
    oracle::NodePtr a = LeakyRelu(MatMul(Constant(x), Parameter(w1)));
    oracle::NodePtr b = LeakyRelu(MatMul(Constant(x), Parameter(w2)));
    oracle::NodePtr m = MeanAll({a, b});
    oracle::NodePtr cat = ConcatCols({m, a});
    return MseLoss(MatMul(cat, Parameter(w3)), target);
  });
}

TEST(AutogradTest, BackwardAccumulatesIntoExistingStore) {
  zerotune::Rng rng(2);
  ParameterStore store;
  NodePtr w = store.CreateParameter(1, 1, &rng);
  const Matrix x = Matrix::RowVector({2.0});
  const Matrix target(1, 1, 0.0);
  auto make_loss = [&] {
    return MseLoss(MatMul(Constant(x), Parameter(w)), target);
  };
  GradStore grads;
  Backward(make_loss(), &grads);
  const double g1 = grads.Find(w->param_id)->data()[0];
  Backward(make_loss(), &grads);
  EXPECT_NEAR(grads.Find(w->param_id)->data()[0], 2.0 * g1, 1e-12);
}

TEST(ParameterStoreTest, SaveLoadRoundTrip) {
  zerotune::Rng rng(3);
  ParameterStore a;
  a.CreateParameter(2, 3, &rng);
  a.CreateParameter(1, 4, &rng);
  std::stringstream stream;
  ASSERT_TRUE(a.SaveToStream(stream).ok());

  zerotune::Rng rng2(999);
  ParameterStore b;
  b.CreateParameter(2, 3, &rng2);
  b.CreateParameter(1, 4, &rng2);
  ASSERT_TRUE(b.LoadFromStream(stream).ok());
  for (size_t i = 0; i < a.parameters().size(); ++i) {
    const Matrix& ma = a.parameters()[i]->value;
    const Matrix& mb = b.parameters()[i]->value;
    for (size_t k = 0; k < ma.size(); ++k) {
      EXPECT_DOUBLE_EQ(ma.data()[k], mb.data()[k]);
    }
  }
}

TEST(ParameterStoreTest, LoadRejectsShapeMismatch) {
  zerotune::Rng rng(3);
  ParameterStore a;
  a.CreateParameter(2, 3, &rng);
  std::stringstream stream;
  ASSERT_TRUE(a.SaveToStream(stream).ok());
  ParameterStore b;
  b.CreateParameter(3, 2, &rng);
  EXPECT_FALSE(b.LoadFromStream(stream).ok());
}

TEST(ParameterStoreTest, CopyFromChecksLayout) {
  zerotune::Rng rng(4);
  ParameterStore a, b, c;
  a.CreateParameter(2, 2, &rng);
  b.CreateParameter(2, 2, &rng);
  c.CreateParameter(1, 1, &rng);
  EXPECT_TRUE(b.CopyFrom(a).ok());
  EXPECT_DOUBLE_EQ(b.parameters()[0]->value(0, 0),
                   a.parameters()[0]->value(0, 0));
  EXPECT_FALSE(c.CopyFrom(a).ok());

  // The first parameters match and the second do not: every shape is
  // checked before anything is copied, so the first stays untouched.
  ParameterStore src, dst;
  src.CreateParameter(2, 2, &rng);
  src.CreateParameter(1, 3, &rng);
  dst.CreateParameter(2, 2, &rng);
  dst.CreateParameter(3, 1, &rng);
  const Matrix before = dst.parameters()[0]->value;
  EXPECT_FALSE(dst.CopyFrom(src).ok());
  for (size_t k = 0; k < before.size(); ++k) {
    EXPECT_EQ(dst.parameters()[0]->value.data()[k], before.data()[k])
        << "element " << k;
  }
}

// Every write path moves the generation that inference caches key on;
// reads and failed writes do not.
TEST(ParameterStoreTest, GenerationMovesOnEveryWrite) {
  zerotune::Rng rng(6);
  ParameterStore s;
  uint64_t last = s.generation();
  const auto moved = [&s, &last] {
    const uint64_t now = s.generation();
    const bool changed = now != last;
    last = now;
    return changed;
  };
  s.CreateParameter(2, 3, &rng);
  EXPECT_TRUE(moved()) << "CreateParameter";
  s.CreateParameter(1, 3, &rng, /*zero_init=*/true);
  EXPECT_TRUE(moved()) << "CreateParameter (zero_init)";

  std::stringstream stream;
  ASSERT_TRUE(s.SaveToStream(stream).ok());
  EXPECT_FALSE(moved()) << "SaveToStream";
  ASSERT_TRUE(s.LoadFromStream(stream).ok());
  EXPECT_TRUE(moved()) << "LoadFromStream";

  ParameterStore same;
  same.CreateParameter(2, 3, &rng);
  same.CreateParameter(1, 3, &rng);
  ASSERT_TRUE(s.CopyFrom(same).ok());
  EXPECT_TRUE(moved()) << "CopyFrom";
  const std::vector<Matrix> snapshot = s.Snapshot();
  EXPECT_FALSE(moved()) << "Snapshot";
  ASSERT_TRUE(s.Restore(snapshot).ok());
  EXPECT_TRUE(moved()) << "Restore";

  GradStore grads;
  grads.Accumulate(0, Matrix(2, 3, 1.0));
  Adam adam(&s);
  ASSERT_TRUE(adam.Step({grads}, 1.0, 0.0).applied);
  EXPECT_TRUE(moved()) << "Adam::Step";
  grads.Accumulate(1, Matrix(1, 3, std::nan("")));
  ASSERT_FALSE(adam.Step({grads}, 1.0, 0.0).applied);
  EXPECT_FALSE(moved()) << "skipped Adam::Step";

  ParameterStore other_layout;
  other_layout.CreateParameter(2, 3, &rng);
  other_layout.CreateParameter(3, 1, &rng);
  EXPECT_FALSE(s.CopyFrom(other_layout).ok());
  EXPECT_FALSE(moved()) << "failed CopyFrom";
  std::stringstream wrong;
  ASSERT_TRUE(other_layout.SaveToStream(wrong).ok());
  EXPECT_FALSE(s.LoadFromStream(wrong).ok());
  EXPECT_FALSE(moved()) << "failed LoadFromStream (shape mismatch)";
  std::istringstream truncated("zerotune-params-v1 2\n2 3 0.5 0.25");
  EXPECT_FALSE(s.LoadFromStream(truncated).ok());
  EXPECT_FALSE(moved()) << "failed LoadFromStream (truncated)";
  EXPECT_FALSE(s.Restore({}).ok());
  EXPECT_FALSE(moved()) << "failed Restore";
}

TEST(ParameterStoreTest, NumParametersCountsScalars) {
  zerotune::Rng rng(5);
  ParameterStore s;
  s.CreateParameter(3, 4, &rng);
  s.CreateParameter(1, 2, &rng);
  EXPECT_EQ(s.num_parameters(), 14u);
}

}  // namespace
}  // namespace zerotune::nn
