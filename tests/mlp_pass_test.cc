// nn::MlpPass, the library's one fp64 MLP pass, against the per-sample
// autograd graph it replaced for the flat-vector MLP baseline (the oracle
// of tests/support/autograd_oracle.h): at FlatMlpModel's shapes, a
// mini-batch's outputs, loss and parameter gradients must equal (==)
// those of the graph run row by row, its gradients summed in row order.
#include "nn/mlp_pass.h"

#include <gtest/gtest.h>

#include <string>

#include "baselines/flat_vector.h"
#include "common/rng.h"
#include "support/autograd_oracle.h"
#include "support/mlp_rows.h"

namespace zerotune::nn {
namespace {

TEST(MlpPassTest, EqualsPerRowAutogradAtFlatMlpShapes) {
  const size_t d = baselines::FlatVectorEncoder::Dim();
  zerotune::Rng rng(17);
  ParameterStore store;
  const Mlp mlp(&store, {d, 64, 64, 2}, &rng);
  const TransposedWeights weights_t(store);
  zerotune::Rng data(5);
  for (size_t rows : {1, 7, 32}) {
    SCOPED_TRACE(std::to_string(rows) + " rows");
    // Every third input is exactly zero, as constant features are after
    // FlatMlpModel's standardization: the pass's weight GEMM skips them,
    // where the graph adds a zero term.
    Matrix x(rows, d);
    for (size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = i % 3 == 0 ? 0.0 : data.Gaussian(0.0, 1.0);
    }
    std::vector<Matrix> targets;
    for (size_t r = 0; r < rows; ++r) {
      Matrix t(1, 2);
      t(0, 0) = data.Gaussian(0.0, 1.0);
      t(0, 1) = data.Gaussian(0.0, 1.0);
      targets.push_back(t);
    }

    MlpPass pass;
    ForwardRows(mlp, x, &pass);
    Matrix d_outputs(rows, 2);
    std::vector<double> losses;
    for (size_t r = 0; r < rows; ++r) {
      losses.push_back(MseRow(pass.output(), r, targets[r], &d_outputs));
    }
    GradStore got;
    BackwardRows(d_outputs, weights_t, &pass, &got);

    GradStore want;
    oracle::ParameterLeaves leaves;
    for (size_t r = 0; r < rows; ++r) {
      const oracle::NodePtr out = oracle::Forward(
          mlp, oracle::Constant(Matrix::RowVector(x.data() + r * d, d)),
          &leaves);
      for (size_t j = 0; j < 2; ++j) {
        ASSERT_EQ(pass.output()(r, j), out->value()(0, j))
            << "row " << r << " output " << j;
      }
      const oracle::NodePtr loss = oracle::MseLoss(out, targets[r]);
      ASSERT_EQ(losses[r], loss->value()(0, 0)) << "row " << r;
      oracle::Backward(loss, &want);
    }
    ASSERT_EQ(got.size(), want.size());
    for (const NodePtr& p : store.parameters()) {
      const Matrix* g = got.Find(p->param_id);
      const Matrix* w = want.Find(p->param_id);
      ASSERT_NE(g, nullptr) << "parameter " << p->param_id;
      ASSERT_NE(w, nullptr) << "parameter " << p->param_id;
      ASSERT_TRUE(g->SameShape(*w));
      for (size_t i = 0; i < g->size(); ++i) {
        ASSERT_EQ(g->data()[i], w->data()[i])
            << "parameter " << p->param_id << " entry " << i;
      }
    }
  }
}

}  // namespace
}  // namespace zerotune::nn
