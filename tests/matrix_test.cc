#include "nn/matrix.h"

#include <gtest/gtest.h>

namespace zerotune::nn {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, RowVector) {
  const Matrix v = Matrix::RowVector({1, 2, 3});
  EXPECT_EQ(v.rows(), 1u);
  EXPECT_EQ(v.cols(), 3u);
  EXPECT_DOUBLE_EQ(v(0, 2), 3.0);
}

TEST(MatrixTest, AddAndScale) {
  Matrix a(1, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  Matrix b = a;
  a.Add(b);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
}

TEST(MatrixTest, SquaredNorm) {
  Matrix m(1, 3);
  m(0, 0) = 3;
  m(0, 1) = 4;
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 25.0);
}

}  // namespace
}  // namespace zerotune::nn
