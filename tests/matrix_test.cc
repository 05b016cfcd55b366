#include "nn/matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"

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
  a.AddScaled(b, -1.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const Matrix c = Matrix::MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, TransposedMatMulVariantsAgree) {
  zerotune::Rng rng(3);
  Matrix a(3, 4), b(3, 5);
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Gaussian();
  const Matrix expected = Matrix::MatMul(a.Transposed(), b);
  const Matrix got = Matrix::MatMulTransA(a, b);
  ASSERT_TRUE(expected.SameShape(got));
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected.data()[i], got.data()[i], 1e-12);
  }

  Matrix c(5, 4);
  for (size_t i = 0; i < c.size(); ++i) c.data()[i] = rng.Gaussian();
  const Matrix expected2 = Matrix::MatMul(a, c.Transposed());  // (3×4)·(5×4)ᵀ
  const Matrix got2 = Matrix::MatMulTransB(a, c);
  ASSERT_TRUE(expected2.SameShape(got2));
  for (size_t i = 0; i < expected2.size(); ++i) {
    EXPECT_NEAR(expected2.data()[i], got2.data()[i], 1e-12);
  }
}

TEST(MatrixTest, SquaredNorm) {
  Matrix m(1, 3);
  m(0, 0) = 3;
  m(0, 1) = 4;
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 25.0);
}

TEST(MatrixTest, SetZeroKeepsShape) {
  Matrix m(2, 2, 9.0);
  m.SetZero();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
}

TEST(MatrixTest, DebugStringTruncates) {
  Matrix m(10, 10, 1.0);
  const std::string s = m.DebugString(4);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_NE(s.find("10x10"), std::string::npos);
}

}  // namespace
}  // namespace zerotune::nn
