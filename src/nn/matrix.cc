#include "nn/matrix.h"

#include <algorithm>

#include "nn/kernels.h"

namespace zerotune::nn {

Matrix Matrix::RowVector(const std::vector<double>& values) {
  return RowVector(values.data(), values.size());
}

Matrix Matrix::RowVector(const double* values, size_t n) {
  Matrix m = Matrix::Uninitialized(1, n);
  std::copy(values, values + n, m.data_.begin());
  return m;
}

void Matrix::Add(const Matrix& other) {
  assert(SameShape(other));
  // AddF64 is element-wise and bit-identical in both kernel
  // implementations, so this is safe for training paths too.
  kernels::AddF64(data_.data(), other.data_.data(), data_.size());
}

void Matrix::Scale(double scale) {
  for (double& v : data_) v *= scale;
}

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

}  // namespace zerotune::nn
