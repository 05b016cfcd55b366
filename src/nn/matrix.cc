#include "nn/matrix.h"

#include <algorithm>
#include <sstream>

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

void Matrix::AddScaled(const Matrix& other, double scale) {
  assert(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

void Matrix::Scale(double scale) {
  for (double& v : data_) v *= scale;
}

void Matrix::SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

Matrix Matrix::MatMul(const Matrix& a, const Matrix& b) {
  assert(a.cols_ == b.rows_);
  Matrix out = Uninitialized(a.rows_, b.cols_);
  kernels::GemmRowMajorF64(a.data(), a.rows_, a.cols_, b.data(), b.cols_,
                           out.data());
  return out;
}

Matrix Matrix::MatMulTransA(const Matrix& a, const Matrix& b) {
  // out = aᵀ b, shapes: a (m×n), b (m×p) -> out (n×p), each element
  // summed over a's rows in ascending order, reading a in place.
  assert(a.rows_ == b.rows_);
  Matrix out = Uninitialized(a.cols_, b.cols_);
  kernels::GemmTransAF64(a.data(), a.rows_, a.cols_, b.data(), b.cols_,
                         out.data());
  return out;
}

Matrix Matrix::MatMulTransB(const Matrix& a, const Matrix& b) {
  // out = a bᵀ, shapes: a (m×n), b (p×n) -> out (m×p).
  assert(a.cols_ == b.cols_);
  Matrix out(a.rows_, b.rows_);
  for (size_t i = 0; i < a.rows_; ++i) {
    const double* arow = &a.data_[i * a.cols_];
    for (size_t j = 0; j < b.rows_; ++j) {
      const double* brow = &b.data_[j * b.cols_];
      double s = 0.0;
      for (size_t k = 0; k < a.cols_; ++k) s += arow[k] * brow[k];
      out.data_[i * out.cols_ + j] = s;
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

std::string Matrix::DebugString(size_t max_entries) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  for (size_t i = 0; i < std::min(max_entries, data_.size()); ++i) {
    if (i > 0) os << ", ";
    os << data_[i];
  }
  if (data_.size() > max_entries) os << ", ...";
  os << "]";
  return os.str();
}

}  // namespace zerotune::nn
